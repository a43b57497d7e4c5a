#include "src/sampling/aggregates.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/special_math.h"

namespace pip {
namespace {

class AggregatesTest : public ::testing::Test {
 protected:
  AggregatesTest() : engine_(&pool_) {}

  /// A row whose condition (U < p) holds with probability exactly p.
  Condition WithProbability(double p) {
    VarRef u = pool_.Create("Uniform", {0.0, 1.0}).value();
    return Condition(Expr::Var(u) < Expr::Constant(p));
  }

  VariablePool pool_{31337};
  SamplingEngine engine_;
};

TEST_F(AggregatesTest, ExpectedSumWeighsRowsByConfidence) {
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Constant(10.0)}, WithProbability(0.5)).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(20.0)}, WithProbability(0.25)).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(40.0)}).ok());  // Always present.
  AggregateEvaluator agg(&engine_);
  // 10*0.5 + 20*0.25 + 40 = 50, all probabilities exact via CDF.
  EXPECT_NEAR(agg.ExpectedSum(t, "v").value(), 50.0, 1e-9);
}

TEST_F(AggregatesTest, ExpectedSumWithProbabilisticValues) {
  VarRef x = pool_.Create("Normal", {7.0, 2.0}).value();
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Var(x)}, WithProbability(0.5)).ok());
  SamplingOptions opts;
  opts.fixed_samples = 20000;
  SamplingEngine engine(&pool_, opts);
  AggregateEvaluator agg(&engine);
  // E[X] * P = 7 * 0.5 (value and condition are independent).
  EXPECT_NEAR(agg.ExpectedSum(t, "v").value(), 3.5, 0.1);
}

TEST_F(AggregatesTest, ExpectedSumSkipsUnsatisfiableRows) {
  VarRef u = pool_.Create("Uniform", {0.0, 1.0}).value();
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Constant(100.0)},
                       Condition(Expr::Var(u) > Expr::Constant(2.0)))
                  .ok());
  ASSERT_TRUE(t.Append({Expr::Constant(5.0)}).ok());
  AggregateEvaluator agg(&engine_);
  EXPECT_NEAR(agg.ExpectedSum(t, "v").value(), 5.0, 1e-9);
}

TEST_F(AggregatesTest, ExpectedCountSumsConfidences) {
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Constant(1.0)}, WithProbability(0.3)).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(1.0)}, WithProbability(0.6)).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(1.0)}).ok());
  AggregateEvaluator agg(&engine_);
  EXPECT_NEAR(agg.ExpectedCount(t).value(), 1.9, 1e-9);
}

TEST_F(AggregatesTest, ExpectedAvgIsSumOverCount) {
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Constant(10.0)}).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(20.0)}).ok());
  AggregateEvaluator agg(&engine_);
  EXPECT_NEAR(agg.ExpectedAvg(t, "v").value(), 15.0, 1e-9);
}

TEST_F(AggregatesTest, ExpectedAvgEmptyTableErrors) {
  CTable t(Schema({"v"}));
  AggregateEvaluator agg(&engine_);
  EXPECT_EQ(agg.ExpectedAvg(t, "v").status().code(),
            StatusCode::kInconsistent);
}

// Example 4.4: constants 5, 4, 1, 0 present with probabilities
// 0.7, 0.8, 0.3, 0.6. E[max] with empty worlds contributing 0.
TEST_F(AggregatesTest, ExpectedMaxExample44) {
  CTable t(Schema({"A"}));
  ASSERT_TRUE(t.Append({Expr::Constant(5.0)}, WithProbability(0.7)).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(4.0)}, WithProbability(0.8)).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(1.0)}, WithProbability(0.3)).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(0.0)}, WithProbability(0.6)).ok());
  AggregateEvaluator agg(&engine_);
  double expected = 5.0 * 0.7 + 4.0 * 0.3 * 0.8 + 1.0 * 0.3 * 0.2 * 0.3 +
                    0.0 * 0.3 * 0.2 * 0.7 * 0.6;
  EXPECT_NEAR(agg.ExpectedMax(t, "A").value(), expected, 1e-9);
}

TEST_F(AggregatesTest, ExpectedMaxEarlyTerminationStaysWithinPrecision) {
  CTable t(Schema({"A"}));
  // First row almost always present: later rows barely matter.
  ASSERT_TRUE(t.Append({Expr::Constant(100.0)}, WithProbability(0.999)).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        t.Append({Expr::Constant(50.0 - i)}, WithProbability(0.5)).ok());
  }
  AggregateOptions opts;
  opts.max_precision = 0.1;
  AggregateEvaluator loose(&engine_, opts);
  AggregateOptions tight_opts;
  tight_opts.max_precision = 1e-12;
  AggregateEvaluator tight(&engine_, tight_opts);
  double a = loose.ExpectedMax(t, "A").value();
  double b = tight.ExpectedMax(t, "A").value();
  EXPECT_NEAR(a, b, 0.1);
}

TEST_F(AggregatesTest, ExpectedMaxSortsUnorderedInput) {
  CTable t(Schema({"A"}));
  ASSERT_TRUE(t.Append({Expr::Constant(1.0)}, WithProbability(0.5)).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(9.0)}, WithProbability(0.5)).ok());
  AggregateEvaluator agg(&engine_);
  // E[max] = 9*0.5 + 1*0.5*0.5 = 4.75.
  EXPECT_NEAR(agg.ExpectedMax(t, "A").value(), 4.75, 1e-9);
}

TEST_F(AggregatesTest, ExpectedMaxEmptyTableIsEmptyValue) {
  CTable t(Schema({"A"}));
  AggregateEvaluator agg(&engine_);
  EXPECT_EQ(agg.ExpectedMax(t, "A", -1.0).value(), -1.0);
}

TEST_F(AggregatesTest, ExpectedMaxVariableCellsFallsBackToWorlds) {
  VarRef x = pool_.Create("Uniform", {0.0, 1.0}).value();
  VarRef y = pool_.Create("Uniform", {0.0, 1.0}).value();
  CTable t(Schema({"A"}));
  ASSERT_TRUE(t.Append({Expr::Var(x)}).ok());
  ASSERT_TRUE(t.Append({Expr::Var(y)}).ok());
  AggregateOptions opts;
  opts.world_samples = 30000;
  AggregateEvaluator agg(&engine_, opts);
  // E[max(U1, U2)] = 2/3.
  EXPECT_NEAR(agg.ExpectedMax(t, "A").value(), 2.0 / 3.0, 0.01);
}

TEST_F(AggregatesTest, ExpectedMaxSharedVariableFallsBackToWorlds) {
  // Both rows conditioned on the same variable: the independence-based
  // product formula does not apply and must not be used.
  VarRef u = pool_.Create("Uniform", {0.0, 1.0}).value();
  CTable t(Schema({"A"}));
  Condition present(Expr::Var(u) < Expr::Constant(0.5));
  Condition absent(Expr::Var(u) >= Expr::Constant(0.5));
  ASSERT_TRUE(t.Append({Expr::Constant(10.0)}, present).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(4.0)}, absent).ok());
  AggregateOptions opts;
  opts.world_samples = 30000;
  AggregateEvaluator agg(&engine_, opts);
  // Exactly one row per world: E[max] = 0.5*10 + 0.5*4 = 7.
  EXPECT_NEAR(agg.ExpectedMax(t, "A").value(), 7.0, 0.1);
}

TEST_F(AggregatesTest, ExpectedMaxSurfacesTheFirstErrorInRowOrder) {
  // A variable the pool never created: the row's confidence fails.
  const Condition broken(Expr::Var(VarRef{987654, 0}) < Expr::Constant(0.5));
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(threads);
    SamplingOptions opts;
    opts.num_threads = threads;
    opts.fixed_samples = 200;
    SamplingEngine engine(&pool_, opts);
    const std::string value_error =
        Value("x").AsDouble().status().ToString();
    const std::string confidence_error =
        engine.Confidence(broken).status().ToString();
    ASSERT_NE(value_error, "OK");
    ASSERT_NE(confidence_error, "OK");
    AggregateEvaluator agg(&engine);

    // A row's value error comes before its own confidence error.
    CTable value_first(Schema({"A"}));
    ASSERT_TRUE(value_first.Append({Expr::String("x")}, broken).ok());
    ASSERT_TRUE(
        value_first.Append({Expr::Constant(1.0)}, WithProbability(0.5)).ok());
    EXPECT_EQ(agg.ExpectedMax(value_first, "A").status().ToString(),
              value_error);

    // An earlier row's confidence error comes before a later row's value
    // error.
    CTable confidence_first(Schema({"A"}));
    ASSERT_TRUE(confidence_first.Append({Expr::Constant(2.0)}, broken).ok());
    ASSERT_TRUE(
        confidence_first.Append({Expr::String("x")}, WithProbability(0.5))
            .ok());
    EXPECT_EQ(agg.ExpectedMax(confidence_first, "A").status().ToString(),
              confidence_error);
  }
}

TEST_F(AggregatesTest, HistogramsApproximateExpectedSum) {
  VarRef x = pool_.Create("Normal", {10.0, 1.0}).value();
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Var(x)}).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(5.0)}, WithProbability(0.5)).ok());
  AggregateOptions opts;
  opts.world_samples = 20000;
  AggregateEvaluator agg(&engine_, opts);
  auto hist = agg.ExpectedSumHist(t, "v").value();
  ASSERT_EQ(hist.size(), 20000u);
  double mean = 0;
  for (double h : hist) mean += h;
  mean /= hist.size();
  EXPECT_NEAR(mean, 10.0 + 2.5, 0.1);
}

TEST_F(AggregatesTest, MaxHistMatchesExpectedMax) {
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Constant(3.0)}, WithProbability(0.5)).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(1.0)}).ok());
  AggregateOptions opts;
  opts.world_samples = 20000;
  AggregateEvaluator agg(&engine_, opts);
  auto hist = agg.ExpectedMaxHist(t, "v").value();
  double mean = 0;
  for (double h : hist) mean += h;
  mean /= hist.size();
  EXPECT_NEAR(mean, agg.ExpectedMax(t, "v").value(), 0.05);
}

TEST_F(AggregatesTest, SampleWorldsSharedVariableConsistency) {
  // One variable appearing in two rows must take the same value within
  // each world (the c-table replay guarantee).
  VarRef x = pool_.Create("Uniform", {0.0, 1.0}).value();
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Var(x)}).ok());
  ASSERT_TRUE(t.Append({Expr::Neg(Expr::Var(x))}).ok());
  AggregateOptions opts;
  opts.world_samples = 100;
  AggregateEvaluator agg(&engine_, opts);
  auto sums = agg.ExpectedSumHist(t, "v").value();
  for (double s : sums) EXPECT_NEAR(s, 0.0, 1e-12);  // X + (-X) = 0.
}

TEST_F(AggregatesTest, ExpectedStdDevOfIdenticalValuesIsZero) {
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Constant(5.0)}).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(5.0)}).ok());
  AggregateEvaluator agg(&engine_);
  EXPECT_NEAR(agg.ExpectedStdDev(t, "v").value(), 0.0, 1e-12);
}

TEST_F(AggregatesTest, ExpectedStdDevAcrossUniformRows) {
  // Two constants 0 and 10 always present: population stddev = 5 in every
  // world.
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Constant(0.0)}).ok());
  ASSERT_TRUE(t.Append({Expr::Constant(10.0)}).ok());
  AggregateOptions opts;
  opts.world_samples = 100;
  AggregateEvaluator agg(&engine_, opts);
  EXPECT_NEAR(agg.ExpectedStdDev(t, "v").value(), 5.0, 1e-12);
}

TEST_F(AggregatesTest, SumStdDevMatchesTheory) {
  // Sum of two iid Normal(0, 3): stddev of the sum is 3*sqrt(2).
  VarRef a = pool_.Create("Normal", {0.0, 3.0}).value();
  VarRef b = pool_.Create("Normal", {0.0, 3.0}).value();
  CTable t(Schema({"v"}));
  ASSERT_TRUE(t.Append({Expr::Var(a)}).ok());
  ASSERT_TRUE(t.Append({Expr::Var(b)}).ok());
  AggregateOptions opts;
  opts.world_samples = 30000;
  AggregateEvaluator agg(&engine_, opts);
  EXPECT_NEAR(agg.SumStdDev(t, "v").value(), 3.0 * std::sqrt(2.0), 0.1);
}

TEST_F(AggregatesTest, GroupedExpectedSum) {
  // Two groups; each group's rows weighted by their own confidences.
  CTable t(Schema({"region", "v"}));
  ASSERT_TRUE(
      t.Append({Expr::String("east"), Expr::Constant(10.0)}, WithProbability(0.5))
          .ok());
  ASSERT_TRUE(t.Append({Expr::String("east"), Expr::Constant(4.0)}).ok());
  ASSERT_TRUE(
      t.Append({Expr::String("west"), Expr::Constant(8.0)}, WithProbability(0.25))
          .ok());
  AggregateEvaluator agg(&engine_);
  Table out = GroupedAggregate(agg, t, {"region"}, "v",
                               GroupAggregate::kExpectedSum)
                  .value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_NEAR(out.Get(0, "expected_sum(v)").value().double_value(), 9.0,
              1e-9);
  EXPECT_NEAR(out.Get(1, "expected_sum(v)").value().double_value(), 2.0,
              1e-9);
}

TEST_F(AggregatesTest, GroupedCountAndMax) {
  CTable t(Schema({"g", "v"}));
  ASSERT_TRUE(
      t.Append({Expr::String("a"), Expr::Constant(3.0)}, WithProbability(0.5))
          .ok());
  ASSERT_TRUE(t.Append({Expr::String("a"), Expr::Constant(1.0)}).ok());
  AggregateEvaluator agg(&engine_);
  Table counts =
      GroupedAggregate(agg, t, {"g"}, "v", GroupAggregate::kExpectedCount)
          .value();
  EXPECT_NEAR(counts.row(0)[1].double_value(), 1.5, 1e-9);
  Table maxima =
      GroupedAggregate(agg, t, {"g"}, "v", GroupAggregate::kExpectedMax)
          .value();
  // E[max] = 3*0.5 + 1*0.5 = 2.
  EXPECT_NEAR(maxima.row(0)[1].double_value(), 2.0, 1e-9);
}

TEST_F(AggregatesTest, GroupedAggregateRejectsProbabilisticKeys) {
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  CTable t(Schema({"g", "v"}));
  ASSERT_TRUE(t.Append({Expr::Var(x), Expr::Constant(1.0)}).ok());
  AggregateEvaluator agg(&engine_);
  EXPECT_FALSE(
      GroupedAggregate(agg, t, {"g"}, "v", GroupAggregate::kExpectedSum)
          .ok());
}

TEST(HistogramTest, BuildsCountsCorrectly) {
  std::vector<double> samples = {0.0, 0.1, 0.2, 0.9, 1.0};
  Histogram h = BuildHistogram(samples, 2);
  EXPECT_EQ(h.lo, 0.0);
  EXPECT_EQ(h.hi, 1.0);
  ASSERT_EQ(h.counts.size(), 2u);
  EXPECT_EQ(h.counts[0], 3u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(HistogramTest, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(BuildHistogram({}, 4).counts.empty());
  Histogram h = BuildHistogram({2.0, 2.0}, 3);
  EXPECT_EQ(h.total(), 2u);  // Degenerate range widened internally.
}

TEST(HistogramTest, ToStringRenders) {
  Histogram h = BuildHistogram({1.0, 2.0, 3.0}, 3);
  EXPECT_FALSE(h.ToString().empty());
}

}  // namespace
}  // namespace pip
