#include "src/engine/query.h"

#include <gtest/gtest.h>

#include "src/sampling/aggregates.h"

namespace pip {
namespace {

using CE = ColExpr;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : db_(4242) {
    Table orders(Schema({"cust", "dest", "price"}));
    PIP_CHECK(orders.Append({Value("Joe"), Value("NY"), Value(100.0)}).ok());
    PIP_CHECK(orders.Append({Value("Bob"), Value("LA"), Value(250.0)}).ok());
    PIP_CHECK(db_.RegisterTable("orders", orders).ok());
  }
  Database db_;
};

TEST_F(EngineTest, RegisterAndScan) {
  EXPECT_TRUE(db_.HasTable("orders"));
  EXPECT_FALSE(db_.HasTable("nope"));
  EXPECT_EQ(db_.GetTable("orders").value()->num_rows(), 2u);
  EXPECT_EQ(db_.GetTable("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, DuplicateRegistrationRejected) {
  Table t(Schema({"a"}));
  EXPECT_EQ(db_.RegisterTable("orders", t).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, MaterializeViewReplaces) {
  CTable view(Schema({"v"}));
  PIP_CHECK(view.Append({Expr::Constant(1.0)}).ok());
  db_.MaterializeView("orders", view);
  EXPECT_EQ(db_.GetTable("orders").value()->schema().ToString(), "(v)");
}

TEST_F(EngineTest, WhereMovesDeterministicFilters) {
  CTable t = Select(*db_.GetTable("orders").value(),
                    {CE::Column("cust") == CE::Literal("Joe")})
                 .value();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.row(0).condition.IsTrue());
}

TEST_F(EngineTest, WhereMovesProbabilisticAtomsIntoConditions) {
  VarRef noise = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  CTable noisy =
      Project(*db_.GetTable("orders").value(),
              {{"cust", CE::Column("cust")},
               {"noisy_price",
                CE::Column("price") + CE::Embed(Expr::Var(noise))}})
          .value();
  CTable t =
      Select(noisy, {CE::Column("noisy_price") > CE::Literal(150.0)}).value();
  ASSERT_EQ(t.num_rows(), 2u);
  // The atom over the probabilistic column became a row condition (the
  // paper's CTYPE rewriting); deterministic evaluation is deferred.
  EXPECT_EQ(t.row(0).condition.size(), 1u);
}

TEST_F(EngineTest, ChainedPlanProducesExpectedRows) {
  Table shipping(Schema({"dest", "days"}));
  PIP_CHECK(shipping.Append({Value("NY"), Value(3.0)}).ok());
  PIP_CHECK(shipping.Append({Value("LA"), Value(9.0)}).ok());
  PIP_CHECK(db_.RegisterTable("shipping", shipping).ok());
  CTable joined = Join(*db_.GetTable("orders").value(),
                       *db_.GetTable("shipping").value(),
                       {CE::Column("dest") == CE::Column("dest_2")}, "")
                      .value();
  CTable slow = Select(joined, {CE::Column("days") > CE::Literal(5.0)}).value();
  CTable t = Project(slow, {{"cust", CE::Column("cust")}}).value();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0).cells[0]->value(), Value("Bob"));
}

TEST_F(EngineTest, AnalyzeProducesExpectationsAndConfidence) {
  VarRef price = db_.CreateVariable("Normal", {100.0, 5.0}).value();
  VarRef u = db_.CreateVariable("Uniform", {0.0, 1.0}).value();
  CTable t(Schema({"name", "price"}));
  PIP_CHECK(t.Append({Expr::String("widget"), Expr::Var(price)},
                     Condition(Expr::Var(u) < Expr::Constant(0.25)))
                .ok());
  SamplingOptions opts;
  opts.fixed_samples = 20000;
  SamplingEngine engine = db_.MakeEngine(opts);
  AnalyzeSpec spec;
  spec.passthrough_columns = {"name"};
  spec.expectation_columns = {"price"};
  Table out = Analyze(t, engine, spec).value();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Get(0, "name").value(), Value("widget"));
  EXPECT_NEAR(out.Get(0, "E[price]").value().double_value(), 100.0, 0.5);
  EXPECT_NEAR(out.Get(0, "conf").value().double_value(), 0.25, 1e-9);
}

TEST_F(EngineTest, AnalyzeDropsUnsatisfiableRows) {
  VarRef u = db_.CreateVariable("Uniform", {0.0, 1.0}).value();
  CTable t(Schema({"v"}));
  PIP_CHECK(t.Append({Expr::Constant(1.0)},
                     Condition(Expr::Var(u) > Expr::Constant(2.0)))
                .ok());
  PIP_CHECK(t.Append({Expr::Constant(2.0)}).ok());
  SamplingEngine engine = db_.MakeEngine();
  AnalyzeSpec spec;
  spec.expectation_columns = {"v"};
  Table out = Analyze(t, engine, spec).value();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Get(0, "E[v]").value().double_value(), 2.0);
}

TEST_F(EngineTest, AnalyzeConfidenceOnlyMode) {
  VarRef u = db_.CreateVariable("Uniform", {0.0, 1.0}).value();
  CTable t(Schema({"tag"}));
  PIP_CHECK(t.Append({Expr::String("a")},
                     Condition(Expr::Var(u) < Expr::Constant(0.4)))
                .ok());
  SamplingEngine engine = db_.MakeEngine();
  AnalyzeSpec spec;
  spec.passthrough_columns = {"tag"};
  Table out = Analyze(t, engine, spec).value();
  EXPECT_NEAR(out.Get(0, "conf").value().double_value(), 0.4, 1e-9);
}

TEST_F(EngineTest, AnalyzeJointConfidenceGroupsDisjuncts) {
  // Two rows with identical data and complementary conditions: aconf = 1.
  VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  CTable t(Schema({"tag"}));
  PIP_CHECK(t.Append({Expr::String("a")},
                     Condition(Expr::Var(x) > Expr::Constant(0.0)))
                .ok());
  PIP_CHECK(t.Append({Expr::String("a")},
                     Condition(Expr::Var(x) < Expr::Constant(0.0)))
                .ok());
  PIP_CHECK(t.Append({Expr::String("b")},
                     Condition(Expr::Var(x) > Expr::Constant(1.0)))
                .ok());
  SamplingEngine engine = db_.MakeEngine();
  Table out = AnalyzeJointConfidence(t, engine).value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_NEAR(out.Get(0, "aconf").value().double_value(), 1.0, 1e-9);
  EXPECT_NEAR(out.Get(1, "aconf").value().double_value(),
              1.0 - 0.8413447460685429, 1e-6);
}

TEST_F(EngineTest, RunningExampleEndToEnd) {
  // The paper's introduction query, through the full engine:
  //   expected loss from late deliveries to Joe.
  Database db(99);
  VarRef price = db.CreateVariable("Normal", {100.0, 15.0}).value();
  VarRef duration_ny = db.CreateVariable("Normal", {5.0, 1.0}).value();
  VarRef price_bob = db.CreateVariable("Normal", {300.0, 20.0}).value();
  VarRef duration_la = db.CreateVariable("Normal", {4.0, 2.0}).value();

  CTable orders(Schema({"cust", "ship_to", "price"}));
  PIP_CHECK(orders.Append({Expr::String("Joe"), Expr::String("NY"),
                           Expr::Var(price)})
                .ok());
  PIP_CHECK(orders.Append({Expr::String("Bob"), Expr::String("LA"),
                           Expr::Var(price_bob)})
                .ok());
  CTable shipping(Schema({"dest", "duration"}));
  PIP_CHECK(shipping.Append({Expr::String("NY"), Expr::Var(duration_ny)}).ok());
  PIP_CHECK(shipping.Append({Expr::String("LA"), Expr::Var(duration_la)}).ok());
  PIP_CHECK(db.RegisterCTable("orders", orders).ok());
  PIP_CHECK(db.RegisterCTable("shipping", shipping).ok());

  CTable late = Join(*db.GetTable("orders").value(),
                     *db.GetTable("shipping").value(),
                     {CE::Column("ship_to") == CE::Column("dest"),
                      CE::Column("duration") >= CE::Literal(7.0)})
                    .value();
  CTable joe = Select(late, {CE::Column("cust") == CE::Literal("Joe")}).value();
  CTable result = Project(joe, {{"price", CE::Column("price")}}).value();
  ASSERT_EQ(result.num_rows(), 1u);

  SamplingOptions opts;
  opts.fixed_samples = 5000;
  SamplingEngine engine = db.MakeEngine(opts);
  AggregateEvaluator agg(&engine);
  double loss = agg.ExpectedSum(result, "price").value();
  // E[price] * P[duration >= 7] = 100 * (1 - Phi(2)); price independent.
  double expected = 100.0 * (1.0 - 0.9772498680518208);
  EXPECT_NEAR(loss, expected, 0.3);
}

}  // namespace
}  // namespace pip
