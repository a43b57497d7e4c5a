/// \file integration_test.cc
/// \brief Cross-module integration and property tests.
///
/// Three pillars:
///   1. Possible-world equivalence: for discrete-variable databases the
///      full distribution is enumerable, so symbolic query + expectation
///      operators can be checked *exactly* against brute-force enumeration
///      over all worlds.
///   2. Strategy agreement: the same conditional expectation computed via
///      CDF-window sampling, plain rejection and Metropolis must agree,
///      within Monte Carlo tolerance, with numeric integration
///      (parameterized sweep across distributions and selectivities).
///   3. Engine cross-validation: PIP and Sample-First answer the same
///      query with statistically consistent results.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "src/common/special_math.h"
#include "src/ctable/algebra.h"
#include "src/engine/query.h"
#include "src/samplefirst/sf_ops.h"
#include "src/sampling/aggregates.h"

namespace pip {
namespace {

using CE = ColExpr;

// ---------------------------------------------------------------------------
// 1. Exact possible-world enumeration for finite discrete databases.
// ---------------------------------------------------------------------------

/// Enumerates all worlds of a set of finite discrete variables with their
/// probabilities and folds a callback over them.
void ForEachWorld(
    const VariablePool& pool, const std::vector<VarRef>& vars,
    const std::function<void(const Assignment&, double)>& fn) {
  std::vector<std::vector<double>> domains;
  std::vector<std::vector<double>> masses;
  for (const VarRef& v : vars) {
    const VariableInfo* info = pool.Info(v.var_id).value();
    auto domain = info->dist->DomainValues(info->params).value();
    std::vector<double> mass;
    for (double x : domain) {
      mass.push_back(info->dist->Pdf(info->params, 0, x).value());
    }
    domains.push_back(std::move(domain));
    masses.push_back(std::move(mass));
  }
  std::vector<size_t> cursor(vars.size(), 0);
  while (true) {
    Assignment world;
    double prob = 1.0;
    for (size_t i = 0; i < vars.size(); ++i) {
      world.Set(vars[i], domains[i][cursor[i]]);
      prob *= masses[i][cursor[i]];
    }
    fn(world, prob);
    size_t d = 0;
    while (d < cursor.size()) {
      if (++cursor[d] < domains[d].size()) break;
      cursor[d] = 0;
      ++d;
    }
    if (d == cursor.size()) break;
  }
}

class DiscreteWorldTest : public ::testing::Test {
 protected:
  VariablePool pool_{555};
};

TEST_F(DiscreteWorldTest, ExpectedSumMatchesEnumeration) {
  // Three dice-like variables feeding a conditioned sum.
  VarRef d1 = pool_.Create("DiscreteUniform", {1.0, 6.0}).value();
  VarRef d2 = pool_.Create("DiscreteUniform", {1.0, 6.0}).value();
  VarRef coin = pool_.Create("Bernoulli", {0.3}).value();

  CTable t(Schema({"v"}));
  // Row 1: d1, present when coin = 1.
  PIP_CHECK(t.Append({Expr::Var(d1)},
                     Condition(Expr::Var(coin) == Expr::Constant(1.0)))
                .ok());
  // Row 2: d1 + d2, present when d2 >= 4.
  PIP_CHECK(t.Append({Expr::Var(d1) + Expr::Var(d2)},
                     Condition(Expr::Var(d2) >= Expr::Constant(4.0)))
                .ok());

  // Brute-force: expected sum over all 6*6*2 worlds.
  double exact = 0.0;
  ForEachWorld(pool_, {d1, d2, coin}, [&](const Assignment& w, double p) {
    Table world = t.Instantiate(w).value();
    double sum = 0.0;
    for (const auto& row : world.rows()) sum += row[0].AsDouble().value();
    exact += p * sum;
  });

  SamplingOptions opts;
  opts.fixed_samples = 60000;
  SamplingEngine engine(&pool_, opts);
  AggregateEvaluator agg(&engine);
  EXPECT_NEAR(agg.ExpectedSum(t, "v").value(), exact, 0.03 * exact);
}

TEST_F(DiscreteWorldTest, ConfidenceMatchesEnumeration) {
  VarRef d = pool_.Create("DiscreteUniform", {1.0, 10.0}).value();
  VarRef c = pool_.Create("Categorical", {0.5, 0.3, 0.2}).value();
  Condition cond;
  cond.AddAtom(Expr::Var(d) > Expr::Constant(7.0));
  cond.AddAtom(Expr::Var(c) != Expr::Constant(0.0));

  double exact = 0.0;
  ForEachWorld(pool_, {d, c}, [&](const Assignment& w, double p) {
    if (cond.Eval(w).value()) exact += p;
  });
  // Independent groups, each integrable exactly via CDF/PMF.
  SamplingEngine engine(&pool_);
  auto r = engine.Confidence(cond).value();
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.probability, exact, 1e-9);
}

TEST_F(DiscreteWorldTest, QueryPlusExplosionMatchesEnumeration) {
  // Full pipeline: a query over a c-table with discrete variables, the
  // result exploded over `quality`, then grouped by label and aggregated,
  // against enumeration. All variables live in the database's pool (the
  // engine resolves ids against it).
  Database db(31);
  VarRef quality = db.CreateVariable("Categorical", {0.2, 0.5, 0.3}).value();
  VarRef bonus = db.CreateVariable("DiscreteUniform", {0.0, 3.0}).value();
  CTable items(Schema({"label", "payoff"}));
  PIP_CHECK(items
                .Append({Expr::String("widget"),
                         Expr::Var(quality) * Expr::Constant(10.0) +
                             Expr::Var(bonus)})
                .ok());
  PIP_CHECK(items.Append({Expr::String("gadget"),
                          Expr::Var(bonus) * Expr::Constant(2.0)})
                .ok());
  db.MaterializeView("items", items);

  CTable result = Select(*db.GetTable("items").value(),
                         {CE::Column("payoff") > CE::Literal(4.0)})
                      .value();
  // A bound of 3 valuations per row explodes quality's 3 values; bonus's
  // 4 exceed it and stay symbolic.
  CTable exploded = ExplodeDiscrete(result, *db.pool(), 3).value();
  size_t widget_rows = 0;
  for (const auto& row : exploded.rows()) {
    // Quality is substituted into the cells and kept only in the guards.
    EXPECT_FALSE(row.cells[1]->Variables().count(quality));
    if (row.cells[0]->value() == Value("widget")) ++widget_rows;
  }
  EXPECT_EQ(widget_rows, 3u);
  EXPECT_EQ(exploded.num_rows(), 4u);

  std::map<std::string, double> exact;
  ForEachWorld(*db.pool(), {quality, bonus},
               [&](const Assignment& w, double p) {
    Table world = items.Instantiate(w).value();
    for (const auto& row : world.rows()) {
      double payoff = row[1].AsDouble().value();
      if (payoff > 4.0) exact[row[0].string_value()] += p * payoff;
    }
  });

  SamplingOptions opts;
  opts.fixed_samples = 80000;
  SamplingEngine engine = db.MakeEngine(opts);
  AggregateEvaluator agg(&engine);
  Table sums = GroupedAggregate(agg, exploded, {"label"}, "payoff",
                                GroupAggregate::kExpectedSum)
                   .value();
  ASSERT_EQ(sums.num_rows(), exact.size());
  for (size_t i = 0; i < sums.num_rows(); ++i) {
    const std::string label = sums.Get(i, "label").value().string_value();
    SCOPED_TRACE(label);
    double measured =
        sums.Get(i, "expected_sum(payoff)").value().double_value();
    EXPECT_NEAR(measured, exact.at(label), 0.03 * exact.at(label));
  }
}

// ---------------------------------------------------------------------------
// 2. Strategy agreement across sampling techniques.
// ---------------------------------------------------------------------------

struct StrategyCase {
  const char* dist;
  std::vector<double> params;
  double lo, hi;  // Conditioning interval (quantile-ish range).
  /// Run the Metropolis leg. Lattice laws skip it: the chain's Gaussian
  /// proposals land off the lattice and stick (ROADMAP "Small
  /// expectations", the metropolis_normal_poisson golden pin).
  bool metropolis = true;
};

class StrategyAgreementTest : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(StrategyAgreementTest, AllStrategiesEstimateTheSameConditional) {
  const auto& c = GetParam();
  VariablePool pool(777);
  VarRef x = pool.Create(c.dist, c.params).value();
  Condition cond;
  cond.AddAtom(Expr::Var(x) > Expr::Constant(c.lo));
  cond.AddAtom(Expr::Var(x) < Expr::Constant(c.hi));

  // The reference: the default engine integrates the one-variable target
  // group (adaptive quadrature, or an exact lattice sum) without a draw.
  auto reference = SamplingEngine(&pool).Expectation(Expr::Var(x), cond,
                                                     false);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference.value().exact);
  const double exact = reference.value().expectation;

  auto run = [&](bool cdf, bool metropolis, uint64_t offset) {
    SamplingOptions opts;
    opts.fixed_samples = 40000;
    opts.use_cdf_sampling = cdf;
    opts.use_exact_cdf = false;  // Force actual sampling of the target.
    opts.use_metropolis = metropolis;
    opts.metropolis_threshold = metropolis ? 0.0 : 1.1;  // Force on/off.
    opts.metropolis_check_after = 64;
    opts.sample_offset = offset;
    SamplingEngine engine(&pool, opts);
    auto r = engine.Expectation(Expr::Var(x), cond, false);
    PIP_CHECK(r.ok());
    EXPECT_FALSE(r.value().exact);
    return r.value().expectation;
  };

  // Monte Carlo agreement within a generous band scaled to the interval.
  double scale = std::max(1.0, std::fabs(exact));
  EXPECT_NEAR(run(true, false, 0), exact, 0.04 * scale) << "window";
  EXPECT_NEAR(run(false, false, 1u << 20), exact, 0.04 * scale)
      << "rejection";
  if (c.metropolis) {
    EXPECT_NEAR(run(false, true, 2u << 20), exact, 0.06 * scale)
        << "metropolis";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Laws, StrategyAgreementTest,
    ::testing::Values(StrategyCase{"Normal", {0.0, 1.0}, 0.5, 2.0},
                      StrategyCase{"Normal", {10.0, 3.0}, 11.0, 14.0},
                      StrategyCase{"Exponential", {0.5}, 1.0, 5.0},
                      StrategyCase{"Gamma", {3.0, 2.0}, 4.0, 12.0},
                      StrategyCase{"Lognormal", {0.0, 0.5}, 1.0, 2.5},
                      StrategyCase{"Uniform", {0.0, 10.0}, 2.0, 4.0},
                      StrategyCase{"Poisson", {4.0}, 2.0, 9.0,
                                   /*metropolis=*/false}));

/// Exact CDF integration agrees with the closed form across distributions
/// and selectivities (parameterized sweep of the Fig. 8 machinery).
class ExactTailTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ExactTailTest, NormalTailProbabilityExact) {
  auto [mu, quantile] = GetParam();
  VariablePool pool(888);
  VarRef x = pool.Create("Normal", {mu, 2.0}).value();
  double threshold = mu + 2.0 * NormalQuantile(quantile);
  SamplingEngine engine(&pool);
  auto r = engine.Confidence(Condition(Expr::Var(x) > Expr::Constant(threshold)))
               .value();
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.probability, 1.0 - quantile, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactTailTest,
    ::testing::Combine(::testing::Values(-5.0, 0.0, 100.0),
                       ::testing::Values(0.5, 0.9, 0.99, 0.999, 0.999999)));

// ---------------------------------------------------------------------------
// 3. Failure injection: a distribution whose Generate fails.
// ---------------------------------------------------------------------------

class FailingDistribution : public Distribution {
 public:
  const std::string& name() const override {
    static const std::string n = "FailingDist";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kContinuous; }
  Status ValidateParams(const std::vector<double>&) const override {
    return Status::OK();
  }
  Status GenerateJoint(const std::vector<double>&, const SampleContext&,
                       std::vector<double>*) const override {
    return Status::Internal("injected generator failure");
  }
};

TEST(FailureInjectionTest, GeneratorErrorsPropagateAsStatus) {
  static bool registered = [] {
    PIP_CHECK(DistributionRegistry::Global()
                  .Register(std::make_unique<FailingDistribution>())
                  .ok());
    return true;
  }();
  (void)registered;
  VariablePool pool(1);
  VarRef x = pool.Create("FailingDist", {}).value();
  SamplingOptions opts;
  opts.fixed_samples = 10;
  SamplingEngine engine(&pool, opts);
  auto r = engine.Expectation(Expr::Var(x), Condition::True(), false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(FailureInjectionTest, EvalTypeErrorsPropagate) {
  // A string-typed cell reaching arithmetic is a TypeMismatch, not a crash.
  VariablePool pool(2);
  VarRef x = pool.Create("Normal", {0.0, 1.0}).value();
  ExprPtr bad = Expr::Add(Expr::String("oops"), Expr::Var(x));
  SamplingOptions opts;
  opts.fixed_samples = 4;
  SamplingEngine engine(&pool, opts);
  auto r = engine.Expectation(bad, Condition::True(), false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeMismatch);
}

// ---------------------------------------------------------------------------
// 4. PIP vs Sample-First cross-validation on a shared query.
// ---------------------------------------------------------------------------

TEST(EngineCrossValidationTest, SelectiveSumAgreesAcrossEngines) {
  // Model: value ~ Normal(50, 10) per item, kept when value > 55.
  const size_t kItems = 20;
  // PIP side.
  VariablePool pool(4321);
  CTable ct(Schema({"v"}));
  for (size_t i = 0; i < kItems; ++i) {
    VarRef x = pool.Create("Normal", {50.0, 10.0}).value();
    PIP_CHECK(ct.Append({Expr::Var(x)},
                        Condition(Expr::Var(x) > Expr::Constant(55.0)))
                  .ok());
  }
  SamplingOptions opts;
  opts.fixed_samples = 20000;
  SamplingEngine engine(&pool, opts);
  AggregateEvaluator agg(&engine);
  double pip_sum = agg.ExpectedSum(ct, "v").value();

  // Sample-First side.
  Table params(Schema({"mu", "sigma"}));
  for (size_t i = 0; i < kItems; ++i) {
    PIP_CHECK(params.Append({Value(50.0), Value(10.0)}).ok());
  }
  auto base = samplefirst::SFTable::FromTable(params, 40000);
  auto sf = samplefirst::ParametrizeColumn(base, "v", "Normal",
                                           {"mu", "sigma"}, 9)
                .value();
  auto filtered =
      samplefirst::Filter(sf, ColPredicate{CE::Column("v") >
                                           CE::Literal(55.0)})
          .value();
  double sf_sum = samplefirst::MeanOverWorlds(
      samplefirst::PerWorldSums(filtered, "v").value());

  // Closed form: N * E[X * 1{X>55}] = N * (mu*Q + sigma*phi) at z=0.5.
  double z = 0.5;
  double exact =
      kItems * (50.0 * (1.0 - NormalCdf(z)) + 10.0 * NormalPdf(z));
  EXPECT_NEAR(pip_sum, exact, 0.02 * exact);
  EXPECT_NEAR(sf_sum, exact, 0.02 * exact);
}

}  // namespace
}  // namespace pip
