#include "src/sampling/expectation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/common/special_math.h"

namespace pip {
namespace {

/// Mean of a Normal(mu, sigma) truncated to [a, b].
double TruncatedNormalMean(double mu, double sigma, double a, double b) {
  double alpha = (a - mu) / sigma, beta = (b - mu) / sigma;
  double z = NormalCdf(beta) - NormalCdf(alpha);
  return mu + sigma * (NormalPdf(alpha) - NormalPdf(beta)) / z;
}

class ExpectationTest : public ::testing::Test {
 protected:
  VariablePool pool_{2024};
};

TEST_F(ExpectationTest, DeterministicExpressionShortCircuits) {
  SamplingEngine engine(&pool_);
  auto r = engine.Expectation(Expr::Constant(3.5), Condition::True(), true)
               .value();
  EXPECT_EQ(r.expectation, 3.5);
  EXPECT_EQ(r.probability, 1.0);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.samples_used, 0u);
}

TEST_F(ExpectationTest, KnownFalseConditionYieldsNanZero) {
  SamplingEngine engine(&pool_);
  auto r =
      engine.Expectation(Expr::Constant(1.0), Condition::False(), true).value();
  EXPECT_TRUE(std::isnan(r.expectation));
  EXPECT_EQ(r.probability, 0.0);
}

TEST_F(ExpectationTest, UnsatisfiableContinuousConditionYieldsNanZero) {
  VarRef u = pool_.Create("Uniform", {0.0, 1.0}).value();
  SamplingEngine engine(&pool_);
  Condition c(Expr::Var(u) > Expr::Constant(2.0));
  auto r = engine.Expectation(Expr::Var(u), c, true).value();
  EXPECT_TRUE(std::isnan(r.expectation));
  EXPECT_EQ(r.probability, 0.0);
}

TEST_F(ExpectationTest, UnconstrainedMeanIsIntegratedExactly) {
  // Single-variable targets sidestep sampling entirely via quadrature.
  VarRef x = pool_.Create("Normal", {5.0, 2.0}).value();
  SamplingEngine engine(&pool_);
  auto r = engine.Expectation(Expr::Var(x), Condition::True(), false).value();
  EXPECT_NEAR(r.expectation, 5.0, 1e-8);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.samples_used, 0u);
}

TEST_F(ExpectationTest, UnconstrainedMeanMatchesDistribution) {
  VarRef x = pool_.Create("Normal", {5.0, 2.0}).value();
  SamplingOptions opts;
  opts.fixed_samples = 20000;
  opts.use_numeric_integration = false;  // Exercise the sampling path.
  SamplingEngine engine(&pool_, opts);
  auto r = engine.Expectation(Expr::Var(x), Condition::True(), false).value();
  EXPECT_NEAR(r.expectation, 5.0, 0.06);
  EXPECT_EQ(r.samples_used, 20000u);
}

// Paper Example 4.1: Normal variable with condition (Y > -3) AND (Y < 2).
// With sigma = 10 the condition probability is ~0.17 (the paper's number);
// PIP computes it *exactly* via the CDF, and the conditional expectation
// matches the truncated-normal closed form.
TEST_F(ExpectationTest, PaperExample41) {
  VarRef y = pool_.Create("Normal", {5.0, 10.0}).value();
  Condition c;
  c.AddAtom(Expr::Var(y) > Expr::Constant(-3.0));
  c.AddAtom(Expr::Var(y) < Expr::Constant(2.0));

  SamplingOptions opts;
  opts.fixed_samples = 30000;
  SamplingEngine engine(&pool_, opts);
  auto r = engine.Expectation(Expr::Var(y), c, true).value();

  double exact_p = NormalCdf((2.0 - 5.0) / 10.0) - NormalCdf((-3.0 - 5.0) / 10.0);
  EXPECT_NEAR(exact_p, 0.17, 0.001);          // The paper's ~0.17.
  EXPECT_NEAR(r.probability, exact_p, 1e-12);  // Exact via CDF window.
  double exact_mean = TruncatedNormalMean(5.0, 10.0, -3.0, 2.0);
  EXPECT_NEAR(r.expectation, exact_mean, 0.05);
}

TEST_F(ExpectationTest, CdfConstrainedSamplingWastesNoSamples) {
  // With inverse-CDF windows, every draw lands inside the bounds: attempts
  // == accepted samples even for a 1-in-a-million condition.
  VarRef y = pool_.Create("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(y) > Expr::Constant(4.75));  // P ~ 1e-6.
  SamplingOptions opts;
  opts.fixed_samples = 2000;
  opts.use_numeric_integration = false;  // Exercise the CDF-window sampler.
  SamplingEngine engine(&pool_, opts);
  auto r = engine.Expectation(Expr::Var(y), c, true).value();
  EXPECT_EQ(r.samples_used, 2000u);
  EXPECT_EQ(r.attempts, 2000u);  // Zero rejections.
  EXPECT_GE(r.expectation, 4.75);
  double exact_p = 1.0 - NormalCdf(4.75);
  EXPECT_NEAR(r.probability, exact_p, 1e-9);
}

TEST_F(ExpectationTest, CdfSamplingDisabledFallsBackToRejection) {
  VarRef y = pool_.Create("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(y) > Expr::Constant(1.0));  // P ~ 0.159.
  SamplingOptions opts;
  opts.fixed_samples = 500;
  opts.use_cdf_sampling = false;
  opts.use_exact_cdf = false;
  opts.use_metropolis = false;
  SamplingEngine engine(&pool_, opts);
  auto r = engine.Expectation(Expr::Var(y), c, true).value();
  EXPECT_GT(r.attempts, r.samples_used * 4);  // ~6.3 attempts per sample.
  double exact_mean = TruncatedNormalMean(0.0, 1.0, 1.0, 100.0);
  EXPECT_NEAR(r.expectation, exact_mean, 0.1);
  EXPECT_NEAR(r.probability, 1.0 - NormalCdf(1.0), 0.05);
}

// The paper's Example 3.1 / introduction: the profit variable is
// independent of the shipping time, so PIP samples the profit
// unconstrained while the shipping-time group is integrated exactly.
TEST_F(ExpectationTest, IndependenceDecouplesTargetFromCondition) {
  VarRef price = pool_.Create("Normal", {100.0, 10.0}).value();
  VarRef duration = pool_.Create("Normal", {5.0, 1.0}).value();
  Condition c(Expr::Var(duration) >= Expr::Constant(7.0));
  SamplingOptions opts;
  opts.fixed_samples = 5000;
  opts.use_numeric_integration = false;  // Exercise group decomposition.
  SamplingEngine engine(&pool_, opts);
  auto r = engine.Expectation(Expr::Var(price), c, true).value();
  // E[price | duration >= 7] = E[price] by independence.
  EXPECT_NEAR(r.expectation, 100.0, 1.0);
  // P[duration >= 7] = 1 - Phi(2), exactly (separate group, CDF path).
  EXPECT_NEAR(r.probability, 1.0 - NormalCdf(2.0), 1e-12);
  // No sampling effort wasted on the rare condition.
  EXPECT_EQ(r.attempts, 5000u);
}

TEST_F(ExpectationTest, TwoVariableAtomForcesJointSampling) {
  // X, Y iid N(0,1): E[X | X > Y] = 1/sqrt(pi).
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  VarRef y = pool_.Create("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) > Expr::Var(y));
  SamplingOptions opts;
  opts.fixed_samples = 40000;
  SamplingEngine engine(&pool_, opts);
  auto r = engine.Expectation(Expr::Var(x), c, true).value();
  EXPECT_NEAR(r.expectation, 1.0 / std::sqrt(M_PI), 0.02);
  EXPECT_NEAR(r.probability, 0.5, 0.02);
}

TEST_F(ExpectationTest, MetropolisKicksInForTinyAcceptance) {
  // X - Y > 5.5 for iid N(0,1): acceptance ~5e-5; rejection sampling
  // would need ~20k attempts per sample. The Metropolis switch makes this
  // tractable; the conditional mean of X - Y is ~5.83.
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  VarRef y = pool_.Create("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) - Expr::Var(y) > Expr::Constant(5.5));
  SamplingOptions opts;
  opts.fixed_samples = 3000;
  SamplingEngine engine(&pool_, opts);
  auto r =
      engine.Expectation(Expr::Var(x) - Expr::Var(y), c, false).value();
  EXPECT_EQ(r.samples_used, 3000u);
  EXPECT_NEAR(r.expectation, 5.83, 0.25);
}

TEST_F(ExpectationTest, MetropolisDisabledStillSoundViaRejection) {
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  VarRef y = pool_.Create("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) - Expr::Var(y) > Expr::Constant(2.0));
  SamplingOptions opts;
  opts.fixed_samples = 2000;
  opts.use_metropolis = false;
  SamplingEngine engine(&pool_, opts);
  auto r =
      engine.Expectation(Expr::Var(x) - Expr::Var(y), c, true).value();
  // E[X - Y | X - Y > 2] for N(0, sqrt(2)).
  double sigma = std::sqrt(2.0);
  double exact = TruncatedNormalMean(0.0, sigma, 2.0, 1e9);
  EXPECT_NEAR(r.expectation, exact, 0.1);
  EXPECT_NEAR(r.probability, 1.0 - NormalCdf(2.0 / sigma), 0.02);
}

TEST_F(ExpectationTest, PoissonExactTailProbabilities) {
  // Strictness on the integer lattice: P[X > 7] != P[X >= 7].
  VarRef p = pool_.Create("Poisson", {4.0}).value();
  SamplingEngine engine(&pool_);
  auto gt = engine.Confidence(Condition(Expr::Var(p) > Expr::Constant(7.0)))
                .value();
  auto ge = engine.Confidence(Condition(Expr::Var(p) >= Expr::Constant(7.0)))
                .value();
  EXPECT_TRUE(gt.exact);
  EXPECT_TRUE(ge.exact);
  EXPECT_NEAR(gt.probability, 1.0 - PoissonCdf(4.0, 7.0), 1e-12);
  EXPECT_NEAR(ge.probability, 1.0 - PoissonCdf(4.0, 6.0), 1e-12);
  EXPECT_GT(ge.probability, gt.probability);
}

TEST_F(ExpectationTest, PoissonEqualityUsesPmf) {
  VarRef p = pool_.Create("Poisson", {4.0}).value();
  SamplingEngine engine(&pool_);
  auto eq = engine.Confidence(Condition(Expr::Var(p) == Expr::Constant(3.0)))
                .value();
  EXPECT_TRUE(eq.exact);
  EXPECT_NEAR(eq.probability, std::exp(PoissonLogPmf(4.0, 3)), 1e-12);
}

TEST_F(ExpectationTest, InfiniteBoundsAreBoundsOnTheLattice) {
  // No lattice value lies beyond +inf or below -inf: those bands are
  // empty, exactly and without a draw, while X < +inf and X > -inf hold
  // everywhere.
  const double inf = std::numeric_limits<double>::infinity();
  ExprPtr x = Expr::Var(pool_.Create("Poisson", {4.0}).value());
  SamplingEngine engine(&pool_);
  for (const ConstraintAtom& empty :
       {x > Expr::Constant(inf), x >= Expr::Constant(inf),
        x < Expr::Constant(-inf), x <= Expr::Constant(-inf)}) {
    SCOPED_TRACE(empty.ToString());
    auto conf = engine.Confidence(Condition(empty)).value();
    EXPECT_EQ(conf.probability, 0.0);
    EXPECT_TRUE(conf.exact);
    auto e = engine.Expectation(x, Condition(empty), true).value();
    EXPECT_TRUE(std::isnan(e.expectation));
    EXPECT_EQ(e.probability, 0.0);
    EXPECT_EQ(e.attempts, 0u);
  }
  for (const ConstraintAtom& all :
       {x < Expr::Constant(inf), x > Expr::Constant(-inf)}) {
    SCOPED_TRACE(all.ToString());
    EXPECT_EQ(engine.Confidence(Condition(all)).value().probability, 1.0);
  }
}

TEST_F(ExpectationTest, BeyondInfinityDrawsNothingUnderEveryToggle) {
  // X > +inf holds for no real X, so the answer is exact and costs no
  // attempt, even where the only other route would be sampling: beside a
  // product atom, or with exact CDFs or Metropolis switched off.
  const double inf = std::numeric_limits<double>::infinity();
  ExprPtr x = Expr::Var(pool_.Create("Normal", {0.0, 1.0}).value());
  ExprPtr y = Expr::Var(pool_.Create("Normal", {0.0, 1.0}).value());
  const Condition lone(x > Expr::Constant(inf));
  const Condition with_product =
      lone.And(Condition(x * y > Expr::Constant(3.0)));
  for (int toggle = 0; toggle < 3; ++toggle) {
    SamplingOptions options;
    options.use_exact_cdf = toggle != 1;
    options.use_metropolis = toggle != 2;
    SamplingEngine engine(&pool_, options);
    for (const Condition* condition : {&lone, &with_product}) {
      SCOPED_TRACE(condition->ToString() + " toggle " +
                   std::to_string(toggle));
      auto e = engine.Expectation(x, *condition, true).value();
      EXPECT_TRUE(std::isnan(e.expectation));
      EXPECT_EQ(e.probability, 0.0);
      EXPECT_EQ(e.attempts, 0u);
      EXPECT_TRUE(e.exact);
    }
  }
}

TEST_F(ExpectationTest, ClosedFormAnswersTheMonolithicGroup) {
  // With use_independence off the one group is still an exact-CDF band
  // when the condition holds one variable, and ClosedForm serves it with
  // the engine's own bits.
  ExprPtr x = Expr::Var(pool_.Create("Normal", {5.0, 2.0}).value());
  Condition band = Condition(x > Expr::Constant(4.0))
                       .And(Condition(x <= Expr::Constant(7.0)));
  SamplingOptions options;
  options.use_independence = false;
  SamplingEngine engine(&pool_, options);
  auto closed = engine.ClosedForm(nullptr, band, true).value();
  ASSERT_TRUE(closed.has_value());
  auto direct = engine.Confidence(band).value();
  EXPECT_TRUE(closed->exact);
  EXPECT_EQ(closed->probability, direct.probability);
  EXPECT_NEAR(closed->probability, NormalCdf(1.0) - NormalCdf(-0.5), 1e-12);
}

TEST_F(ExpectationTest, ConfidenceOfConjunctionAcrossGroups) {
  // Independent groups multiply: P[X > 0] * P[U < 0.25].
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  VarRef u = pool_.Create("Uniform", {0.0, 1.0}).value();
  Condition c;
  c.AddAtom(Expr::Var(x) > Expr::Constant(0.0));
  c.AddAtom(Expr::Var(u) < Expr::Constant(0.25));
  SamplingEngine engine(&pool_);
  auto r = engine.Confidence(c).value();
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.probability, 0.5 * 0.25, 1e-12);
}

TEST_F(ExpectationTest, AdaptiveStoppingUsesFewerSamplesForEasyQueries) {
  VarRef x = pool_.Create("Normal", {100.0, 0.1}).value();  // Tiny CV.
  SamplingOptions opts;
  opts.delta = 0.01;
  SamplingEngine engine(&pool_, opts);
  auto r = engine.Expectation(Expr::Var(x), Condition::True(), false).value();
  EXPECT_NEAR(r.expectation, 100.0, 0.1);
  EXPECT_LT(r.samples_used, 200u);  // Converges almost immediately.
}

TEST_F(ExpectationTest, ResultsAreReplayDeterministic) {
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) > Expr::Constant(0.5));
  SamplingOptions opts;
  opts.fixed_samples = 500;
  SamplingEngine a(&pool_, opts), b(&pool_, opts);
  auto ra = a.Expectation(Expr::Var(x), c, true).value();
  auto rb = b.Expectation(Expr::Var(x), c, true).value();
  EXPECT_EQ(ra.expectation, rb.expectation);
  EXPECT_EQ(ra.probability, rb.probability);
}

TEST_F(ExpectationTest, SampleOffsetGivesFreshDraws) {
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  SamplingOptions opts;
  opts.fixed_samples = 100;
  opts.use_numeric_integration = false;
  SamplingEngine a(&pool_, opts);
  opts.sample_offset = 1000000;
  SamplingEngine b(&pool_, opts);
  auto ra = a.Expectation(Expr::Var(x), Condition::True(), false).value();
  auto rb = b.Expectation(Expr::Var(x), Condition::True(), false).value();
  EXPECT_NE(ra.expectation, rb.expectation);
}

TEST_F(ExpectationTest, MultivariateCorrelationSurvivesConditioning) {
  // (A, B) bivariate normal with strong positive correlation; E[B | A > 1]
  // must be pulled up even though the atom only mentions A.
  VarRef a =
      pool_.Create("MVNormal", {2.0, 0.0, 0.0, 1.0, 0.9, 0.9, 1.0}).value();
  VarRef b = pool_.Component(a, 1).value();
  Condition c(Expr::Var(a) > Expr::Constant(1.0));
  SamplingOptions opts;
  opts.fixed_samples = 20000;
  SamplingEngine engine(&pool_, opts);
  auto r = engine.Expectation(Expr::Var(b), c, true).value();
  // E[B | A > 1] = rho * E[A | A > 1] = 0.9 * phi(1)/Q(1) ~ 0.9 * 1.5251.
  double expected = 0.9 * NormalPdf(1.0) / (1.0 - NormalCdf(1.0));
  EXPECT_NEAR(r.expectation, expected, 0.05);
  EXPECT_NEAR(r.probability, 1.0 - NormalCdf(1.0), 0.01);
}

TEST_F(ExpectationTest, SampleConditionalRespectsCondition) {
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  Condition c;
  c.AddAtom(Expr::Var(x) > Expr::Constant(0.5));
  c.AddAtom(Expr::Var(x) < Expr::Constant(1.5));
  SamplingEngine engine(&pool_);
  auto samples = engine.SampleConditional(Expr::Var(x), c, 500).value();
  ASSERT_EQ(samples.size(), 500u);
  for (double s : samples) {
    EXPECT_GT(s, 0.5);
    EXPECT_LT(s, 1.5);
  }
}

TEST_F(ExpectationTest, SampleConditionalUnsatisfiableIsEmpty) {
  VarRef u = pool_.Create("Uniform", {0.0, 1.0}).value();
  Condition c(Expr::Var(u) > Expr::Constant(5.0));
  SamplingEngine engine(&pool_);
  EXPECT_TRUE(engine.SampleConditional(Expr::Var(u), c, 10).value().empty());
}

TEST_F(ExpectationTest, JointConfidenceComplementaryHalves) {
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  std::vector<Condition> disjuncts = {
      Condition(Expr::Var(x) > Expr::Constant(0.0)),
      Condition(Expr::Var(x) < Expr::Constant(0.0))};
  SamplingEngine engine(&pool_);
  EXPECT_NEAR(engine.JointConfidence(disjuncts).value(), 1.0, 1e-9);
}

TEST_F(ExpectationTest, JointConfidenceInclusionExclusion) {
  // P[X > 0 or Y > 0] = 0.75 for independent standard normals.
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  VarRef y = pool_.Create("Normal", {0.0, 1.0}).value();
  std::vector<Condition> disjuncts = {
      Condition(Expr::Var(x) > Expr::Constant(0.0)),
      Condition(Expr::Var(y) > Expr::Constant(0.0))};
  SamplingEngine engine(&pool_);
  EXPECT_NEAR(engine.JointConfidence(disjuncts).value(), 0.75, 1e-9);
}

TEST_F(ExpectationTest, JointConfidenceManyDisjunctsMonteCarlo) {
  // 8 disjuncts forces the MC path: X > k for k = 0..7 reduces to X > 0.
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  std::vector<Condition> disjuncts;
  for (int k = 0; k < 8; ++k) {
    disjuncts.emplace_back(Expr::Var(x) >
                           Expr::Constant(static_cast<double>(k)));
  }
  SamplingOptions opts;
  opts.fixed_samples = 20000;
  SamplingEngine engine(&pool_, opts);
  EXPECT_NEAR(engine.JointConfidence(disjuncts).value(), 0.5, 0.02);
}

TEST_F(ExpectationTest, JointConfidenceEdgeCases) {
  SamplingEngine engine(&pool_);
  EXPECT_EQ(engine.JointConfidence({}).value(), 0.0);
  EXPECT_EQ(engine.JointConfidence({Condition::False()}).value(), 0.0);
  EXPECT_EQ(engine.JointConfidence({Condition::True(), Condition::False()})
                .value(),
            1.0);
}

TEST_F(ExpectationTest, BetaVariableExactTail) {
  VarRef b = pool_.Create("Beta", {2.0, 3.0}).value();
  SamplingEngine engine(&pool_);
  auto r = engine.Confidence(Condition(Expr::Var(b) > Expr::Constant(0.5)))
               .value();
  EXPECT_TRUE(r.exact);
  // P[Beta(2,3) > 0.5] = 1 - I_{0.5}(2,3) = 1 - 11/16.
  EXPECT_NEAR(r.probability, 1.0 - 11.0 / 16.0, 1e-9);
}

TEST_F(ExpectationTest, StudentTSymmetricTails) {
  VarRef t = pool_.Create("StudentT", {5.0}).value();
  SamplingEngine engine(&pool_);
  auto upper =
      engine.Confidence(Condition(Expr::Var(t) > Expr::Constant(2.0)))
          .value();
  auto lower =
      engine.Confidence(Condition(Expr::Var(t) < Expr::Constant(-2.0)))
          .value();
  EXPECT_TRUE(upper.exact);
  EXPECT_NEAR(upper.probability, lower.probability, 1e-10);
  // t_{0.95, 5} ~ 2.015: P[T > 2.0] slightly above 0.05.
  EXPECT_NEAR(upper.probability, 0.0510, 0.001);
}

TEST_F(ExpectationTest, MaxTotalAttemptsBudgetGivesNan) {
  // A satisfiable-but-astronomically-rare two-variable condition exhausts
  // the attempt budget and must report (NAN, 0) rather than hang: both
  // variables lack a PDF-free fallback here because we disable Metropolis.
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  VarRef y = pool_.Create("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) - Expr::Var(y) > Expr::Constant(14.0));
  SamplingOptions opts;
  opts.fixed_samples = 10;
  opts.use_metropolis = false;
  opts.max_total_attempts = 20000;
  SamplingEngine engine(&pool_, opts);
  auto r = engine.Expectation(Expr::Var(x), c, true).value();
  EXPECT_TRUE(std::isnan(r.expectation));
  EXPECT_EQ(r.probability, 0.0);
}

TEST_F(ExpectationTest, ConfidenceOfTrueConditionIsOne) {
  SamplingEngine engine(&pool_);
  auto r = engine.Confidence(Condition::True()).value();
  EXPECT_EQ(r.probability, 1.0);
  EXPECT_TRUE(r.exact);
}

TEST_F(ExpectationTest, ExpressionOverConditionedAndFreeVariables) {
  // Target mixes a conditioned variable and a free one: X * U with
  // X | X > 1 and U unconstrained uniform. E = E[X | X>1] * E[U].
  VarRef x = pool_.Create("Normal", {0.0, 1.0}).value();
  VarRef u = pool_.Create("Uniform", {0.0, 2.0}).value();
  Condition c(Expr::Var(x) > Expr::Constant(1.0));
  SamplingOptions opts;
  opts.fixed_samples = 30000;
  SamplingEngine engine(&pool_, opts);
  auto r =
      engine.Expectation(Expr::Var(x) * Expr::Var(u), c, false).value();
  double ex = TruncatedNormalMean(0.0, 1.0, 1.0, 1e9);
  EXPECT_NEAR(r.expectation, ex * 1.0, 0.05);
}

}  // namespace
}  // namespace pip
