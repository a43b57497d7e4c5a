#include "src/constraints/consistency.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/constraints/independence.h"

namespace pip {
namespace {

class ConsistencyTest : public ::testing::Test {
 protected:
  VariablePool pool_{77};
  VarRef NewNormal(double mu = 0, double sigma = 1) {
    return pool_.Create("Normal", {mu, sigma}).value();
  }
  VarRef NewPoisson(double lambda = 3) {
    return pool_.Create("Poisson", {lambda}).value();
  }
  VarRef NewUniform(double lo = 0, double hi = 1) {
    return pool_.Create("Uniform", {lo, hi}).value();
  }
};

TEST_F(ConsistencyTest, EmptyConditionIsConsistent) {
  ConsistencyResult r = CheckConsistency(Condition::True(), pool_);
  EXPECT_EQ(r.verdict, ConsistencyVerdict::kConsistent);
}

TEST_F(ConsistencyTest, KnownFalseIsInconsistent) {
  ConsistencyResult r = CheckConsistency(Condition::False(), pool_);
  EXPECT_TRUE(r.inconsistent());
}

TEST_F(ConsistencyTest, DiscreteDoubleEqualityContradiction) {
  // Rule 2: X = c1 AND X = c2 with c1 != c2.
  VarRef x = NewPoisson();
  Condition c;
  c.AddAtom(Expr::Var(x) == Expr::Constant(1.0));
  c.AddAtom(Expr::Var(x) == Expr::Constant(2.0));
  EXPECT_TRUE(CheckConsistency(c, pool_).inconsistent());
}

TEST_F(ConsistencyTest, DiscreteSameEqualityIsFine) {
  VarRef x = NewPoisson();
  Condition c;
  c.AddAtom(Expr::Var(x) == Expr::Constant(2.0));
  c.AddAtom(Expr::Constant(2.0) == Expr::Var(x));  // Flipped form.
  EXPECT_FALSE(CheckConsistency(c, pool_).inconsistent());
}

TEST_F(ConsistencyTest, DiscreteEqNeConflict) {
  VarRef x = NewPoisson();
  Condition c;
  c.AddAtom(Expr::Var(x) == Expr::Constant(2.0));
  c.AddAtom(Expr::Var(x) != Expr::Constant(2.0));
  EXPECT_TRUE(CheckConsistency(c, pool_).inconsistent());
}

TEST_F(ConsistencyTest, ContinuousEqualityIsZeroMass) {
  // Rule 3: equality over a continuous variable is treated as inconsistent.
  VarRef y = NewNormal();
  Condition c(Expr::Var(y) == Expr::Constant(1.0));
  EXPECT_TRUE(CheckConsistency(c, pool_).inconsistent());
}

TEST_F(ConsistencyTest, ContinuousDisequalityIsIgnored) {
  VarRef y = NewNormal();
  Condition c(Expr::Var(y) != Expr::Constant(1.0));
  EXPECT_FALSE(CheckConsistency(c, pool_).inconsistent());
}

TEST_F(ConsistencyTest, IdentityAtoms) {
  VarRef y = NewNormal();
  Condition eq(Expr::Var(y) == Expr::Var(y));
  EXPECT_FALSE(CheckConsistency(eq, pool_).inconsistent());
  Condition ne(Expr::Var(y) != Expr::Var(y));
  EXPECT_TRUE(CheckConsistency(ne, pool_).inconsistent());
  Condition lt(Expr::Var(y) < Expr::Var(y));
  EXPECT_TRUE(CheckConsistency(lt, pool_).inconsistent());
}

TEST_F(ConsistencyTest, LinearBoundsExtracted) {
  VarRef y = NewNormal();
  Condition c;
  c.AddAtom(Expr::Var(y) > Expr::Constant(-3.0));
  c.AddAtom(Expr::Var(y) < Expr::Constant(2.0));
  ConsistencyResult r = CheckConsistency(c, pool_);
  EXPECT_EQ(r.verdict, ConsistencyVerdict::kConsistent);
  Interval b = r.BoundsFor(y);
  EXPECT_EQ(b.lo, -3.0);
  EXPECT_EQ(b.hi, 2.0);
}

TEST_F(ConsistencyTest, ContradictoryLinearBounds) {
  VarRef y = NewNormal();
  Condition c;
  c.AddAtom(Expr::Var(y) > Expr::Constant(5.0));
  c.AddAtom(Expr::Var(y) < Expr::Constant(4.0));
  EXPECT_TRUE(CheckConsistency(c, pool_).inconsistent());
}

TEST_F(ConsistencyTest, BoundPropagationThroughChain) {
  // X > 4, Y > X, Z > Y  ==>  Z > 4 after two propagation rounds.
  VarRef x = NewNormal(), y = NewNormal(), z = NewNormal();
  Condition c;
  c.AddAtom(Expr::Var(x) > Expr::Constant(4.0));
  c.AddAtom(Expr::Var(y) > Expr::Var(x));
  c.AddAtom(Expr::Var(z) > Expr::Var(y));
  ConsistencyResult r = CheckConsistency(c, pool_);
  EXPECT_EQ(r.verdict, ConsistencyVerdict::kConsistent);
  EXPECT_GE(r.BoundsFor(z).lo, 4.0);
}

TEST_F(ConsistencyTest, ChainContradictionDetected) {
  // X > 4 AND Y > X AND Y < 3 is unsatisfiable.
  VarRef x = NewNormal(), y = NewNormal();
  Condition c;
  c.AddAtom(Expr::Var(x) > Expr::Constant(4.0));
  c.AddAtom(Expr::Var(y) > Expr::Var(x));
  c.AddAtom(Expr::Var(y) < Expr::Constant(3.0));
  EXPECT_TRUE(CheckConsistency(c, pool_).inconsistent());
}

TEST_F(ConsistencyTest, WeightedLinearAtom) {
  // 2*X + 3 <= 11  =>  X <= 4.
  VarRef x = NewNormal();
  Condition c(Expr::Constant(2.0) * Expr::Var(x) + Expr::Constant(3.0) <=
              Expr::Constant(11.0));
  ConsistencyResult r = CheckConsistency(c, pool_);
  EXPECT_NEAR(r.BoundsFor(x).hi, 4.0, 1e-12);
}

TEST_F(ConsistencyTest, NegativeCoefficientFlipsBound) {
  // -2*X <= -8  =>  X >= 4.
  VarRef x = NewNormal();
  Condition c(Expr::Constant(-2.0) * Expr::Var(x) <= Expr::Constant(-8.0));
  ConsistencyResult r = CheckConsistency(c, pool_);
  EXPECT_NEAR(r.BoundsFor(x).lo, 4.0, 1e-12);
}

TEST_F(ConsistencyTest, SupportSeedsBounds) {
  // Uniform(0,1) with X > 2 is unsatisfiable thanks to support seeding.
  VarRef u = NewUniform(0, 1);
  Condition c(Expr::Var(u) > Expr::Constant(2.0));
  EXPECT_TRUE(CheckConsistency(c, pool_).inconsistent());
}

TEST_F(ConsistencyTest, SupportSeedingCanBeDisabled) {
  VarRef u = NewUniform(0, 1);
  Condition c(Expr::Var(u) > Expr::Constant(2.0));
  ConsistencyOptions opts;
  opts.use_distribution_support = false;
  EXPECT_FALSE(CheckConsistency(c, pool_, opts).inconsistent());
}

TEST_F(ConsistencyTest, NonlinearAtomsAreWeak) {
  VarRef x = NewNormal(), y = NewNormal();
  Condition c(Expr::Var(x) * Expr::Var(y) > Expr::Constant(0.0));
  ConsistencyResult r = CheckConsistency(c, pool_);
  EXPECT_EQ(r.verdict, ConsistencyVerdict::kWeaklyConsistent);
}

TEST_F(ConsistencyTest, NonlinearRefutationByInterval) {
  // X in [0,1] (support), X*X > 2 cannot hold.
  VarRef u = NewUniform(0, 1);
  Condition c(Expr::Var(u) * Expr::Var(u) > Expr::Constant(2.0));
  EXPECT_TRUE(CheckConsistency(c, pool_).inconsistent());
}

TEST_F(ConsistencyTest, ExponentialSupportUsed) {
  // Exponential is nonnegative: X < -1 unsatisfiable.
  VarRef e = pool_.Create("Exponential", {1.0}).value();
  Condition c(Expr::Var(e) < Expr::Constant(-1.0));
  EXPECT_TRUE(CheckConsistency(c, pool_).inconsistent());
}

TEST_F(ConsistencyTest, SoundnessNeverRefutesSatisfiable) {
  // Property sweep: random interval conditions that are satisfiable by
  // construction must never be declared inconsistent.
  Rng rng(555);
  for (int trial = 0; trial < 200; ++trial) {
    VarRef x = NewNormal(0, 10);
    double witness = rng.NextUniform(-20, 20);
    double lo = witness - rng.NextUniform(0.1, 5.0);
    double hi = witness + rng.NextUniform(0.1, 5.0);
    Condition c;
    c.AddAtom(Expr::Var(x) > Expr::Constant(lo));
    c.AddAtom(Expr::Var(x) < Expr::Constant(hi));
    ConsistencyResult r = CheckConsistency(c, pool_);
    EXPECT_FALSE(r.inconsistent()) << "witness=" << witness;
    EXPECT_TRUE(r.BoundsFor(x).Contains(witness));
  }
}

TEST(Tighten1Test, MatchesPaperFormula) {
  // Paper example: a*X + b*Y + c > 0 with a > 0 gives
  // X >= -(b*max(S[Y]) + c)/a.
  VarRef x{1, 0}, y{2, 0};
  LinearForm form;
  form.coefficients[x] = 2.0;
  form.coefficients[y] = -1.0;
  form.constant = 4.0;
  std::map<VarRef, Interval> bounds;
  bounds[y] = Interval(0.0, 6.0);
  // 2X - Y + 4 >= 0 => X >= (Y - 4)/2; worst case Y=6 gives X >= ... the
  // implied bound uses max of rest = max(-Y+4) over Y in [0,6] = 4, so
  // X >= -4/2 = -2.
  Interval r = Tighten1(form, CmpOp::kGe, x, bounds);
  EXPECT_EQ(r.lo, -2.0);
  EXPECT_TRUE(std::isinf(r.hi));
}

TEST(Tighten1Test, UnboundedRestGivesNoInformation) {
  VarRef x{1, 0}, y{2, 0};
  LinearForm form;
  form.coefficients[x] = 1.0;
  form.coefficients[y] = 1.0;
  std::map<VarRef, Interval> bounds;  // Y unbounded.
  EXPECT_TRUE(Tighten1(form, CmpOp::kGe, x, bounds).IsAll());
}

TEST_F(ConsistencyTest, BoundsBeyondInfinityAreEmpty) {
  // 1e999 reads as +inf: no real X exceeds it or lies below -inf, alone or
  // beside an atom the bounds cannot decide.
  const double inf = std::numeric_limits<double>::infinity();
  ExprPtr x = Expr::Var(NewNormal());
  ExprPtr y = Expr::Var(NewNormal());
  for (const ConstraintAtom& empty :
       {x > Expr::Constant(inf), x >= Expr::Constant(inf),
        x < Expr::Constant(-inf), x <= Expr::Constant(-inf),
        Expr::Constant(inf) < x, x - Expr::Constant(inf) > Expr::Constant(0.0)}) {
    SCOPED_TRACE(empty.ToString());
    EXPECT_TRUE(CheckConsistency(Condition(empty), pool_).inconsistent());
    Condition with_product(empty);
    with_product.AddAtom(x * y > Expr::Constant(3.0));
    EXPECT_TRUE(CheckConsistency(with_product, pool_).inconsistent());
  }
  // The other sides of infinity hold everywhere.
  for (const ConstraintAtom& all :
       {x < Expr::Constant(inf), x > Expr::Constant(-inf)}) {
    SCOPED_TRACE(all.ToString());
    EXPECT_FALSE(CheckConsistency(Condition(all), pool_).inconsistent());
  }
}

// ---------------------------------------------------------------------------
// tighten2: univariate quadratic atoms.
// ---------------------------------------------------------------------------

TEST_F(ConsistencyTest, QuadraticUpperBoundExtracted) {
  // X*X <= 4  =>  X in [-2, 2].
  VarRef x = NewNormal(0, 10);
  Condition c(Expr::Var(x) * Expr::Var(x) <= Expr::Constant(4.0));
  ConsistencyResult r = CheckConsistency(c, pool_);
  EXPECT_FALSE(r.inconsistent());
  Interval b = r.BoundsFor(x);
  EXPECT_NEAR(b.lo, -2.0, 1e-9);
  EXPECT_NEAR(b.hi, 2.0, 1e-9);
}

TEST_F(ConsistencyTest, QuadraticSegmentBetweenRoots) {
  // -X^2 + 5X - 6 >= 0  <=>  (X-2)(3-X) >= 0  =>  X in [2, 3].
  VarRef x = NewNormal(0, 10);
  ExprPtr q = Expr::Neg(Expr::Var(x) * Expr::Var(x)) +
              Expr::Constant(5.0) * Expr::Var(x) - Expr::Constant(6.0);
  Condition c(q >= Expr::Constant(0.0));
  ConsistencyResult r = CheckConsistency(c, pool_);
  Interval b = r.BoundsFor(x);
  EXPECT_NEAR(b.lo, 2.0, 1e-9);
  EXPECT_NEAR(b.hi, 3.0, 1e-9);
}

TEST_F(ConsistencyTest, QuadraticBranchSelectionWithPriorBound) {
  // X >= 0 AND X^2 >= 9: the negative branch is pruned, leaving X >= 3.
  VarRef x = NewNormal(0, 10);
  Condition c;
  c.AddAtom(Expr::Var(x) >= Expr::Constant(0.0));
  c.AddAtom(Expr::Var(x) * Expr::Var(x) >= Expr::Constant(9.0));
  ConsistencyResult r = CheckConsistency(c, pool_);
  EXPECT_NEAR(r.BoundsFor(x).lo, 3.0, 1e-9);
}

TEST_F(ConsistencyTest, QuadraticInconsistencyDetected) {
  // X^2 < -1 has no solution.
  VarRef x = NewNormal(0, 10);
  Condition c(Expr::Var(x) * Expr::Var(x) < Expr::Constant(-1.0));
  EXPECT_TRUE(CheckConsistency(c, pool_).inconsistent());
}

TEST_F(ConsistencyTest, QuadraticPlusLinearInteract) {
  // X^2 <= 4 AND X > 1  =>  X in (1, 2]; then Y > X gives Y > 1.
  VarRef x = NewNormal(0, 10), y = NewNormal(0, 10);
  Condition c;
  c.AddAtom(Expr::Var(x) * Expr::Var(x) <= Expr::Constant(4.0));
  c.AddAtom(Expr::Var(x) > Expr::Constant(1.0));
  c.AddAtom(Expr::Var(y) > Expr::Var(x));
  ConsistencyResult r = CheckConsistency(c, pool_);
  EXPECT_FALSE(r.inconsistent());
  EXPECT_NEAR(r.BoundsFor(x).hi, 2.0, 1e-9);
  EXPECT_GE(r.BoundsFor(y).lo, 1.0 - 1e-9);
}

TEST_F(ConsistencyTest, QuadraticHandledAtomsAreNotWeak) {
  VarRef x = NewNormal(0, 10);
  Condition c(Expr::Var(x) * Expr::Var(x) <= Expr::Constant(4.0));
  EXPECT_EQ(CheckConsistency(c, pool_).verdict,
            ConsistencyVerdict::kConsistent);
}

TEST(QuadraticExtractionTest, RecognizedShapes) {
  VarRef x{1, 0};
  ExprPtr xx = Expr::Var(x) * Expr::Var(x);
  auto q = ToUnivariateQuadratic(xx + Expr::Constant(2.0) * Expr::Var(x) -
                                 Expr::Constant(3.0));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->a, 1.0);
  EXPECT_EQ(q->b, 2.0);
  EXPECT_EQ(q->c, -3.0);
  // (x + 1) * (x - 2) expands to x^2 - x - 2.
  auto product = ToUnivariateQuadratic(
      (Expr::Var(x) + Expr::Constant(1.0)) *
      (Expr::Var(x) - Expr::Constant(2.0)));
  ASSERT_TRUE(product.has_value());
  EXPECT_EQ(product->a, 1.0);
  EXPECT_EQ(product->b, -1.0);
  EXPECT_EQ(product->c, -2.0);
}

TEST(QuadraticExtractionTest, RejectedShapes) {
  VarRef x{1, 0}, y{2, 0};
  // Two variables.
  EXPECT_FALSE(ToUnivariateQuadratic(Expr::Var(x) * Expr::Var(y)).has_value());
  // Degree 3.
  EXPECT_FALSE(ToUnivariateQuadratic(Expr::Var(x) * Expr::Var(x) *
                                     Expr::Var(x))
                   .has_value());
  // Pure linear (a == 0): tighten1's job.
  EXPECT_FALSE(ToUnivariateQuadratic(Expr::Var(x) + Expr::Constant(1.0))
                   .has_value());
  // Non-polynomial.
  EXPECT_FALSE(
      ToUnivariateQuadratic(Expr::Func(FuncKind::kExp, Expr::Var(x)))
          .has_value());
}

// ---------------------------------------------------------------------------
// Independence partition.
// ---------------------------------------------------------------------------

TEST(IndependenceTest, PaperExamplePartition) {
  // (Y1 > 4) AND (Y1*Y2 > Y3) AND (A < 6): {Y1,Y2,Y3} and {A}.
  VarRef y1{1, 0}, y2{2, 0}, y3{3, 0}, a{4, 0};
  Condition c;
  c.AddAtom(Expr::Var(y1) > Expr::Constant(4.0));
  c.AddAtom(Expr::Var(y1) * Expr::Var(y2) > Expr::Var(y3));
  c.AddAtom(Expr::Var(a) < Expr::Constant(6.0));
  auto groups = PartitionIndependent(c, {});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].vars.size(), 3u);
  EXPECT_EQ(groups[0].atom_indices.size(), 2u);
  EXPECT_EQ(groups[1].vars.size(), 1u);
  EXPECT_TRUE(groups[1].vars.count(a));
}

TEST(IndependenceTest, TargetVariablesFormGroups) {
  VarRef x{1, 0}, y{2, 0};
  Condition c(Expr::Var(x) > Expr::Constant(0.0));
  auto groups = PartitionIndependent(c, {y});
  ASSERT_EQ(groups.size(), 2u);
  // Group containing x has the atom; group containing y is target-only.
  bool found_target_only = false;
  for (const auto& g : groups) {
    if (g.vars.count(y)) {
      EXPECT_TRUE(g.touches_target);
      EXPECT_TRUE(g.atom_indices.empty());
      found_target_only = true;
    }
  }
  EXPECT_TRUE(found_target_only);
}

TEST(IndependenceTest, TargetSharedWithConditionMerges) {
  VarRef x{1, 0};
  Condition c(Expr::Var(x) > Expr::Constant(0.0));
  auto groups = PartitionIndependent(c, {x});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_TRUE(groups[0].touches_target);
  EXPECT_EQ(groups[0].atom_indices.size(), 1u);
}

TEST(IndependenceTest, MultivariateComponentsInseparable) {
  // Components {5,0} and {5,1} share var_id 5: same group even though no
  // atom links them.
  VarRef a{5, 0}, b{5, 1}, other{6, 0};
  Condition c;
  c.AddAtom(Expr::Var(a) > Expr::Constant(0.0));
  c.AddAtom(Expr::Var(other) > Expr::Constant(0.0));
  auto groups = PartitionIndependent(c, {b});
  ASSERT_EQ(groups.size(), 2u);
  for (const auto& g : groups) {
    if (g.vars.count(a)) {
      EXPECT_TRUE(g.vars.count(b));
      EXPECT_TRUE(g.touches_target);
    }
  }
}

TEST(IndependenceTest, ChainOfSharedVariablesMergesTransitively) {
  VarRef x{1, 0}, y{2, 0}, z{3, 0};
  Condition c;
  c.AddAtom(Expr::Var(x) > Expr::Var(y));
  c.AddAtom(Expr::Var(y) > Expr::Var(z));
  auto groups = PartitionIndependent(c, {});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].vars.size(), 3u);
  EXPECT_EQ(groups[0].atom_indices.size(), 2u);
}

TEST(IndependenceTest, EmptyConditionNoTargetsEmptyPartition) {
  EXPECT_TRUE(PartitionIndependent(Condition::True(), {}).empty());
}

}  // namespace
}  // namespace pip
