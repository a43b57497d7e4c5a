/// \file sampling_kernel_test.cc
/// \brief Differential tests for the Monte Carlo attempt fast paths, plus
/// golden bits of end-to-end sampling answers.
///
/// Each fast path is checked against a reference that the test builds from
/// public APIs only:
///   * the Poisson quantile (a memoized CDF ladder) against the
///     normal-approximation lattice walk, written here from
///     NormalQuantile and PoissonCdf;
///   * Expr::EvalDouble and ConstraintAtom::Eval (double arithmetic with
///     no Value on success) against Expr::Eval plus Value::Compare, on
///     seeded random trees that include every error the Value path can
///     report;
///   * Assignment (an open-addressing map cleared by generation) against
///     std::map semantics.
/// The golden table pins the bits of answers from every sampling loop
/// (rejection, Metropolis, the hit-rate estimator, aconf,
/// SampleConditional, world sampling) and of the expected_* aggregates
/// (fixed and adaptive, plus Example 4.4's expected_max) at 1 and 8
/// threads. The values were produced by the lattice-walk quantile and
/// the Value evaluator, and the aggregates' by their four separate row
/// loops; a mismatch means an answer changed. A second table pins one
/// case per expectation strategy under the default toggles and under
/// each use_* toggle off alone.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/special_math.h"
#include "src/ctable/ctable.h"
#include "src/dist/registry.h"
#include "src/dist/variable_pool.h"
#include "src/expr/assignment.h"
#include "src/expr/atom.h"
#include "src/expr/condition.h"
#include "src/expr/expr.h"
#include "src/sampling/aggregates.h"
#include "src/sampling/expectation.h"

namespace pip {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

std::string Hex(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Bits(x)));
  return buf;
}

// ---------------------------------------------------------------------------
// Poisson quantile: ladder vs the reference lattice walk
// ---------------------------------------------------------------------------

/// The lattice walk the ladder must reproduce: a normal-approximation
/// guess, then steps until the smallest k with PoissonCdf(k) >= q.
double ReferenceQuantile(double lambda, double q) {
  if (q <= 0.0) return 0.0;
  if (q >= 1.0) return kInf;
  double guess =
      std::floor(lambda + std::sqrt(lambda) * NormalQuantile(q) + 0.5);
  double k = std::max(0.0, guess);
  while (PoissonCdf(lambda, k) < q) k += 1.0;
  while (k > 0.0 && PoissonCdf(lambda, k - 1.0) >= q) k -= 1.0;
  return k;
}

const Distribution& Poisson() {
  return *DistributionRegistry::Global().Lookup("Poisson").value();
}

double InverseCdf(double lambda, double q) {
  return Poisson().InverseCdf({lambda}, 0, q).value();
}

const double kLambdas[] = {1e-3, 0.5, 3.0, 6.2, 10.0, 37.5, 500.0, 1e5};

TEST(PoissonLadderTest, StreamUniformsMatchReferenceWalk) {
  RandomStream stream(2026, 17, 0, 0);
  for (double lambda : kLambdas) {
    SCOPED_TRACE(lambda);
    for (int i = 0; i < 100000; ++i) {
      double q = stream.NextUniform();
      ASSERT_EQ(Bits(InverseCdf(lambda, q)), Bits(ReferenceQuantile(lambda, q)))
          << "q=" << Hex(q);
    }
  }
}

TEST(PoissonLadderTest, EdgeQuantilesMatchReferenceWalk) {
  for (double lambda : kLambdas) {
    SCOPED_TRACE(lambda);
    std::set<double> qs = {0x1.0p-53, 1.0 - 0x1.0p-53, 0.0, 1.0,
                           -1.0, 2.0, std::nextafter(1.0, 0.0)};
    // Every rung of the ladder and both neighbours. Far above the ladder's
    // size cap only the bulk is walked: from a tiny q the normal guess
    // lands thousands of rungs low, and both walks would crawl up.
    const double top = std::ceil(lambda + 9.0 * std::sqrt(lambda)) + 12.0;
    const double bottom =
        lambda > 1e4 ? std::floor(lambda - 6.0 * std::sqrt(lambda)) : 0.0;
    for (double k = bottom; k <= top; k += 1.0) {
      double c = PoissonCdf(lambda, k);
      qs.insert(c);
      qs.insert(std::nextafter(c, 0.0));
      qs.insert(std::nextafter(c, 2.0));
    }
    for (double q : qs) {
      ASSERT_EQ(Bits(InverseCdf(lambda, q)), Bits(ReferenceQuantile(lambda, q)))
          << "q=" << Hex(q);
    }
    EXPECT_EQ(Bits(InverseCdf(lambda, kNan)),
              Bits(ReferenceQuantile(lambda, kNan)));
  }
}

TEST(PoissonLadderTest, DrawPathsMatchReferenceWalk) {
  // GenerateJoint and GenerateBatch draw u from the component-0 stream of
  // each sample and return the quantile of u.
  constexpr uint64_t kSeed = 99;
  for (double lambda : {0.5, 6.2, 500.0}) {
    SCOPED_TRACE(lambda);
    const uint64_t n = 512;
    SampleContext ctx{kSeed, 3, 1000, 7};
    std::vector<double> batch(n);
    ASSERT_TRUE(Poisson().GenerateBatch({lambda}, ctx, n, batch.data()).ok());
    for (uint64_t s = 0; s < n; ++s) {
      SampleContext one{kSeed, 3, 1000 + s, 7};
      double u = one.StreamFor(0).NextUniform();
      std::vector<double> joint;
      ASSERT_TRUE(Poisson().GenerateJoint({lambda}, one, &joint).ok());
      ASSERT_EQ(Bits(joint[0]), Bits(ReferenceQuantile(lambda, u)));
      ASSERT_EQ(Bits(batch[s]), Bits(joint[0]));
    }
  }
}

std::vector<double> QuantilesOf(double lambda, uint64_t key, int n) {
  std::vector<double> out;
  RandomStream stream(5, key, 0, 0);
  for (int i = 0; i < n; ++i) {
    out.push_back(InverseCdf(lambda, stream.NextUniform()));
  }
  return out;
}

TEST(PoissonLadderTest, InterleavedRatesMatchEachRunAlone) {
  // Fresh threads start with an empty per-thread memo.
  constexpr int n = 4000;
  std::vector<double> alone_a, alone_b, mixed_a, mixed_b;
  std::thread([&] { alone_a = QuantilesOf(3.0, 1, n); }).join();
  std::thread([&] { alone_b = QuantilesOf(9.75, 2, n); }).join();
  std::thread([&] {
    RandomStream sa(5, 1, 0, 0), sb(5, 2, 0, 0);
    for (int i = 0; i < n; ++i) {
      mixed_a.push_back(InverseCdf(3.0, sa.NextUniform()));
      mixed_b.push_back(InverseCdf(9.75, sb.NextUniform()));
    }
  }).join();
  ASSERT_EQ(alone_a.size(), mixed_a.size());
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(Bits(alone_a[i]), Bits(mixed_a[i]));
    ASSERT_EQ(Bits(alone_b[i]), Bits(mixed_b[i]));
  }
}

TEST(PoissonLadderTest, ManyRatesOnOneThreadMatchReferenceWalk) {
  // More distinct rates than the memo holds, revisited: evictions never
  // change an answer.
  RandomStream stream(8, 8, 0, 0);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3000; ++i) {
      double lambda = 3.0 + 7.0 * (i / 3000.0);
      double q = stream.NextUniform();
      ASSERT_EQ(Bits(InverseCdf(lambda, q)),
                Bits(ReferenceQuantile(lambda, q)));
    }
  }
}

// ---------------------------------------------------------------------------
// Numeric evaluation vs the Value evaluator
// ---------------------------------------------------------------------------

const VarRef kVars[] = {{1, 0}, {2, 0}, {2, 1}, {3, 0}};
const VarRef kMissing{77, 0};

class TreeGen {
 public:
  explicit TreeGen(uint32_t seed) : rng_(seed) {}

  ExprPtr Leaf() {
    switch (Pick(9)) {
      case 0:
      case 1:
      case 2:
        return Expr::Var(kVars[Pick(4)]);
      case 3:
        return Expr::Var(kMissing);
      case 4: {
        static const int64_t ints[] = {0, 1, -3, 7, int64_t{1} << 60};
        return Expr::ConstantInt(ints[Pick(5)]);
      }
      case 5:
        return Expr::Constant(Double());
      case 6:
        return Expr::Constant(Value(Pick(2) == 0));
      case 7:
        return Expr::String(Pick(2) == 0 ? "abc" : "");
      default:
        return Expr::Constant(Value::Null());
    }
  }

  ExprPtr Tree(int depth) {
    if (depth == 0 || Pick(4) == 0) return Leaf();
    switch (Pick(7)) {
      case 0:
        return Expr::Add(Tree(depth - 1), Tree(depth - 1));
      case 1:
        return Expr::Sub(Tree(depth - 1), Tree(depth - 1));
      case 2:
        return Expr::Mul(Tree(depth - 1), Tree(depth - 1));
      case 3:
        return Expr::Div(Tree(depth - 1), Tree(depth - 1));
      case 4:
        return Expr::Neg(Tree(depth - 1));
      case 5: {
        static const FuncKind unary[] = {FuncKind::kExp, FuncKind::kLog,
                                         FuncKind::kSqrt, FuncKind::kAbs};
        return Expr::Func(unary[Pick(4)], Tree(depth - 1));
      }
      default: {
        static const FuncKind binary[] = {FuncKind::kMin, FuncKind::kMax,
                                          FuncKind::kPow};
        return Expr::Func(binary[Pick(3)], Tree(depth - 1), Tree(depth - 1));
      }
    }
  }

  double Double() {
    static const double specials[] = {0.0, -0.0, 1.0, -2.5, kNan, kInf,
                                      -kInf, 1e-300, 4.0};
    if (Pick(3) == 0) return specials[Pick(9)];
    return std::uniform_real_distribution<double>(-10.0, 10.0)(rng_);
  }

  void Fill(Assignment* a) {
    a->Clear();
    for (VarRef v : kVars) a->Set(v, Double());
  }

  uint32_t Pick(uint32_t n) { return rng_() % n; }

 private:
  std::mt19937 rng_;
};

/// Expr::Eval followed by AsDouble: the Value path's answer.
StatusOr<double> ReferenceEvalDouble(const Expr& e, const Assignment& a) {
  PIP_ASSIGN_OR_RETURN(Value v, e.Eval(a));
  return v.AsDouble();
}

StatusOr<bool> ReferenceAtom(const ConstraintAtom& atom, const Assignment& a) {
  PIP_ASSIGN_OR_RETURN(Value l, atom.lhs()->Eval(a));
  PIP_ASSIGN_OR_RETURN(Value r, atom.rhs()->Eval(a));
  int c = l.Compare(r);
  switch (atom.op()) {
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
  }
  return false;
}

template <typename T>
void ExpectSameOutcome(const StatusOr<T>& got, const StatusOr<T>& want,
                       const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
  }
}

TEST(NumericEvalTest, RandomTreesMatchValueEvaluator) {
  TreeGen gen(4242);
  Assignment a;
  size_t ok = 0, failed = 0;
  for (int i = 0; i < 20000; ++i) {
    ExprPtr e = gen.Tree(5);
    gen.Fill(&a);
    const std::string what = e->ToString();
    StatusOr<double> got = e->EvalDouble(a);
    StatusOr<double> want = ReferenceEvalDouble(*e, a);
    ExpectSameOutcome(got, want, what);
    if (want.ok()) {
      ASSERT_EQ(Bits(got.value()), Bits(want.value())) << what;
      ++ok;
    } else {
      ++failed;
    }
  }
  // The generator must exercise both outcomes substantially.
  EXPECT_GT(ok, 4000u);
  EXPECT_GT(failed, 4000u);
}

TEST(NumericEvalTest, NamedErrorsMatchValueEvaluator) {
  Assignment a;
  a.Set(kVars[0], -4.0);
  a.Set(kVars[1], 0.0);
  ExprPtr x = Expr::Var(kVars[0]), zero = Expr::Var(kVars[1]);
  const ExprPtr cases[] = {
      x / zero,
      Expr::Func(FuncKind::kLog, x),
      Expr::Func(FuncKind::kLog, zero),
      Expr::Func(FuncKind::kSqrt, x),
      x + Expr::Var(kMissing),
      x + Expr::String("s"),
      Expr::String("s"),
      Expr::Constant(Value::Null()),
      Expr::Func(FuncKind::kPow, x, Expr::Constant(Value::Null())),
      // The left side is a valid string leaf; the right side's error wins.
      Expr::String("s") * (x / zero),
  };
  for (const ExprPtr& e : cases) {
    StatusOr<double> got = e->EvalDouble(a);
    ASSERT_FALSE(got.ok()) << e->ToString();
    ExpectSameOutcome(got, ReferenceEvalDouble(*e, a), e->ToString());
  }
  // Bool leaves read as 0/1 inside arithmetic and at the root.
  EXPECT_EQ(Expr::Constant(Value(true))->EvalDouble(a).value(), 1.0);
  EXPECT_EQ((x + Expr::Constant(Value(true)))->EvalDouble(a).value(), -3.0);
}

TEST(NumericEvalTest, RandomAtomsMatchValueCompare) {
  TreeGen gen(777);
  Assignment a;
  const CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                       CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};
  size_t ok = 0;
  for (int i = 0; i < 20000; ++i) {
    ConstraintAtom atom(gen.Tree(3), ops[gen.Pick(6)], gen.Tree(3));
    gen.Fill(&a);
    const std::string what = atom.ToString();
    StatusOr<bool> got = atom.Eval(a);
    StatusOr<bool> want = ReferenceAtom(atom, a);
    ExpectSameOutcome(got, want, what);
    if (want.ok()) {
      ASSERT_EQ(got.value(), want.value()) << what;
      ++ok;
    }
  }
  EXPECT_GT(ok, 2000u);
}

TEST(NumericEvalTest, AtomEdgeCasesMatchValueCompare) {
  Assignment a;
  a.Set(kVars[0], kNan);
  a.Set(kVars[1], 3.0);
  ExprPtr nan = Expr::Var(kVars[0]), three = Expr::Var(kVars[1]);
  const ExprPtr sides[] = {
      nan,
      three,
      Expr::ConstantInt(3),
      Expr::Constant(3.0),
      Expr::ConstantInt((int64_t{1} << 53) + 1),
      Expr::ConstantInt(int64_t{1} << 53),
      Expr::Constant(Value(true)),
      Expr::Constant(Value(false)),
      Expr::String("3"),
      Expr::Constant(Value::Null()),
      three + Expr::Constant(Value(true)),
  };
  const CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                       CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};
  for (const ExprPtr& l : sides) {
    for (const ExprPtr& r : sides) {
      for (CmpOp op : ops) {
        ConstraintAtom atom(l, op, r);
        StatusOr<bool> got = atom.Eval(a);
        StatusOr<bool> want = ReferenceAtom(atom, a);
        ExpectSameOutcome(got, want, atom.ToString());
        if (want.ok()) {
          ASSERT_EQ(got.value(), want.value()) << atom.ToString();
        }
      }
    }
  }
  // NaN compares equal under Value::Compare.
  EXPECT_TRUE(ConstraintAtom(nan, CmpOp::kEq, three).Eval(a).value());
  EXPECT_FALSE(ConstraintAtom(nan, CmpOp::kLt, three).Eval(a).value());
}

// ---------------------------------------------------------------------------
// Assignment semantics
// ---------------------------------------------------------------------------

TEST(AssignmentTest, OverwriteClearAndReuse) {
  Assignment a;
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(a.Get({1, 0}).has_value());
  a.Set({1, 0}, 2.0);
  a.Set({1, 0}, 3.0);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.Get({1, 0}).value(), 3.0);
  a.Clear();
  EXPECT_EQ(a.size(), 0u);
  EXPECT_FALSE(a.Has({1, 0}));
  a.Set({2, 0}, -1.0);
  EXPECT_FALSE(a.Has({1, 0}));
  EXPECT_EQ(a.Get({2, 0}).value(), -1.0);
  EXPECT_EQ(a.size(), 1u);
  Assignment copy = a;
  copy.Set({3, 0}, 4.0);
  EXPECT_FALSE(a.Has({3, 0}));
  EXPECT_TRUE(copy.Has({2, 0}));
}

TEST(AssignmentTest, ComponentsAreDistinctKeys) {
  Assignment a;
  a.Set({5, 0}, 1.0);
  a.Set({5, 1}, 2.0);
  a.Set({5, 65535}, 3.0);
  a.Set({0, 0}, 4.0);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a.Get({5, 0}).value(), 1.0);
  EXPECT_EQ(a.Get({5, 1}).value(), 2.0);
  EXPECT_EQ(a.Get({5, 65535}).value(), 3.0);
  EXPECT_EQ(a.Get({0, 0}).value(), 4.0);
  EXPECT_FALSE(a.Has({5, 2}));
  EXPECT_FALSE(a.Has({6, 0}));
}

TEST(AssignmentTest, MatchesOrderedMapThroughGrowthAndClears) {
  std::mt19937_64 rng(11);
  Assignment a;
  std::map<uint64_t, double> ref;
  for (int round = 0; round < 4; ++round) {
    a.Clear();
    ref.clear();
    const int n = round == 2 ? 30000 : 500 * (round + 1);
    for (int i = 0; i < n; ++i) {
      VarRef v{rng() % 20000, static_cast<uint32_t>(rng() % 3)};
      double x = static_cast<double>(i);
      a.Set(v, x);
      ref[v.Key()] = x;
    }
    ASSERT_EQ(a.size(), ref.size());
    if (round == 2) {
      EXPECT_GT(a.size(), 10000u);
    }
    for (const auto& [key, x] : ref) {
      VarRef v{key >> 16, static_cast<uint32_t>(key & 0xffff)};
      ASSERT_EQ(a.Get(v).value(), x);
    }
    for (int i = 0; i < 2000; ++i) {
      VarRef v{20000 + rng() % 1000, 0};
      ASSERT_FALSE(a.Has(v));
    }
  }
}

// ---------------------------------------------------------------------------
// Golden bits of end-to-end answers
// ---------------------------------------------------------------------------

std::string Describe(const ExpectationResult& r) {
  return "e=" + Hex(r.expectation) + " p=" + Hex(r.probability) +
         " n=" + std::to_string(r.samples_used) +
         " a=" + std::to_string(r.attempts);
}

/// Golden line of a SampleConditional draw: count, FNV hash of the bits,
/// and the sum.
std::string DescribeSamples(const StatusOr<std::vector<double>>& samples) {
  if (!samples.ok()) return samples.status().ToString();
  uint64_t h = 1469598103934665603ULL;
  double sum = 0.0;
  for (double s : samples.value()) {
    h = (h ^ Bits(s)) * 1099511628211ULL;
    sum += s;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return "n=" + std::to_string(samples.value().size()) + " h=" + buf +
         " s=" + Hex(sum);
}

/// The golden variables: pipbench-shaped order lines (price ~ Normal,
/// qty ~ Poisson) plus two Normals for a rare product.
struct GoldenPool {
  VariablePool pool{20261017};
  std::vector<ExprPtr> price, qty;
  ExprPtr x, y;

  GoldenPool() {
    for (int i = 0; i < 8; ++i) {
      price.push_back(Expr::Var(
          pool.Create("Normal", {90.0 + 4.0 * i, 8.0 + i}).value()));
      qty.push_back(Expr::Var(pool.Create("Poisson", {3.0 + i}).value()));
    }
    x = Expr::Var(pool.Create("Normal", {10.0, 2.0}).value());
    y = Expr::Var(pool.Create("Normal", {10.0, 2.0}).value());
  }
};

/// The golden cases, evaluated at `threads`: one line per case.
std::map<std::string, std::string> GoldenRun(size_t threads) {
  GoldenPool g;
  const VariablePool& pool = g.pool;
  const std::vector<ExprPtr>& price = g.price;
  const std::vector<ExprPtr>& qty = g.qty;
  const ExprPtr& x = g.x;
  const ExprPtr& y = g.y;
  ExprPtr line = price[3] * qty[3];  // Normal(102, 11) x Poisson(6).

  SamplingOptions fixed;
  fixed.num_threads = threads;
  fixed.fixed_samples = 500;
  SamplingOptions adaptive;
  adaptive.num_threads = threads;

  std::map<std::string, std::string> out;
  SamplingEngine probe(&pool, fixed);
  for (double c : {450.0, 700.0, 1000.0}) {
    auto r = probe.Expectation(line, Condition(line > Expr::Constant(c)),
                               /*compute_probability=*/true);
    out["probe_" + std::to_string(static_cast<int>(c))] =
        r.ok() ? Describe(r.value()) : r.status().ToString();
  }

  SamplingOptions rare = fixed;
  rare.fixed_samples = 300;
  SamplingEngine chain(&pool, rare);
  auto xy = chain.Expectation(x * y, Condition(x * y > Expr::Constant(190.0)),
                              true);
  out["metropolis_normal_normal"] =
      xy.ok() ? Describe(xy.value()) : xy.status().ToString();
  auto pq = chain.Expectation(line, Condition(line > Expr::Constant(1600.0)),
                              true);
  out["metropolis_normal_poisson"] =
      pq.ok() ? Describe(pq.value()) : pq.status().ToString();

  SamplingEngine conf(&pool, adaptive);
  auto hit = conf.Confidence(Condition(line > Expr::Constant(700.0)));
  out["conf_hit_rate"] =
      hit.ok() ? Describe(hit.value()) : hit.status().ToString();

  std::vector<Condition> disjuncts;
  for (int i = 0; i < 7; ++i) {
    disjuncts.emplace_back(price[i] * qty[i] >
                           Expr::Constant(700.0 + 150.0 * i));
  }
  auto aconf = conf.JointConfidence(disjuncts);
  out["aconf_7"] =
      aconf.ok() ? "p=" + Hex(aconf.value()) : aconf.status().ToString();

  out["sample_conditional"] = DescribeSamples(probe.SampleConditional(
      line, Condition(line > Expr::Constant(700.0)), 300));

  CTable table(Schema({"v"}));
  for (int i = 0; i < 6; ++i) {
    ExprPtr v = price[i] * qty[i];
    EXPECT_TRUE(
        table.Append({v}, Condition(qty[i] > Expr::ConstantInt(3 + i))).ok());
  }
  AggregateOptions agg_options;
  agg_options.world_samples = 2000;
  AggregateEvaluator agg(&probe, agg_options);
  auto max = agg.ExpectedMax(table, "v");
  out["expected_max_worlds"] =
      max.ok() ? "v=" + Hex(max.value()) : max.status().ToString();

  // The expected_* row sweep. Rows are two-variable rejection rows, so
  // every row samples; the adaptive engine runs the sqrt(N)-relaxed
  // per-row tolerance. The constant-cell table takes Example 4.4's path,
  // whose confidences come from the hit-rate estimator on the unrelaxed
  // engine.
  CTable lines(Schema({"v"}));
  CTable constants(Schema({"v"}));
  for (int i = 0; i < 6; ++i) {
    ExprPtr v = price[i] * qty[i];
    EXPECT_TRUE(
        lines.Append({v}, Condition(v > Expr::Constant(500.0 + 50.0 * i)))
            .ok());
    EXPECT_TRUE(constants
                    .Append({Expr::Constant(100.0 + 25.0 * i)},
                            Condition(v > Expr::Constant(600.0 + 40.0 * i)))
                    .ok());
  }
  const std::pair<const char*, const SamplingEngine*> modes[] = {
      {"fixed", &probe}, {"adaptive", &conf}};
  for (const auto& [mode, engine] : modes) {
    const AggregateEvaluator rows(engine);
    const std::string suffix = std::string("_") + mode;
    auto sum = rows.ExpectedSum(lines, "v");
    out["expected_sum" + suffix] =
        sum.ok() ? "v=" + Hex(sum.value()) : sum.status().ToString();
    auto count = rows.ExpectedCount(lines);
    out["expected_count" + suffix] =
        count.ok() ? "v=" + Hex(count.value()) : count.status().ToString();
    auto avg = rows.ExpectedAvg(lines, "v");
    out["expected_avg" + suffix] =
        avg.ok() ? "v=" + Hex(avg.value()) : avg.status().ToString();
    auto top = rows.ExpectedMax(constants, "v");
    out["expected_max_constants" + suffix] =
        top.ok() ? "v=" + Hex(top.value()) : top.status().ToString();
  }
  return out;
}

TEST(SamplingGoldenTest, AnswersKeepTheirBits) {
  // Captured from the lattice-walk quantile and the Value evaluator; the
  // expected_* rows from the aggregates' separate row loops.
  const std::map<std::string, std::string> golden = {
      {"aconf_7",
       "p=3fcce4a9027c4598"},
      {"conf_hit_rate",
       "e=3ff0000000000000 p=3fd58eb3e45306eb n=0 a=18944"},
      {"expected_avg_adaptive",
       "v=408c3525dcce6fd4"},
      {"expected_avg_fixed",
       "v=408c5b4ad868516c"},
      {"expected_count_adaptive",
       "v=4000cf6932342c2e"},
      {"expected_count_fixed",
       "v=4000cccccccccccd"},
      {"expected_max_constants_adaptive",
       "v=406732aad85925ed"},
      {"expected_max_constants_fixed",
       "v=406791b39e18280b"},
      {"expected_max_worlds",
       "v=408dd68e3b8058ec"},
      {"expected_sum_adaptive",
       "v=409d8aa3fc27c458"},
      {"expected_sum_fixed",
       "v=409e11dab7ec2034"},
      {"metropolis_normal_normal",
       "e=40693f45b3a2a8d7 p=3f7b4e81b4e81b4f n=300 a=2300"},
      {"metropolis_normal_poisson",
       "e=4099545288cee954 p=0000000000000000 n=300 a=2300"},
      {"probe_1000",
       "e=409214200002e33d p=3fb327ebc5759e13 n=500 a=6682"},
      {"probe_450",
       "e=40864fa2a7523db2 p=3fe75b8fe21a291c n=500 a=685"},
      {"probe_700",
       "e=408c361b25ac680a p=3fd579fc90527845 n=500 a=1490"},
      {"sample_conditional",
       "n=300 h=ea110b044f151215 s=411061628c1bf0fd"},
  };
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(threads);
    std::map<std::string, std::string> got = GoldenRun(threads);
    ASSERT_EQ(got.size(), golden.size());
    for (const auto& [name, want] : golden) {
      EXPECT_EQ(got[name], want) << name;
    }
  }
}

/// The strategy cases, evaluated under `options`: one line per case. Each
/// case lands on a different strategy under the default toggles (CDF band,
/// lattice band, quadrature, lattice sum, windowed or plain rejection,
/// Metropolis, inclusion-exclusion, joint hit rate), and a toggle that is
/// off sends it to the next strategy down.
std::map<std::string, std::string> ToggleRun(const GoldenPool& g,
                                             const SamplingOptions& options) {
  const std::vector<ExprPtr>& price = g.price;
  const std::vector<ExprPtr>& qty = g.qty;
  auto c = [](double v) { return Expr::Constant(v); };
  auto describe = [](const StatusOr<ExpectationResult>& r) {
    return r.ok() ? Describe(r.value()) : r.status().ToString();
  };
  SamplingEngine engine(&g.pool, options);
  std::map<std::string, std::string> out;

  // Single-variable bands: CDF differences, lattice-rounded for Poisson.
  out["band_continuous"] = describe(engine.Confidence(
      Condition(price[0] > c(85.0)).And(Condition(price[0] <= c(100.0)))));
  out["band_poisson"] = describe(engine.Confidence(
      Condition(qty[1] > c(2.0))
          .And(Condition(qty[1] < c(9.5)))
          .And(Condition(qty[1] != c(5.0)))));

  // Single-variable targets: quadrature and an exact lattice sum.
  out["integrate_continuous"] = describe(engine.Expectation(
      price[1] * price[1],
      Condition(price[1] > c(95.0)).And(Condition(price[1] <= c(110.0))),
      /*compute_probability=*/true));
  out["integrate_poisson"] = describe(engine.Expectation(
      qty[2] * c(2.0),
      Condition(qty[2] >= c(3.0)).And(Condition(qty[2] != c(6.0))), true));

  // A target group beside an independent constrained group.
  out["target_plus_group"] = describe(engine.Expectation(
      price[4], Condition(price[4] > c(100.0)).And(Condition(qty[4] > c(5.0))),
      true));
  ExprPtr line5 = price[5] * qty[5];
  out["product_plus_group"] = describe(engine.Expectation(
      line5, Condition(line5 > c(700.0)).And(Condition(qty[6] >= c(7.0))),
      true));

  // Two-variable targets: rejection, and a rare one the chain takes.
  ExprPtr line = price[3] * qty[3];
  out["product_normal_poisson"] =
      describe(engine.Expectation(line, Condition(line > c(700.0)), true));
  SamplingOptions rare_options = options;
  rare_options.fixed_samples = 300;
  SamplingEngine rare(&g.pool, rare_options);
  out["rare_normal_normal"] = describe(
      rare.Expectation(g.x * g.y, Condition(g.x * g.y > c(190.0)), true));

  // Adaptive stopping over a sampled confidence.
  SamplingOptions adaptive_options = options;
  adaptive_options.fixed_samples = 0;
  SamplingEngine adaptive(&g.pool, adaptive_options);
  out["conf_product_adaptive"] =
      describe(adaptive.Confidence(Condition(line > c(700.0))));

  // aconf: inclusion-exclusion over bands, and the joint hit rate.
  std::vector<Condition> bands;
  for (int i = 0; i < 3; ++i) {
    bands.emplace_back(price[i] > c(100.0 + 5.0 * i));
  }
  auto aconf_bands = engine.JointConfidence(bands);
  out["aconf_bands"] = aconf_bands.ok() ? "p=" + Hex(aconf_bands.value())
                                        : aconf_bands.status().ToString();
  std::vector<Condition> products;
  for (int i = 0; i < 7; ++i) {
    products.emplace_back(price[i] * qty[i] > c(700.0 + 150.0 * i));
  }
  auto aconf_products = engine.JointConfidence(products);
  out["aconf_products"] = aconf_products.ok()
                              ? "p=" + Hex(aconf_products.value())
                              : aconf_products.status().ToString();

  // SampleConditional: rejection over a product, a windowed band.
  out["sample_product"] = DescribeSamples(
      engine.SampleConditional(line, Condition(line > c(700.0)), 300));
  out["sample_band"] = DescribeSamples(engine.SampleConditional(
      price[2],
      Condition(price[2] > c(100.0)).And(Condition(price[2] < c(105.0))),
      200));
  return out;
}

TEST(SamplingGoldenTest, EveryToggleKeepsItsBits) {
  // The default toggles and each use_* toggle off alone, under fixed
  // sampling (the adaptive case overrides it).
  std::vector<std::pair<std::string, SamplingOptions>> configs(7);
  configs[0].first = "default";
  configs[1].first = "no_exact_cdf";
  configs[1].second.use_exact_cdf = false;
  configs[2].first = "no_cdf_sampling";
  configs[2].second.use_cdf_sampling = false;
  configs[3].first = "no_independence";
  configs[3].second.use_independence = false;
  configs[4].first = "no_metropolis";
  configs[4].second.use_metropolis = false;
  configs[5].first = "no_batch_generation";
  configs[5].second.use_batch_generation = false;
  configs[6].first = "no_numeric_integration";
  configs[6].second.use_numeric_integration = false;
  const std::map<std::string, std::string> golden = {
      {"default/aconf_bands",
       "p=3fd2f5f90b0e2e12"},
      {"default/aconf_products",
       "p=3fceb851eb851eb8"},
      {"default/band_continuous",
       "e=3ff0000000000000 p=3fe41b904819862b n=0 a=0"},
      {"default/band_poisson",
       "e=3ff0000000000000 p=3fe31e7b808e3e24 n=0 a=0"},
      {"default/conf_product_adaptive",
       "e=3ff0000000000000 p=3fd58eb3e45306eb n=0 a=18944"},
      {"default/integrate_continuous",
       "e=40c3dcbe23e822b7 p=3fdac13b5db9c842 n=0 a=0"},
      {"default/integrate_poisson",
       "e=4025821301e5bc3e p=3fe754fe504197ab n=0 a=0"},
      {"default/product_normal_poisson",
       "e=408c361b25ac680a p=3fd579fc90527845 n=500 a=1490"},
      {"default/product_plus_group",
       "e=40903861d770c9da p=3fe10ef851ea052f n=500 a=744"},
      {"default/rare_normal_normal",
       "e=40693f45b3a2a8d7 p=3f7b4e81b4e81b4f n=300 a=2300"},
      {"default/sample_band",
       "n=200 h=15757b97d185d297 s=40d4039746df02ab"},
      {"default/sample_product",
       "n=300 h=ea110b044f151215 s=411061628c1bf0fd"},
      {"default/target_plus_group",
       "e=405c070903bb3e1f p=3fdef2387de602a0 n=0 a=0"},
      {"no_batch_generation/aconf_bands",
       "p=3fd2f5f90b0e2e12"},
      {"no_batch_generation/aconf_products",
       "p=3fceb851eb851eb8"},
      {"no_batch_generation/band_continuous",
       "e=3ff0000000000000 p=3fe41b904819862b n=0 a=0"},
      {"no_batch_generation/band_poisson",
       "e=3ff0000000000000 p=3fe31e7b808e3e24 n=0 a=0"},
      {"no_batch_generation/conf_product_adaptive",
       "e=3ff0000000000000 p=3fd58eb3e45306eb n=0 a=18944"},
      {"no_batch_generation/integrate_continuous",
       "e=40c3dcbe23e822b7 p=3fdac13b5db9c842 n=0 a=0"},
      {"no_batch_generation/integrate_poisson",
       "e=4025821301e5bc3e p=3fe754fe504197ab n=0 a=0"},
      {"no_batch_generation/product_normal_poisson",
       "e=408c361b25ac680a p=3fd579fc90527845 n=500 a=1490"},
      {"no_batch_generation/product_plus_group",
       "e=40903861d770c9da p=3fe10ef851ea052f n=500 a=744"},
      {"no_batch_generation/rare_normal_normal",
       "e=40693f45b3a2a8d7 p=3f7b4e81b4e81b4f n=300 a=2300"},
      {"no_batch_generation/sample_band",
       "n=200 h=15757b97d185d297 s=40d4039746df02ab"},
      {"no_batch_generation/sample_product",
       "n=300 h=ea110b044f151215 s=411061628c1bf0fd"},
      {"no_batch_generation/target_plus_group",
       "e=405c070903bb3e1f p=3fdef2387de602a0 n=0 a=0"},
      {"no_cdf_sampling/aconf_bands",
       "p=3fd2f5f90b0e2e12"},
      {"no_cdf_sampling/aconf_products",
       "p=3fceb851eb851eb8"},
      {"no_cdf_sampling/band_continuous",
       "e=3ff0000000000000 p=3fe41b904819862b n=0 a=0"},
      {"no_cdf_sampling/band_poisson",
       "e=3ff0000000000000 p=3fe31e7b808e3e24 n=0 a=0"},
      {"no_cdf_sampling/conf_product_adaptive",
       "e=3ff0000000000000 p=3fd58eb3e45306eb n=0 a=18944"},
      {"no_cdf_sampling/integrate_continuous",
       "e=40c3dcbe23e822b7 p=3fdac13b5db9c842 n=0 a=0"},
      {"no_cdf_sampling/integrate_poisson",
       "e=4025821301e5bc3e p=3fe754fe504197ab n=0 a=0"},
      {"no_cdf_sampling/product_normal_poisson",
       "e=408c361b25ac680a p=3fd579fc90527845 n=500 a=1490"},
      {"no_cdf_sampling/product_plus_group",
       "e=40903861d770c9da p=3fe10ef851ea052f n=500 a=744"},
      {"no_cdf_sampling/rare_normal_normal",
       "e=40693f45b3a2a8d7 p=3f7b4e81b4e81b4f n=300 a=2300"},
      {"no_cdf_sampling/sample_band",
       "n=200 h=8f08a3e7e655725c s=40d40fed7f321fb3"},
      {"no_cdf_sampling/sample_product",
       "n=300 h=ea110b044f151215 s=411061628c1bf0fd"},
      {"no_cdf_sampling/target_plus_group",
       "e=405c070903bb3e1f p=3fdef2387de602a0 n=0 a=0"},
      {"no_exact_cdf/aconf_bands",
       "p=3fd2f5f90b0e2e12"},
      {"no_exact_cdf/aconf_products",
       "p=3fceb851eb851eb8"},
      {"no_exact_cdf/band_continuous",
       "e=3ff0000000000000 p=3fe41b904819862b n=0 a=500"},
      {"no_exact_cdf/band_poisson",
       "e=3ff0000000000000 p=3fe2c89cb9a9799f n=0 a=500"},
      {"no_exact_cdf/conf_product_adaptive",
       "e=3ff0000000000000 p=3fd58eb3e45306eb n=0 a=18944"},
      {"no_exact_cdf/integrate_continuous",
       "e=40c3fcd338892668 p=3fdac13b5db9c842 n=500 a=500"},
      {"no_exact_cdf/integrate_poisson",
       "e=402520c49ba5e354 p=3fe6ff65dd89c4b9 n=500 a=609"},
      {"no_exact_cdf/product_normal_poisson",
       "e=408c361b25ac680a p=3fd579fc90527845 n=500 a=1490"},
      {"no_exact_cdf/product_plus_group",
       "e=40903861d770c9da p=3fe10ef851ea052f n=500 a=1244"},
      {"no_exact_cdf/rare_normal_normal",
       "e=40693f45b3a2a8d7 p=3f7b4e81b4e81b4f n=300 a=2300"},
      {"no_exact_cdf/sample_band",
       "n=200 h=15757b97d185d297 s=40d4039746df02ab"},
      {"no_exact_cdf/sample_product",
       "n=300 h=ea110b044f151215 s=411061628c1bf0fd"},
      {"no_exact_cdf/target_plus_group",
       "e=405bd44ef9ba0f14 p=3fdf4138e5c772f3 n=500 a=1000"},
      {"no_independence/aconf_bands",
       "p=3fd2f5f90b0e2e12"},
      {"no_independence/aconf_products",
       "p=3fceb851eb851eb8"},
      {"no_independence/band_continuous",
       "e=3ff0000000000000 p=3fe41b904819862b n=0 a=0"},
      {"no_independence/band_poisson",
       "e=3ff0000000000000 p=3fe31e7b808e3e24 n=0 a=0"},
      {"no_independence/conf_product_adaptive",
       "e=3ff0000000000000 p=3fd58eb3e45306eb n=0 a=18944"},
      {"no_independence/integrate_continuous",
       "e=40c3dcbe23e822b7 p=3fdac13b5db9c842 n=0 a=0"},
      {"no_independence/integrate_poisson",
       "e=4025821301e5bc3e p=3fe754fe504197ab n=0 a=0"},
      {"no_independence/product_normal_poisson",
       "e=408c361b25ac680a p=3fd579fc90527845 n=500 a=1490"},
      {"no_independence/product_plus_group",
       "e=40903861d770c9da p=3fe10ef851ea052f n=500 a=744"},
      {"no_independence/rare_normal_normal",
       "e=40693f45b3a2a8d7 p=3f7b4e81b4e81b4f n=300 a=2300"},
      {"no_independence/sample_band",
       "n=200 h=15757b97d185d297 s=40d4039746df02ab"},
      {"no_independence/sample_product",
       "n=300 h=ea110b044f151215 s=411061628c1bf0fd"},
      {"no_independence/target_plus_group",
       "e=405bd411fd53ddbc p=3fdf8cd240f31810 n=500 a=580"},
      {"no_metropolis/aconf_bands",
       "p=3fd2f5f90b0e2e12"},
      {"no_metropolis/aconf_products",
       "p=3fceb851eb851eb8"},
      {"no_metropolis/band_continuous",
       "e=3ff0000000000000 p=3fe41b904819862b n=0 a=0"},
      {"no_metropolis/band_poisson",
       "e=3ff0000000000000 p=3fe31e7b808e3e24 n=0 a=0"},
      {"no_metropolis/conf_product_adaptive",
       "e=3ff0000000000000 p=3fd58eb3e45306eb n=0 a=18944"},
      {"no_metropolis/integrate_continuous",
       "e=40c3dcbe23e822b7 p=3fdac13b5db9c842 n=0 a=0"},
      {"no_metropolis/integrate_poisson",
       "e=4025821301e5bc3e p=3fe754fe504197ab n=0 a=0"},
      {"no_metropolis/product_normal_poisson",
       "e=408c361b25ac680a p=3fd579fc90527845 n=500 a=1490"},
      {"no_metropolis/product_plus_group",
       "e=40903861d770c9da p=3fe10ef851ea052f n=500 a=744"},
      {"no_metropolis/rare_normal_normal",
       "e=406925336c2f57d6 p=3f6c2e79df9a5bca n=300 a=87206"},
      {"no_metropolis/sample_band",
       "n=200 h=15757b97d185d297 s=40d4039746df02ab"},
      {"no_metropolis/sample_product",
       "n=300 h=ea110b044f151215 s=411061628c1bf0fd"},
      {"no_metropolis/target_plus_group",
       "e=405c070903bb3e1f p=3fdef2387de602a0 n=0 a=0"},
      {"no_numeric_integration/aconf_bands",
       "p=3fd2f5f90b0e2e12"},
      {"no_numeric_integration/aconf_products",
       "p=3fceb851eb851eb8"},
      {"no_numeric_integration/band_continuous",
       "e=3ff0000000000000 p=3fe41b904819862b n=0 a=0"},
      {"no_numeric_integration/band_poisson",
       "e=3ff0000000000000 p=3fe31e7b808e3e24 n=0 a=0"},
      {"no_numeric_integration/conf_product_adaptive",
       "e=3ff0000000000000 p=3fd58eb3e45306eb n=0 a=18944"},
      {"no_numeric_integration/integrate_continuous",
       "e=40c3fcd338892668 p=3fdac13b5db9c842 n=500 a=500"},
      {"no_numeric_integration/integrate_poisson",
       "e=402520c49ba5e354 p=3fe754fe504197ab n=500 a=609"},
      {"no_numeric_integration/product_normal_poisson",
       "e=408c361b25ac680a p=3fd579fc90527845 n=500 a=1490"},
      {"no_numeric_integration/product_plus_group",
       "e=40903861d770c9da p=3fe10ef851ea052f n=500 a=744"},
      {"no_numeric_integration/rare_normal_normal",
       "e=40693f45b3a2a8d7 p=3f7b4e81b4e81b4f n=300 a=2300"},
      {"no_numeric_integration/sample_band",
       "n=200 h=15757b97d185d297 s=40d4039746df02ab"},
      {"no_numeric_integration/sample_product",
       "n=300 h=ea110b044f151215 s=411061628c1bf0fd"},
      {"no_numeric_integration/target_plus_group",
       "e=405bd44ef9ba0f14 p=3fdef2387de602a0 n=500 a=500"},
  };
  GoldenPool g;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(threads);
    std::map<std::string, std::string> got;
    for (auto& [name, options] : configs) {
      options.fixed_samples = 500;
      options.num_threads = threads;
      for (auto& [key, line] : ToggleRun(g, options)) {
        got[name + "/" + key] = std::move(line);
      }
    }
    ASSERT_EQ(got.size(), golden.size());
    for (const auto& [name, want] : golden) {
      EXPECT_EQ(got[name], want) << name;
    }
  }
}

TEST(SamplingGoldenTest, RareRowsReallySwitchToMetropolis) {
  // The golden Metropolis rows must take the chain: without it the same
  // calls spend far more attempts.
  GoldenPool g;
  const ExprPtr normal_normal = g.x * g.y;
  const ExprPtr normal_poisson = g.price[3] * g.qty[3];
  const std::pair<ExprPtr, double> rows[] = {{normal_normal, 190.0},
                                             {normal_poisson, 1600.0}};
  for (const auto& [target, c] : rows) {
    SCOPED_TRACE(target->ToString());
    Condition rare(target > Expr::Constant(c));
    SamplingOptions opts;
    opts.fixed_samples = 300;
    opts.num_threads = 1;
    auto with_chain =
        SamplingEngine(&g.pool, opts).Expectation(target, rare, true);
    opts.use_metropolis = false;
    auto without =
        SamplingEngine(&g.pool, opts).Expectation(target, rare, true);
    ASSERT_TRUE(with_chain.ok() && without.ok());
    EXPECT_LT(with_chain.value().attempts * 5, without.value().attempts);
  }
}

}  // namespace
}  // namespace pip
