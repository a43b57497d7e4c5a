/// \file batch_sampling_test.cc
/// \brief The batch-draw contract (README "Batch draws"): GenerateBatch is
/// bit-identical to the per-sample GenerateJoint loop for every builtin,
/// the engine's batched sampling loops reproduce the scalar path
/// word-for-word across thread counts and chunk sizes, each builtin's
/// per-draw word-consumption schedule is pinned as a regression surface,
/// and the uniform endpoints feeding logs / inverse CDFs stay finite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/random.h"
#include "src/dist/distribution.h"
#include "src/dist/variable_pool.h"
#include "src/engine/database.h"
#include "src/expr/condition.h"
#include "src/expr/expr.h"
#include "src/sampling/expectation.h"

namespace pip {
namespace {

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// ---------------------------------------------------------------------------
// GenerateBatch == scalar GenerateJoint, bitwise, for every builtin
// ---------------------------------------------------------------------------

struct BuiltinCase {
  const char* cls;
  std::vector<double> params;
};

std::vector<BuiltinCase> AllBuiltins() {
  return {
      {"Normal", {5.0, 2.0}},
      {"Uniform", {-1.0, 3.0}},
      {"Exponential", {0.5}},
      {"Gamma", {2.0, 1.5}},
      {"Lognormal", {0.0, 0.5}},
      {"Beta", {2.0, 3.0}},
      {"StudentT", {4.0}},
      {"Tukey", {0.14}},
      {"UniformSum", {3.0}},
      {"MVNormal", {2.0, 0.0, 0.0, 1.0, 0.5, 0.5, 1.0}},
      {"Poisson", {3.5}},
      {"Bernoulli", {0.3}},
      {"Categorical", {0.5, 0.3, 0.2}},
      {"DiscreteUniform", {1.0, 6.0}},
      {"Zipf", {1.1, 50.0}},
  };
}

TEST(GenerateBatchTest, BitIdenticalToScalarForEveryBuiltin) {
  VariablePool pool(1234);
  constexpr uint64_t kMarker = 0xE571ULL << 32;  // Estimate-loop attempt key.
  for (const BuiltinCase& c : AllBuiltins()) {
    SCOPED_TRACE(c.cls);
    VarRef v = pool.Create(c.cls, c.params).value();
    const VariableInfo* info = pool.Info(v.var_id).value();
    const uint64_t d = info->num_components;
    for (uint64_t attempt : {uint64_t{0}, kMarker}) {
      for (uint64_t begin : {uint64_t{0}, uint64_t{1000}}) {
        const uint64_t n = 64;
        std::vector<double> batch;
        ASSERT_TRUE(pool.GenerateBatch(v.var_id, begin, n, attempt, &batch)
                        .ok());
        ASSERT_EQ(batch.size(), n * d);
        std::vector<double> joint;
        for (uint64_t s = 0; s < n; ++s) {
          ASSERT_TRUE(
              pool.GenerateJoint(v.var_id, begin + s, attempt, &joint).ok());
          ASSERT_EQ(joint.size(), d);
          for (uint64_t comp = 0; comp < d; ++comp) {
            EXPECT_EQ(Bits(batch[s * d + comp]), Bits(joint[comp]))
                << "sample " << begin + s << " comp " << comp;
          }
        }
      }
    }
  }
}

TEST(GenerateBatchTest, SplitBatchesConcatenateToOneBatch) {
  // A chunked caller slicing [0, 64) into [0, 17) + [17, 64) must see the
  // exact words of one whole-range call: batches address the sample-index
  // space, not any internal stream position.
  VariablePool pool(99);
  for (const BuiltinCase& c : AllBuiltins()) {
    SCOPED_TRACE(c.cls);
    VarRef v = pool.Create(c.cls, c.params).value();
    std::vector<double> whole, lo, hi;
    ASSERT_TRUE(pool.GenerateBatch(v.var_id, 0, 64, 0, &whole).ok());
    ASSERT_TRUE(pool.GenerateBatch(v.var_id, 0, 17, 0, &lo).ok());
    ASSERT_TRUE(pool.GenerateBatch(v.var_id, 17, 47, 0, &hi).ok());
    ASSERT_EQ(lo.size() + hi.size(), whole.size());
    for (size_t i = 0; i < lo.size(); ++i) {
      EXPECT_EQ(Bits(lo[i]), Bits(whole[i]));
    }
    for (size_t i = 0; i < hi.size(); ++i) {
      EXPECT_EQ(Bits(hi[i]), Bits(whole[lo.size() + i]));
    }
  }
}

// ---------------------------------------------------------------------------
// Engine loops: batch toggle is bitwise invisible
// ---------------------------------------------------------------------------

class EngineBatchTest : public ::testing::Test {
 protected:
  SamplingOptions Opts(bool batch, size_t threads, size_t chunk) const {
    SamplingOptions o;
    o.fixed_samples = 2048;
    o.num_threads = threads;
    o.chunk_samples = chunk;
    o.use_batch_generation = batch;
    o.use_numeric_integration = false;
    return o;
  }

  Database db_{777};
};

// The batching rule pre-draws attempt 0 of every natural variable of a
// chain-free target group, so each toggle test also runs a rejection atom
// over two natural variables (retries stay scalar) and a CDF-windowed atom
// beside an unconstrained target variable (windowed draws stay scalar).
TEST_F(EngineBatchTest, ExpectationBitIdenticalAcrossToggle) {
  VarRef x = db_.pool()->Create("Normal", {5.0, 2.0}).value();
  VarRef y = db_.pool()->Create("Exponential", {1.0}).value();
  ExprPtr expr = Expr::Var(x) + Expr::Var(y);
  const std::vector<Condition> conditions = {
      Condition::True(),
      Condition(Expr::Var(x) + Expr::Var(y) > Expr::Constant(8.0)),
      Condition(Expr::Var(x) > Expr::Constant(6.0)),
  };
  for (size_t k = 0; k < conditions.size(); ++k) {
    for (size_t chunk : {size_t{16}, size_t{64}}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE("condition=" + std::to_string(k) +
                     " chunk=" + std::to_string(chunk) +
                     " threads=" + std::to_string(threads));
        auto scalar = db_.MakeEngine(Opts(false, threads, chunk))
                          .Expectation(expr, conditions[k], true)
                          .value();
        auto batched = db_.MakeEngine(Opts(true, threads, chunk))
                           .Expectation(expr, conditions[k], true)
                           .value();
        EXPECT_EQ(Bits(scalar.expectation), Bits(batched.expectation));
        EXPECT_EQ(Bits(scalar.probability), Bits(batched.probability));
        EXPECT_EQ(scalar.samples_used, batched.samples_used);
        EXPECT_EQ(scalar.attempts, batched.attempts);
        if (k == 1) {
          // The rejection atom retries: attempts 1+ stay scalar.
          EXPECT_GT(batched.attempts, batched.samples_used);
        }
      }
    }
  }
}

TEST_F(EngineBatchTest, SampleConditionalBitIdenticalAcrossToggle) {
  VarRef x = db_.pool()->Create("Normal", {0.0, 1.0}).value();
  VarRef y = db_.pool()->Create("Uniform", {-1.0, 3.0}).value();
  ExprPtr expr = Expr::Var(x) * Expr::Var(y);
  const std::vector<Condition> conditions = {
      Condition::True(),
      Condition(Expr::Var(x) + Expr::Var(y) > Expr::Constant(2.0)),
      Condition(Expr::Var(x) > Expr::Constant(0.8)),
  };
  for (size_t k = 0; k < conditions.size(); ++k) {
    for (size_t chunk : {size_t{16}, size_t{64}}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE("condition=" + std::to_string(k) +
                     " chunk=" + std::to_string(chunk) +
                     " threads=" + std::to_string(threads));
        auto scalar = db_.MakeEngine(Opts(false, threads, chunk))
                          .SampleConditional(expr, conditions[k], 512)
                          .value();
        auto batched = db_.MakeEngine(Opts(true, threads, chunk))
                           .SampleConditional(expr, conditions[k], 512)
                           .value();
        ASSERT_EQ(scalar.size(), 512u);
        ASSERT_EQ(scalar.size(), batched.size());
        for (size_t i = 0; i < scalar.size(); ++i) {
          EXPECT_EQ(Bits(scalar[i]), Bits(batched[i])) << "sample " << i;
        }
      }
    }
  }
}

TEST_F(EngineBatchTest, ConfidenceEstimatorBitIdenticalAcrossToggle) {
  // A two-variable atom is neither exact-CDF-eligible nor window-backed,
  // so the group hit-rate estimator draws every variable naturally — the
  // pre-drawn batch path.
  VarRef x = db_.pool()->Create("Normal", {5.0, 2.0}).value();
  VarRef y = db_.pool()->Create("Normal", {3.0, 1.0}).value();
  Condition c(Expr::Var(x) + Expr::Var(y) < Expr::Constant(8.0));
  for (size_t chunk : {size_t{16}, size_t{64}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE("chunk=" + std::to_string(chunk) +
                   " threads=" + std::to_string(threads));
      auto scalar =
          db_.MakeEngine(Opts(false, threads, chunk)).Confidence(c).value();
      auto batched =
          db_.MakeEngine(Opts(true, threads, chunk)).Confidence(c).value();
      EXPECT_EQ(Bits(scalar.probability), Bits(batched.probability));
      EXPECT_EQ(scalar.attempts, batched.attempts);
    }
  }
}

TEST_F(EngineBatchTest, JointConfidenceBitIdenticalAcrossToggle) {
  // More than 6 live disjuncts forces the joint Monte Carlo path (the
  // inclusion-exclusion branch below that threshold never batch-draws).
  VarRef x = db_.pool()->Create("Normal", {0.0, 1.0}).value();
  VarRef y = db_.pool()->Create("Exponential", {1.0}).value();
  std::vector<Condition> disjuncts;
  for (int i = 0; i < 7; ++i) {
    disjuncts.emplace_back(Expr::Var(x) + Expr::Var(y) <
                           Expr::Constant(-1.5 + 0.3 * i));
  }
  for (size_t chunk : {size_t{16}, size_t{64}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE("chunk=" + std::to_string(chunk) +
                   " threads=" + std::to_string(threads));
      double scalar = db_.MakeEngine(Opts(false, threads, chunk))
                          .JointConfidence(disjuncts)
                          .value();
      double batched = db_.MakeEngine(Opts(true, threads, chunk))
                           .JointConfidence(disjuncts)
                           .value();
      EXPECT_EQ(Bits(scalar), Bits(batched));
    }
  }
}

// ---------------------------------------------------------------------------
// Word-consumption schedule: one test per builtin family pins how many
// raw words a draw consumes, in what order, and through which transform.
// Any change here silently reshuffles every stored sample, so the exact
// schedule is a regression surface, not an implementation detail.
// ---------------------------------------------------------------------------

class WordScheduleTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSeed = 4242;

  /// The per-draw stream the pool hands a distribution: SampleContext's
  /// mixed seed at (var_id, component 0, sample_index).
  RandomStream DrawStream(VarRef v, uint64_t sample_index,
                          uint64_t attempt = 0) {
    SampleContext ctx{kSeed, v.var_id, sample_index, attempt};
    return ctx.StreamFor(0);
  }

  double Draw(VarRef v, uint64_t sample_index, uint64_t attempt = 0) {
    std::vector<double> joint;
    Status s = pool_.GenerateJoint(v.var_id, sample_index, attempt, &joint);
    EXPECT_TRUE(s.ok()) << s.message();
    EXPECT_EQ(joint.size(), 1u);
    return joint.empty() ? std::numeric_limits<double>::quiet_NaN()
                         : joint[0];
  }

  VariablePool pool_{kSeed};
};

TEST_F(WordScheduleTest, NormalConsumesTwoWordsClampedFirstCosineBranch) {
  VarRef v = pool_.Create("Normal", {5.0, 2.0}).value();
  for (uint64_t k = 0; k < 32; ++k) {
    RandomStream s = DrawStream(v, k);
    double u1 = ClampUnitOpen(s.NextUniform());  // Word 0, pinned off 0.
    double u2 = s.NextUniform();                 // Word 1.
    double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    EXPECT_EQ(Bits(Draw(v, k)), Bits(5.0 + 2.0 * z));
  }
}

TEST_F(WordScheduleTest, LognormalIsExpOfTheNormalSchedule) {
  VarRef v = pool_.Create("Lognormal", {0.0, 0.5}).value();
  for (uint64_t k = 0; k < 32; ++k) {
    RandomStream s = DrawStream(v, k);
    double u1 = ClampUnitOpen(s.NextUniform());
    double u2 = s.NextUniform();
    double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    EXPECT_EQ(Bits(Draw(v, k)), Bits(std::exp(0.0 + 0.5 * z)));
  }
}

TEST_F(WordScheduleTest, UniformConsumesOneClosedWord) {
  VarRef v = pool_.Create("Uniform", {-1.0, 3.0}).value();
  for (uint64_t k = 0; k < 32; ++k) {
    double u = DrawStream(v, k).NextUniform();
    EXPECT_EQ(Bits(Draw(v, k)), Bits(-1.0 + (3.0 - -1.0) * u));
  }
}

TEST_F(WordScheduleTest, ExponentialConsumesOneWordViaLog1p) {
  VarRef v = pool_.Create("Exponential", {0.5}).value();
  for (uint64_t k = 0; k < 32; ++k) {
    double u = DrawStream(v, k).NextUniform();
    EXPECT_EQ(Bits(Draw(v, k)), Bits(-std::log1p(-u) / 0.5));
  }
}

TEST_F(WordScheduleTest, QuantileBuiltinsConsumeOneOpenWord) {
  // Gamma, Beta, StudentT, Tukey, and Zipf all invert one open uniform
  // through their own quantile function (open: u = 0 is pinned to 2^-53
  // so the inverse CDF never sees an endpoint).
  struct QCase {
    const char* cls;
    std::vector<double> params;
  };
  for (const QCase& c : std::vector<QCase>{{"Gamma", {2.0, 1.5}},
                                           {"Beta", {2.0, 3.0}},
                                           {"StudentT", {4.0}},
                                           {"Tukey", {0.14}},
                                           {"Zipf", {1.1, 50.0}}}) {
    SCOPED_TRACE(c.cls);
    VarRef v = pool_.Create(c.cls, c.params).value();
    for (uint64_t k = 0; k < 16; ++k) {
      double u = DrawStream(v, k).NextOpenUniform();
      double x = pool_.InverseCdf(v, u).value();
      EXPECT_EQ(Bits(Draw(v, k)), Bits(x));
    }
  }
}

TEST_F(WordScheduleTest, PoissonConsumesOneClosedWordThroughQuantile) {
  VarRef v = pool_.Create("Poisson", {3.5}).value();
  for (uint64_t k = 0; k < 32; ++k) {
    double u = DrawStream(v, k).NextUniform();
    EXPECT_EQ(Bits(Draw(v, k)), Bits(pool_.InverseCdf(v, u).value()));
  }
}

TEST_F(WordScheduleTest, BernoulliConsumesOneWordStrictThreshold) {
  VarRef v = pool_.Create("Bernoulli", {0.3}).value();
  for (uint64_t k = 0; k < 64; ++k) {
    double u = DrawStream(v, k).NextUniform();
    EXPECT_EQ(Draw(v, k), u < 0.3 ? 1.0 : 0.0);
  }
}

TEST_F(WordScheduleTest, CategoricalConsumesOneWordRunningSumScan) {
  // The scalar scan accepts the first k with u < sum(p[0..k]), summed in
  // index order — the convention the batched prefix-sum search must match
  // exactly (note: CategoricalTable's lower_bound quantile is a different
  // convention and is NOT the generation path).
  const std::vector<double> p = {0.5, 0.3, 0.2};
  VarRef v = pool_.Create("Categorical", p).value();
  for (uint64_t k = 0; k < 64; ++k) {
    double u = DrawStream(v, k).NextUniform();
    double acc = 0.0, expect = static_cast<double>(p.size() - 1);
    for (size_t j = 0; j < p.size(); ++j) {
      acc += p[j];
      if (u < acc) {
        expect = static_cast<double>(j);
        break;
      }
    }
    EXPECT_EQ(Draw(v, k), expect);
  }
}

TEST_F(WordScheduleTest, DiscreteUniformPowerOfTwoRangeConsumesOneWord) {
  // Lemire multiply-shift rejects only when (word * n) mod 2^64 < n; a
  // power-of-two n never rejects, so exactly one word per draw and the
  // value is the high half of word * n.
  VarRef v = pool_.Create("DiscreteUniform", {0.0, 7.0}).value();
  for (uint64_t k = 0; k < 64; ++k) {
    uint64_t w = DrawStream(v, k).NextBits();
    uint64_t hi = static_cast<uint64_t>(
        (static_cast<__uint128_t>(w) * 8) >> 64);
    EXPECT_EQ(Draw(v, k), static_cast<double>(hi));
  }
}

TEST_F(WordScheduleTest, UniformSumConsumesNWordsInOrder) {
  VarRef v = pool_.Create("UniformSum", {3.0}).value();
  for (uint64_t k = 0; k < 32; ++k) {
    RandomStream s = DrawStream(v, k);
    double sum = s.NextUniform() + s.NextUniform() + s.NextUniform();
    EXPECT_EQ(Bits(Draw(v, k)), Bits(sum));
  }
}

TEST_F(WordScheduleTest, MVNormalConsumesTwoWordsPerDimensionOneStream) {
  // Diagonal covariance: component i is mu_i + sqrt(var_i) * z_i where
  // all z come from ONE stream at component 0, two words per gaussian.
  VarRef v = pool_.Create("MVNormal", {2.0, 1.0, -1.0, 4.0, 0.0, 0.0, 9.0})
                 .value();
  for (uint64_t k = 0; k < 16; ++k) {
    RandomStream s = DrawStream(v, k);
    double z0 = s.NextGaussian();
    double z1 = s.NextGaussian();
    std::vector<double> joint;
    ASSERT_TRUE(pool_.GenerateJoint(v.var_id, k, 0, &joint).ok());
    ASSERT_EQ(joint.size(), 2u);
    EXPECT_EQ(Bits(joint[0]), Bits(1.0 + 2.0 * z0));
    EXPECT_EQ(Bits(joint[1]), Bits(-1.0 + 3.0 * z1));
  }
}

// ---------------------------------------------------------------------------
// Endpoint hazards: uniforms feeding logs / inverse CDFs
// ---------------------------------------------------------------------------

TEST(EndpointTest, ClampUnitOpenPinsBothEndpointsInside) {
  const double ulp = 0x1.0p-53;
  EXPECT_EQ(ClampUnitOpen(0.0), ulp);
  EXPECT_EQ(ClampUnitOpen(1.0), 1.0 - ulp);
  EXPECT_GT(ClampUnitOpen(0.0), 0.0);
  EXPECT_LT(ClampUnitOpen(1.0), 1.0);
  EXPECT_EQ(ClampUnitOpen(0.5), 0.5);
}

TEST(EndpointTest, InverseCdfFiniteAtPinnedEndpoints) {
  // The open-uniform protocol delivers u in [2^-53, 1 - 2^-53] (exactly
  // 2^-53 at the pinned zero word; NextUniform tops out at 1 - 2^-53
  // because it keeps 53 bits). Every inverse-CDF-capable builtin must map
  // both extremes to finite values — a draw must never be inf/NaN.
  const double lo = 0x1.0p-53;
  const double hi = 1.0 - 0x1.0p-53;
  VariablePool pool(7);
  struct ICase {
    const char* cls;
    std::vector<double> params;
  };
  for (const ICase& c : std::vector<ICase>{{"Normal", {5.0, 2.0}},
                                           {"Uniform", {-1.0, 3.0}},
                                           {"Exponential", {0.5}},
                                           {"Gamma", {2.0, 1.5}},
                                           {"Gamma", {0.5, 1.0}},
                                           {"Lognormal", {0.0, 0.5}},
                                           {"Beta", {2.0, 3.0}},
                                           {"Beta", {0.5, 0.5}},
                                           {"StudentT", {4.0}},
                                           {"Tukey", {0.14}},
                                           {"Poisson", {3.5}},
                                           {"Bernoulli", {0.3}},
                                           {"Categorical", {0.5, 0.3, 0.2}},
                                           {"DiscreteUniform", {1.0, 6.0}},
                                           {"Zipf", {1.1, 50.0}}}) {
    SCOPED_TRACE(std::string(c.cls) + "(" + std::to_string(c.params[0]) +
                 ", ...)");
    VarRef v = pool.Create(c.cls, c.params).value();
    auto at_lo = pool.InverseCdf(v, lo);
    auto at_hi = pool.InverseCdf(v, hi);
    ASSERT_TRUE(at_lo.ok()) << at_lo.status().message();
    ASSERT_TRUE(at_hi.ok()) << at_hi.status().message();
    EXPECT_TRUE(std::isfinite(at_lo.value())) << at_lo.value();
    EXPECT_TRUE(std::isfinite(at_hi.value())) << at_hi.value();
  }
}

TEST(EndpointTest, GeneratedDrawsAreAlwaysFinite) {
  // Belt-and-braces over the generation path itself: no builtin may emit
  // inf/NaN from any sample index (the log(0)/InverseCdf(0) hazards).
  VariablePool pool(31337);
  for (const BuiltinCase& c : AllBuiltins()) {
    SCOPED_TRACE(c.cls);
    VarRef v = pool.Create(c.cls, c.params).value();
    std::vector<double> joint;
    for (uint64_t k = 0; k < 512; ++k) {
      ASSERT_TRUE(pool.GenerateJoint(v.var_id, k, 0, &joint).ok());
      for (double x : joint) EXPECT_TRUE(std::isfinite(x)) << "sample " << k;
    }
  }
}

TEST(EndpointTest, ExponentialInverseCdfAtExactEndpoints) {
  // At the true closed endpoints the quantile is allowed to hit the
  // support boundary (infinity at q = 1 for unbounded support) — only
  // the generation path must stay off them.
  VariablePool pool(7);
  VarRef e = pool.Create("Exponential", {0.5}).value();
  EXPECT_EQ(pool.InverseCdf(e, 0.0).value(), 0.0);
  EXPECT_TRUE(std::isinf(pool.InverseCdf(e, 1.0).value()));
  VarRef p = pool.Create("Poisson", {3.5}).value();
  EXPECT_EQ(pool.InverseCdf(p, 0.0).value(), 0.0);
  EXPECT_TRUE(std::isinf(pool.InverseCdf(p, 1.0).value()));
}

}  // namespace
}  // namespace pip
