/// \file parallel_sampling_test.cc
/// \brief The parallel sampling engine's determinism contract, the
/// RunningStats merge, the plan-shape cache, and the per-plan
/// memoization of distribution tables.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/row_parallel.h"
#include "src/common/running_stats.h"
#include "src/common/special_math.h"
#include "src/common/thread_pool.h"
#include "src/engine/database.h"
#include "src/sql/session.h"

namespace pip {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryChunkOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ThreadPool::For(hits.size(), 8, [&](size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WorkersRunConcurrentlyWithCaller) {
  // Chunk 0 spins until chunk 1 runs: completes only if two executors
  // make progress concurrently (OS timeslicing suffices — this holds
  // even on a single hardware core, unlike a wall-clock speedup test).
  std::atomic<bool> other_ran{false};
  ThreadPool::For(2, 2, [&](size_t i) {
    if (i == 1) {
      other_ran = true;
    } else {
      while (!other_ran) std::this_thread::yield();
    }
  });
  EXPECT_TRUE(other_ran.load());
}

TEST(ThreadPoolTest, SingleWorkerRunsInline) {
  std::vector<int> order;
  ThreadPool::For(5, 1, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// ---------------------------------------------------------------------------
// RunningStats::Merge
// ---------------------------------------------------------------------------

TEST(RunningStatsMergeTest, MergeMatchesSequentialAccumulation) {
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    double x = std::sin(0.1 * i) * 3.0 + 0.5 * i;
    all.Add(x);
    (i < 400 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12 * std::fabs(all.mean()));
  EXPECT_NEAR(left.variance(), all.variance(),
              1e-10 * std::fabs(all.variance()));
}

TEST(RunningStatsMergeTest, StableForTinyMeans) {
  // The regime of workload_test's SampleFirstHasVisibleError: estimating
  // a ~1e-3 probability from indicator samples. The merged moments must
  // agree with a direct two-pass computation to near machine precision.
  const double p = 1.25e-3;
  const int n = 200000;
  std::vector<RunningStats> shards(16);
  RunningStats serial;
  double sum = 0.0;
  std::vector<double> xs;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Deterministic indicator stream with rate ~p.
    double x = (i * 2654435761u % 1000000) < p * 1000000 ? 1.0 : 0.0;
    xs.push_back(x);
    serial.Add(x);
    shards[i % 16].Add(x);
    sum += x;
  }
  RunningStats merged;
  for (auto& s : shards) merged.Merge(s);
  double mean = sum / n;
  double sq = 0.0;
  for (double x : xs) sq += (x - mean) * (x - mean);
  EXPECT_NEAR(merged.mean(), mean, 1e-15);
  EXPECT_NEAR(serial.mean(), mean, 1e-15);
  EXPECT_NEAR(merged.variance(), sq / n, 1e-10 * (sq / n));
  EXPECT_EQ(merged.count(), serial.count());
}

TEST(RunningStatsMergeTest, MergeWithEmptySides) {
  RunningStats a, b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0);
  b.Add(2.0);
  b.Add(4.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_EQ(a.mean(), 3.0);
  RunningStats c;
  a.Merge(c);  // No-op.
  EXPECT_EQ(a.count(), 2);
  EXPECT_EQ(a.mean(), 3.0);
}

// ---------------------------------------------------------------------------
// Engine determinism across num_threads
// ---------------------------------------------------------------------------

class ParallelEngineTest : public ::testing::Test {
 protected:
  SamplingOptions ThreadedOptions(size_t threads) {
    SamplingOptions opts;
    opts.num_threads = threads;
    return opts;
  }

  Database db_{777};
};

TEST_F(ParallelEngineTest, FixedSamplesExpectationBitIdentical) {
  VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) > Expr::Constant(0.5));
  std::vector<ExpectationResult> results;
  for (size_t threads : {1, 2, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    opts.fixed_samples = 1000;
    opts.use_numeric_integration = false;  // Force the sampling path.
    SamplingEngine engine = db_.MakeEngine(opts);
    results.push_back(engine.Expectation(Expr::Var(x), c, true).value());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].expectation, results[0].expectation);
    EXPECT_EQ(results[i].probability, results[0].probability);
    EXPECT_EQ(results[i].samples_used, results[0].samples_used);
    EXPECT_EQ(results[i].attempts, results[0].attempts);
  }
  EXPECT_EQ(results[0].samples_used, 1000u);
}

TEST_F(ParallelEngineTest, RejectionPathBitIdentical) {
  // Two-variable atom: no CDF window, plain rejection over joint draws.
  VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  VarRef y = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) > Expr::Var(y));
  std::vector<ExpectationResult> results;
  for (size_t threads : {1, 2, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    opts.fixed_samples = 2000;
    SamplingEngine engine = db_.MakeEngine(opts);
    results.push_back(engine.Expectation(Expr::Var(x), c, true).value());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].expectation, results[0].expectation);
    EXPECT_EQ(results[i].probability, results[0].probability);
    EXPECT_EQ(results[i].attempts, results[0].attempts);
  }
  EXPECT_NEAR(results[0].expectation, 1.0 / std::sqrt(M_PI), 0.05);
}

TEST_F(ParallelEngineTest, AdaptiveModeBitIdenticalAtChunkBarriers) {
  // Adaptive stopping is evaluated at chunk barriers only, so serial and
  // parallel runs accept the same index set — results are bit-identical,
  // not merely statistically consistent.
  VarRef x = db_.CreateVariable("Normal", {50.0, 4.0}).value();
  std::vector<ExpectationResult> results;
  for (size_t threads : {1, 2, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    opts.use_numeric_integration = false;
    opts.delta = 0.005;
    SamplingEngine engine = db_.MakeEngine(opts);
    results.push_back(
        engine.Expectation(Expr::Var(x), Condition::True(), false).value());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].expectation, results[0].expectation);
    EXPECT_EQ(results[i].samples_used, results[0].samples_used);
  }
  EXPECT_GT(results[0].samples_used, 0u);
  EXPECT_NEAR(results[0].expectation, 50.0, 1.0);
}

TEST_F(ParallelEngineTest, ConfidenceBitIdentical) {
  // A two-variable atom sends the group through the Monte Carlo
  // probability estimator (no exact CDF, no free acceptance rate).
  VarRef x = db_.CreateVariable("Uniform", {0.0, 1.0}).value();
  VarRef y = db_.CreateVariable("Uniform", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) + Expr::Var(y) < Expr::Constant(1.0));
  std::vector<double> probs;
  for (size_t threads : {1, 2, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    opts.fixed_samples = 4000;
    SamplingEngine engine = db_.MakeEngine(opts);
    probs.push_back(engine.Confidence(c).value().probability);
  }
  EXPECT_EQ(probs[1], probs[0]);
  EXPECT_EQ(probs[2], probs[0]);
  EXPECT_NEAR(probs[0], 0.5, 0.05);
}

TEST_F(ParallelEngineTest, SampleConditionalBitIdentical) {
  VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  Condition c;
  c.AddAtom(Expr::Var(x) > Expr::Constant(0.25));
  c.AddAtom(Expr::Var(x) < Expr::Constant(2.0));
  std::vector<std::vector<double>> draws;
  for (size_t threads : {1, 2, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    SamplingEngine engine = db_.MakeEngine(opts);
    draws.push_back(
        engine.SampleConditional(Expr::Var(x), c, 999).value());
  }
  ASSERT_EQ(draws[0].size(), 999u);
  EXPECT_EQ(draws[1], draws[0]);
  EXPECT_EQ(draws[2], draws[0]);
  for (double v : draws[0]) {
    EXPECT_GT(v, 0.25);
    EXPECT_LT(v, 2.0);
  }
}

TEST_F(ParallelEngineTest, JointConfidenceMonteCarloBitIdentical) {
  VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  std::vector<Condition> disjuncts;
  for (int k = 0; k < 8; ++k) {
    disjuncts.emplace_back(Expr::Var(x) >
                           Expr::Constant(static_cast<double>(k)));
  }
  std::vector<double> probs;
  for (size_t threads : {1, 2, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    opts.fixed_samples = 20000;
    SamplingEngine engine = db_.MakeEngine(opts);
    probs.push_back(engine.JointConfidence(disjuncts).value());
  }
  EXPECT_EQ(probs[1], probs[0]);
  EXPECT_EQ(probs[2], probs[0]);
  EXPECT_NEAR(probs[0], 0.5, 0.02);
}

TEST_F(ParallelEngineTest, MetropolisPathDeterministicAcrossThreads) {
  // A forced Metropolis switch flips the pilot shard into chain mode;
  // the remaining chunks then run serially on the chain, so the result
  // is identical for every num_threads by construction. (Threshold and
  // check window are forced low to make the switch seed-robust.)
  VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  VarRef y = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) - Expr::Var(y) > Expr::Constant(4.0));
  std::vector<ExpectationResult> results;
  for (size_t threads : {1, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    opts.fixed_samples = 1500;
    opts.metropolis_threshold = 0.5;
    opts.metropolis_check_after = 64;
    SamplingEngine engine = db_.MakeEngine(opts);
    results.push_back(
        engine.Expectation(Expr::Var(x) - Expr::Var(y), c, false).value());
  }
  EXPECT_EQ(results[1].expectation, results[0].expectation);
  EXPECT_EQ(results[0].samples_used, 1500u);
  // E[X - Y | X - Y > 4] for N(0, sqrt(2)) is ~4.45.
  EXPECT_GT(results[0].expectation, 4.0);
  EXPECT_LT(results[0].expectation, 5.0);
}

TEST_F(ParallelEngineTest, BudgetCollapseYieldsNanAtEveryThreadCount) {
  // Effectively unsatisfiable without Metropolis: every shard's budget
  // collapses, the first collapse cancels the rest, and the visible
  // result is the paper's (NAN, 0) regardless of num_threads.
  VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  VarRef y = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) - Expr::Var(y) > Expr::Constant(14.0));
  for (size_t threads : {1, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    opts.fixed_samples = 300;  // Several chunks.
    opts.use_metropolis = false;
    opts.max_total_attempts = 200000;
    SamplingEngine engine = db_.MakeEngine(opts);
    auto r = engine.Expectation(Expr::Var(x), c, true).value();
    EXPECT_TRUE(std::isnan(r.expectation)) << "threads=" << threads;
    EXPECT_EQ(r.probability, 0.0);
  }
}

TEST_F(ParallelEngineTest, ParallelAggregatesMatchSerial) {
  // ExpectedMax over probabilistic cells goes through the
  // world-instantiated path, whose world space is sharded too.
  CTable table(Schema({"v"}));
  for (int i = 0; i < 20; ++i) {
    VarRef x =
        db_.CreateVariable("Normal", {static_cast<double>(i), 1.0}).value();
    ASSERT_TRUE(table.Append({Expr::Var(x)}).ok());
  }
  std::vector<double> maxima;
  for (size_t threads : {1, 2, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    SamplingEngine engine = db_.MakeEngine(opts);
    AggregateEvaluator agg(&engine);
    maxima.push_back(agg.ExpectedMax(table, "v").value());
  }
  EXPECT_EQ(maxima[1], maxima[0]);
  EXPECT_EQ(maxima[2], maxima[0]);
  EXPECT_NEAR(maxima[0], 19.0, 1.0);
}

// ---------------------------------------------------------------------------
// Plan-shape cache
// ---------------------------------------------------------------------------

TEST_F(ParallelEngineTest, PlanCacheHitsAcrossRowsSharingAShape) {
  SamplingOptions opts;
  opts.fixed_samples = 64;
  SamplingEngine engine = db_.MakeEngine(opts);
  // 10 "rows": same condition shape (fresh Normal > constant), distinct
  // variables and constants.
  for (int i = 0; i < 10; ++i) {
    VarRef x =
        db_.CreateVariable("Normal", {0.0, 1.0 + 0.1 * i}).value();
    Condition c(Expr::Var(x) > Expr::Constant(0.1 * i));
    ASSERT_TRUE(engine.Expectation(Expr::Var(x), c, true).ok());
  }
  PlanCache::Stats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 9u);
}

TEST_F(ParallelEngineTest, PlanCacheDistinguishesShapes) {
  SamplingOptions opts;
  opts.fixed_samples = 64;
  SamplingEngine engine = db_.MakeEngine(opts);
  VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  VarRef u = db_.CreateVariable("Uniform", {0.0, 1.0}).value();
  // Different atom operator, different class, different variable-sharing
  // pattern: all distinct shapes.
  ASSERT_TRUE(engine
                  .Expectation(Expr::Var(x),
                               Condition(Expr::Var(x) > Expr::Constant(0.0)),
                               false)
                  .ok());
  ASSERT_TRUE(engine
                  .Expectation(Expr::Var(x),
                               Condition(Expr::Var(x) < Expr::Constant(0.0)),
                               false)
                  .ok());
  ASSERT_TRUE(engine
                  .Expectation(Expr::Var(u),
                               Condition(Expr::Var(u) > Expr::Constant(0.5)),
                               false)
                  .ok());
  ASSERT_TRUE(engine
                  .Expectation(Expr::Var(x),
                               Condition(Expr::Var(x) > Expr::Var(u)), false)
                  .ok());
  EXPECT_EQ(engine.plan_cache_stats().misses, 4u);
}

TEST_F(ParallelEngineTest, CachedPlansProduceIdenticalResults) {
  VarRef x = db_.CreateVariable("Normal", {1.0, 2.0}).value();
  Condition c(Expr::Var(x) > Expr::Constant(0.5));
  SamplingOptions opts;
  opts.fixed_samples = 500;
  opts.use_numeric_integration = false;
  // Fresh engine (cold cache) vs an engine that planned this shape
  // before: same bits.
  SamplingEngine cold = db_.MakeEngine(opts);
  SamplingEngine warm = db_.MakeEngine(opts);
  auto warmup = warm.Expectation(Expr::Var(x), c, true).value();
  auto from_cold = cold.Expectation(Expr::Var(x), c, true).value();
  auto from_warm = warm.Expectation(Expr::Var(x), c, true).value();
  EXPECT_EQ(from_warm.expectation, from_cold.expectation);
  EXPECT_EQ(from_warm.probability, from_cold.probability);
  EXPECT_EQ(warmup.expectation, from_warm.expectation);
  EXPECT_GE(warm.plan_cache_stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// Per-plan memoization micro-test (one computation per plan, not per
// attempt)
// ---------------------------------------------------------------------------

/// A finite discrete law (values 0..3, uniform) that counts every
/// capability call, so tests can prove the engine touches the
/// distribution O(domain) times per *plan* instead of per attempt.
class CountingDist : public Distribution {
 public:
  static std::atomic<size_t> pdf_calls, cdf_calls, inverse_cdf_calls,
      domain_calls;

  static void ResetCounters() {
    pdf_calls = cdf_calls = inverse_cdf_calls = domain_calls = 0;
  }

  const std::string& name() const override {
    static const std::string n = "CountingUniform4";
    return n;
  }
  DomainKind domain() const override { return DomainKind::kDiscrete; }
  uint32_t Capabilities() const override {
    return kGenerate | kPdf | kCdf | kInverseCdf | kFiniteDomain;
  }
  Status ValidateParams(const std::vector<double>& p) const override {
    return p.empty() ? Status::OK()
                     : Status::InvalidArgument(name() + ": no parameters");
  }
  Status GenerateJoint(const std::vector<double>&, const SampleContext& ctx,
                       std::vector<double>* out) const override {
    RandomStream stream = ctx.StreamFor(0);
    out->assign(1, std::floor(stream.NextUniform() * 4.0));
    return Status::OK();
  }
  StatusOr<double> Pdf(const std::vector<double>&, uint32_t,
                       double x) const override {
    ++pdf_calls;
    return (x == std::floor(x) && x >= 0.0 && x <= 3.0) ? 0.25 : 0.0;
  }
  StatusOr<double> Cdf(const std::vector<double>&, uint32_t,
                       double x) const override {
    ++cdf_calls;
    if (x < 0.0) return 0.0;
    return std::min(1.0, (std::floor(x) + 1.0) * 0.25);
  }
  StatusOr<double> InverseCdf(const std::vector<double>&, uint32_t,
                              double q) const override {
    ++inverse_cdf_calls;
    return std::min(3.0, std::max(0.0, std::ceil(q * 4.0) - 1.0));
  }
  StatusOr<std::vector<double>> DomainValues(
      const std::vector<double>&) const override {
    ++domain_calls;
    return std::vector<double>{0.0, 1.0, 2.0, 3.0};
  }
  StatusOr<size_t> DomainSize(const std::vector<double>&) const override {
    return 4;
  }
  Interval Support(const std::vector<double>&, uint32_t) const override {
    return Interval(0.0, 3.0);
  }
};

std::atomic<size_t> CountingDist::pdf_calls{0};
std::atomic<size_t> CountingDist::cdf_calls{0};
std::atomic<size_t> CountingDist::inverse_cdf_calls{0};
std::atomic<size_t> CountingDist::domain_calls{0};

TEST_F(ParallelEngineTest, QuantileTableBuiltOncePerPlanNotPerAttempt) {
  auto status =
      DistributionRegistry::Global().Register(std::make_unique<CountingDist>());
  // AlreadyExists is fine when multiple tests in this binary register it.
  ASSERT_TRUE(status.ok() || status.code() == StatusCode::kAlreadyExists);

  VarRef x = db_.CreateVariable("CountingUniform4", {}).value();
  Condition c(Expr::Var(x) >= Expr::Constant(1.0));

  SamplingOptions opts;
  opts.fixed_samples = 512;
  opts.use_numeric_integration = false;  // Force the sampling loop.
  SamplingEngine engine = db_.MakeEngine(opts);

  CountingDist::ResetCounters();
  auto r = engine.Expectation(Expr::Var(x), c, true).value();
  EXPECT_EQ(r.samples_used, 512u);
  EXPECT_NEAR(r.expectation, 2.0, 0.1);
  EXPECT_EQ(r.probability, 0.75);

  // One plan: the quantile table costs O(domain) Pdf calls and the
  // window/exact-probability evaluation a handful of Cdf calls — none of
  // them scale with the 512 samples, and the per-attempt InverseCdf is
  // gone entirely.
  EXPECT_EQ(CountingDist::inverse_cdf_calls.load(), 0u);
  EXPECT_LE(CountingDist::pdf_calls.load(), 16u);
  EXPECT_LE(CountingDist::cdf_calls.load(), 8u);
  EXPECT_LE(CountingDist::domain_calls.load(), 2u);
}

// ---------------------------------------------------------------------------
// num_threads plumbing: Database defaults and SQL SET
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// One parallel axis per region, and the caller-runs join
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ChunkBodiesSeeWidthOne) {
  // Outside any region the width is the resolved thread count; inside a
  // chunk body (on workers and on the participating caller alike) it is
  // 1, so a region's body never starts another region.
  EXPECT_EQ(ThreadPool::Width(8), 8u);
  std::vector<size_t> widths(6, 0);
  ThreadPool::For(widths.size(), 4,
                  [&](size_t i) { widths[i] = ThreadPool::Width(8); });
  for (size_t w : widths) EXPECT_EQ(w, 1u);
  EXPECT_EQ(ThreadPool::Width(8), 8u);  // Restored after the region.
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A nested loop inside a chunk body must execute on the same thread
  // (inline), not fan back into the pool.
  std::atomic<bool> all_inline{true};
  ThreadPool::For(4, 4, [&](size_t) {
    std::thread::id outer_id = std::this_thread::get_id();
    ThreadPool::For(4, 4, [&](size_t) {
      if (std::this_thread::get_id() != outer_id) all_inline = false;
    });
  });
  EXPECT_TRUE(all_inline.load());
}

TEST(ThreadPoolTest, DegradedLoopLetsItsBodyFanOut) {
  // A single-chunk (or single-worker) loop is not a region: its body
  // keeps the full width, so deeper calls may still fan out.
  size_t one_chunk = 0;
  ThreadPool::For(1, 8, [&](size_t) { one_chunk = ThreadPool::Width(8); });
  EXPECT_EQ(one_chunk, 8u);
  std::vector<size_t> one_worker(3, 0);
  ThreadPool::For(one_worker.size(), 1,
                  [&](size_t i) { one_worker[i] = ThreadPool::Width(8); });
  for (size_t w : one_worker) EXPECT_EQ(w, 8u);
}

TEST(ThreadPoolTest, NestedLoopsRunInlineAndCountNoNestedTasks) {
  // Private pool so the counters are isolated from other tests' use of
  // Shared(). The outer 2-chunk loop at width 8 is the only region; each
  // body's inner 4-chunk loop runs inline, so no helper task of a nested
  // region ever exists.
  ThreadPool pool(4);
  std::atomic<size_t> leaves{0};
  pool.ParallelFor(2, 8, [&](size_t) {
    pool.ParallelFor(4, 8, [&](size_t) { ++leaves; });
  });
  EXPECT_EQ(leaves.load(), 8u);
  const ThreadPool::SchedulerStats stats = pool.scheduler_stats();
  EXPECT_EQ(stats.regions, 1u);
  EXPECT_EQ(stats.inline_regions, 2u);  // One inner loop per outer body.
  EXPECT_EQ(stats.nested_tasks, 0u);
}

TEST(ThreadPoolTest, RegionCompletesWhileEveryWorkerIsParked) {
  // The pool's only worker is parked inside a long task, so the region's
  // helper stays queued. The caller runs every chunk itself and returns
  // without waiting for the helper, which later finds nothing to claim:
  // it runs after `fn` is gone and must not touch it (ASan and TSan cover
  // that path).
  ThreadPool pool(1);
  std::atomic<bool> blocked{false};
  std::atomic<bool> release{false};
  pool.Submit([&] {
    blocked = true;
    while (!release) std::this_thread::yield();
  });
  while (!blocked) std::this_thread::yield();
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h = 0;
  auto fn = std::make_unique<std::function<void(size_t)>>(
      [&](size_t i) { ++hits[i]; });
  pool.ParallelFor(4, 2, *fn);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The caller never blocked, and only the parked task has started.
  const ThreadPool::SchedulerStats stats = pool.scheduler_stats();
  EXPECT_EQ(stats.regions, 1u);
  EXPECT_EQ(stats.worker_tasks, 1u);
  EXPECT_EQ(stats.join_waits, 0u);
  fn.reset();
  release = true;
  // The queue is FIFO: once a task queued now has run, so has the helper.
  std::atomic<bool> sentinel{false};
  pool.Submit([&] { sentinel = true; });
  while (!sentinel) std::this_thread::yield();
  // Three worker tasks (parked, helper, sentinel): the helper was still
  // queued when the caller returned, and it ran on the worker, after fn.
  EXPECT_EQ(pool.scheduler_stats().worker_tasks, 3u);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, JoinWaitsAtMostOncePerRegion) {
  // The caller's chunk (1 ms) ends while the helpers' chunks (5 ms) are
  // still running, so the caller blocks; it blocks once per region
  // however long the helpers' chunks take.
  ThreadPool pool(2);
  constexpr size_t kRegions = 5;
  std::atomic<size_t> leaves{0};
  for (size_t r = 0; r < kRegions; ++r) {
    pool.ParallelFor(3, 3, [&](size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 1 : 5));
      ++leaves;
    });
  }
  EXPECT_EQ(leaves.load(), kRegions * 3);
  const ThreadPool::SchedulerStats stats = pool.scheduler_stats();
  EXPECT_EQ(stats.regions, kRegions);
  EXPECT_LE(stats.join_waits, stats.regions);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(ThreadPoolTest, ConcurrentRegionsAreDeadlockFree) {
  // Four callers (like four server sessions) open wide regions on a
  // 2-worker pool at once, so helpers of finished regions queue ahead of
  // live ones. Completing at all, with every chunk run once, is the
  // assertion: a caller runs its own chunks and waits only for chunks a
  // running helper claimed, never for a queued one.
  ThreadPool pool(2);
  constexpr size_t kCallers = 4;
  constexpr size_t kRounds = 50;
  std::atomic<size_t> leaves{0};
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (size_t r = 0; r < kRounds; ++r) {
        pool.ParallelFor(6, 16, [&](size_t) { ++leaves; });
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(leaves.load(), kCallers * kRounds * 6);
  EXPECT_EQ(pool.scheduler_stats().regions, kCallers * kRounds);
}

TEST(ThreadPoolTest, ParallelRowsPicksOneAxis) {
  // Fewer rows than the width: the rows run serially outside any region,
  // so each row's inner loop (its sample axis) fans out. At least as
  // many rows as the width: the rows fan out and each body is inside the
  // region, so its inner loop runs inline.
  ThreadPool& pool = ThreadPool::Shared();
  for (size_t rows : {2, 8}) {
    std::vector<size_t> widths(rows, 0);
    const ThreadPool::SchedulerStats before = pool.scheduler_stats();
    Status s = ParallelRows(
        rows, 8, [&](size_t row, const RowBatchContext&) -> Status {
          widths[row] = ThreadPool::Width(8);
          ThreadPool::For(4, 8, [](size_t) {});
          return Status::OK();
        });
    ASSERT_TRUE(s.ok());
    const ThreadPool::SchedulerStats after = pool.scheduler_stats();
    const bool rows_fan_out = rows >= 8;
    for (size_t w : widths) EXPECT_EQ(w, rows_fan_out ? 1u : 8u);
    EXPECT_EQ(after.regions - before.regions, rows_fan_out ? 1u : rows)
        << "rows=" << rows;
    EXPECT_EQ(after.nested_tasks - before.nested_tasks, 0u);
  }
}

// ---------------------------------------------------------------------------
// Row-parallel batch evaluation (rows as the outer parallel axis)
// ---------------------------------------------------------------------------

class RowParallelTest : public ::testing::Test {
 protected:
  /// A c-table of `rows` rows: cell Normal(i, 1) under condition
  /// (cell > i - 1), plus one unsatisfiable row in the middle.
  CTable MakeBatch(int rows) {
    CTable t(Schema({"v"}));
    for (int i = 0; i < rows; ++i) {
      VarRef x =
          db_.CreateVariable("Normal", {static_cast<double>(i), 1.0}).value();
      Condition c(Expr::Var(x) > Expr::Constant(static_cast<double>(i) - 1.0));
      PIP_CHECK(t.Append({Expr::Var(x)}, c).ok());
      if (i == rows / 2) {
        VarRef u = db_.CreateVariable("Uniform", {0.0, 1.0}).value();
        PIP_CHECK(t.Append({Expr::Constant(1.0)},
                           Condition(Expr::Var(u) > Expr::Constant(2.0)))
                      .ok());
      }
    }
    return t;
  }

  SamplingOptions ThreadedOptions(size_t threads) {
    SamplingOptions opts;
    opts.num_threads = threads;
    opts.fixed_samples = 400;
    opts.use_numeric_integration = false;  // Force per-row sampling.
    return opts;
  }

  Database db_{4242};
};

TEST_F(RowParallelTest, AnalyzeBitIdenticalAcrossThreads) {
  CTable t = MakeBatch(12);
  AnalyzeSpec spec;
  spec.expectation_columns = {"v"};
  spec.with_confidence = true;
  std::vector<std::string> outputs;
  for (size_t threads : {1, 2, 8}) {
    SamplingEngine engine = db_.MakeEngine(ThreadedOptions(threads));
    Table out = Analyze(t, engine, spec).value();
    EXPECT_EQ(out.num_rows(), 12u);  // The unsatisfiable row is dropped.
    outputs.push_back(out.ToString());
  }
  EXPECT_EQ(outputs[1], outputs[0]);
  EXPECT_EQ(outputs[2], outputs[0]);
}

TEST_F(RowParallelTest, ExpectedSumAndGroupedAggregatesBitIdentical) {
  CTable t = MakeBatch(10);
  std::vector<double> sums, counts, avgs;
  for (size_t threads : {1, 2, 8}) {
    SamplingEngine engine = db_.MakeEngine(ThreadedOptions(threads));
    AggregateEvaluator agg(&engine);
    sums.push_back(agg.ExpectedSum(t, "v").value());
    counts.push_back(agg.ExpectedCount(t).value());
    avgs.push_back(agg.ExpectedAvg(t, "v").value());
  }
  for (size_t i = 1; i < sums.size(); ++i) {
    EXPECT_EQ(sums[i], sums[0]);
    EXPECT_EQ(counts[i], counts[0]);
    EXPECT_EQ(avgs[i], avgs[0]);
  }
  // Exact-CDF row confidences: 10 satisfiable rows at P[N(i,1) > i-1]
  // each, plus the unsatisfiable row at 0.
  EXPECT_NEAR(counts[0], 10.0 * (1.0 - NormalCdf(-1.0)), 1e-6);
}

TEST_F(RowParallelTest, AconfGroupsBitIdenticalAcrossThreads) {
  // Several groups of bag-encoded disjuncts; the group loop is the
  // parallel axis.
  CTable t(Schema({"tag"}));
  for (int g = 0; g < 4; ++g) {
    for (int d = 0; d < 3; ++d) {
      VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
      Condition c(Expr::Var(x) >
                  Expr::Constant(static_cast<double>(g) - 1.0 + 0.3 * d));
      PIP_CHECK(
          t.Append({Expr::Constant(static_cast<double>(g))}, c).ok());
    }
  }
  std::vector<std::string> outputs;
  for (size_t threads : {1, 2, 8}) {
    SamplingEngine engine = db_.MakeEngine(ThreadedOptions(threads));
    outputs.push_back(AnalyzeJointConfidence(t, engine).value().ToString());
  }
  EXPECT_EQ(outputs[1], outputs[0]);
  EXPECT_EQ(outputs[2], outputs[0]);
}

TEST_F(RowParallelTest, MiddleRowErrorSurfacesSameStatusAsSerial) {
  // Row 2's expectation target is a string constant: EvalDouble fails
  // inside the engine. The parallel batch must surface the same error
  // (the first in ROW order) as the serial loop, not whichever row
  // happened to fail first on the clock.
  CTable t(Schema({"v"}));
  for (int i = 0; i < 5; ++i) {
    if (i == 2) {
      PIP_CHECK(t.Append({Expr::String("oops")}).ok());
    } else {
      VarRef x = db_.CreateVariable("Normal", {1.0, 1.0}).value();
      PIP_CHECK(t.Append({Expr::Var(x)}).ok());
    }
  }
  AnalyzeSpec spec;
  spec.expectation_columns = {"v"};
  Status serial, parallel;
  {
    SamplingEngine engine = db_.MakeEngine(ThreadedOptions(1));
    serial = Analyze(t, engine, spec).status();
  }
  {
    SamplingEngine engine = db_.MakeEngine(ThreadedOptions(8));
    parallel = Analyze(t, engine, spec).status();
  }
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(parallel.code(), serial.code());
  EXPECT_EQ(parallel.message(), serial.message());
}

TEST_F(RowParallelTest, ProbabilisticPassthroughErrorMatchesSerial) {
  CTable t(Schema({"tag", "v"}));
  for (int i = 0; i < 5; ++i) {
    VarRef x = db_.CreateVariable("Normal", {1.0, 1.0}).value();
    ExprPtr tag = i == 2 ? Expr::Var(x) : Expr::Constant(static_cast<double>(i));
    PIP_CHECK(t.Append({tag, Expr::Var(x)}).ok());
  }
  AnalyzeSpec spec;
  spec.passthrough_columns = {"tag"};
  spec.expectation_columns = {"v"};
  Status serial, parallel;
  {
    SamplingEngine engine = db_.MakeEngine(ThreadedOptions(1));
    serial = Analyze(t, engine, spec).status();
  }
  {
    SamplingEngine engine = db_.MakeEngine(ThreadedOptions(8));
    parallel = Analyze(t, engine, spec).status();
  }
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(parallel.code(), serial.code());
  EXPECT_EQ(parallel.message(), serial.message());
}

TEST_F(RowParallelTest, AnalyzeNestedShapesBitIdenticalToSerial) {
  // Few-rows-many-threads shapes: with rows < threads the rows run
  // serially and each row's sample axis fans out; with rows >= threads
  // the rows fan out. Every shape must still be byte-identical to the
  // serial row loop.
  for (int rows : {1, 2, 4}) {
    CTable t = MakeBatch(rows);
    AnalyzeSpec spec;
    spec.expectation_columns = {"v"};
    spec.with_confidence = true;
    std::string serial;
    for (size_t threads : {1, 3, 8}) {
      SamplingEngine engine = db_.MakeEngine(ThreadedOptions(threads));
      Table out = Analyze(t, engine, spec).value();
      if (threads == 1) {
        serial = out.ToString();
      } else {
        EXPECT_EQ(out.ToString(), serial)
            << "rows=" << rows << " threads=" << threads;
      }
    }
  }
}

TEST_F(RowParallelTest, AconfBitIdenticalAtOddThreadCounts) {
  // Odd thread counts give uneven region widths; the fold must stay
  // byte-identical regardless.
  CTable t(Schema({"tag"}));
  for (int g = 0; g < 5; ++g) {
    for (int d = 0; d < 2; ++d) {
      VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
      Condition c(Expr::Var(x) >
                  Expr::Constant(static_cast<double>(g) - 1.0 + 0.4 * d));
      PIP_CHECK(t.Append({Expr::Constant(static_cast<double>(g))}, c).ok());
    }
  }
  std::string serial;
  for (size_t threads : {1, 3, 5}) {
    SamplingEngine engine = db_.MakeEngine(ThreadedOptions(threads));
    Table out = AnalyzeJointConfidence(t, engine).value();
    if (threads == 1) {
      serial = out.ToString();
    } else {
      EXPECT_EQ(out.ToString(), serial) << "threads=" << threads;
    }
  }
}

TEST_F(RowParallelTest, GroupedAggregateNestedShapesBitIdenticalToSerial) {
  // Grouped aggregation has three axes (groups, rows, samples), one per
  // region; run it across the nested-shape grid, including group counts
  // below the thread count.
  for (int groups : {1, 2, 4}) {
    CTable t(Schema({"g", "v"}));
    for (int g = 0; g < groups; ++g) {
      for (int d = 0; d < 2; ++d) {
        VarRef x = db_.CreateVariable(
                          "Normal", {static_cast<double>(g + d), 1.0})
                       .value();
        Condition c(Expr::Var(x) > Expr::Constant(static_cast<double>(g) - 1.0));
        PIP_CHECK(t.Append({Expr::Constant(static_cast<double>(g)),
                            Expr::Var(x)},
                           c)
                      .ok());
      }
    }
    std::string serial;
    for (size_t threads : {1, 3, 8}) {
      SamplingEngine engine = db_.MakeEngine(ThreadedOptions(threads));
      AggregateEvaluator agg(&engine);
      Table out = GroupedAggregate(agg, t, {"g"}, "v",
                                   GroupAggregate::kExpectedSum)
                      .value();
      if (threads == 1) {
        serial = out.ToString();
      } else {
        EXPECT_EQ(out.ToString(), serial)
            << "groups=" << groups << " threads=" << threads;
      }
    }
  }
}

TEST_F(RowParallelTest, AnalyzeBitIdenticalAtOddThreadCounts) {
  CTable t = MakeBatch(7);
  AnalyzeSpec spec;
  spec.expectation_columns = {"v"};
  spec.with_confidence = true;
  std::string serial;
  for (size_t threads : {1, 3, 5}) {
    SamplingEngine engine = db_.MakeEngine(ThreadedOptions(threads));
    Table out = Analyze(t, engine, spec).value();
    if (threads == 1) {
      serial = out.ToString();
    } else {
      EXPECT_EQ(out.ToString(), serial) << "threads=" << threads;
    }
  }
}

TEST_F(RowParallelTest, LaterRowObservesCancellationAfterEarlierFailure) {
  // The mid-body cancellation protocol: a row dispatched before an
  // earlier row recorded its failure sees the flag flip live through its
  // RowBatchContext and can bail out mid-body. The surfaced error is
  // still the first in ROW order — the cancelled row's own status is
  // shadowed, exactly as if a serial loop had never reached it.
  std::atomic<bool> row1_started{false};
  std::atomic<bool> observed_cancel{false};
  Status result = ParallelRows(
      2, 2, [&](size_t row, const RowBatchContext& ctx) -> Status {
        if (row == 1) {
          EXPECT_FALSE(ctx.Cancelled());  // No failure recorded yet.
          row1_started = true;
          while (!ctx.Cancelled()) std::this_thread::yield();
          observed_cancel = true;
          return Status::Cancelled("row 1 bailed early");
        }
        // Row 0 waits until row 1 is live mid-body, then fails: the
        // cancellation below is necessarily a *mid-body* abort, not the
        // pre-dispatch skip.
        while (!row1_started) std::this_thread::yield();
        return Status::InvalidArgument("row 0 failed");
      });
  EXPECT_EQ(result.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.message(), "row 0 failed");
  EXPECT_TRUE(observed_cancel.load());
}

TEST_F(RowParallelTest, SerialRowLoopNeverReportsCancellation) {
  // The serial path hands bodies a default RowBatchContext that is never
  // cancelled: a serial loop stops at the first error by itself, so row
  // bodies after a failure simply don't run.
  std::vector<size_t> ran;
  Status result = ParallelRows(
      3, 1, [&](size_t row, const RowBatchContext& ctx) -> Status {
        EXPECT_FALSE(ctx.Cancelled());
        ran.push_back(row);
        if (row == 1) return Status::InvalidArgument("row 1 failed");
        return Status::OK();
      });
  EXPECT_EQ(result.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// The shared pilot/chain/budget chunk driver (Expectation and
// SampleConditional collapse semantics stay unchanged)
// ---------------------------------------------------------------------------

TEST_F(ParallelEngineTest, SampleConditionalTruncationBitIdentical) {
  // Effectively unsatisfiable two-variable condition with Metropolis
  // off: shard budgets collapse and the result is a truncated prefix.
  // The shared chunk driver must keep that prefix bit-identical across
  // thread counts (the serial engine's collapse behavior).
  VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  VarRef y = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) - Expr::Var(y) > Expr::Constant(14.0));
  std::vector<std::vector<double>> draws;
  for (size_t threads : {1, 2, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    opts.use_metropolis = false;
    opts.max_total_attempts = 200000;
    SamplingEngine engine = db_.MakeEngine(opts);
    draws.push_back(
        engine.SampleConditional(Expr::Var(x) - Expr::Var(y), c, 300).value());
  }
  EXPECT_LT(draws[0].size(), 300u);
  EXPECT_EQ(draws[1], draws[0]);
  EXPECT_EQ(draws[2], draws[0]);
}

TEST_F(ParallelEngineTest, SampleConditionalMetropolisChainUnchanged) {
  // A forced Metropolis switch sends SampleConditional down the shared
  // driver's chain-serial path; every thread count follows the same
  // chain, so the draws are identical by construction.
  VarRef x = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  VarRef y = db_.CreateVariable("Normal", {0.0, 1.0}).value();
  Condition c(Expr::Var(x) - Expr::Var(y) > Expr::Constant(4.0));
  std::vector<std::vector<double>> draws;
  for (size_t threads : {1, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    opts.metropolis_threshold = 0.5;
    opts.metropolis_check_after = 64;
    SamplingEngine engine = db_.MakeEngine(opts);
    draws.push_back(
        engine.SampleConditional(Expr::Var(x) - Expr::Var(y), c, 500).value());
  }
  ASSERT_EQ(draws[0].size(), 500u);
  EXPECT_EQ(draws[1], draws[0]);
  for (double v : draws[0]) EXPECT_GT(v, 4.0);
}

TEST_F(ParallelEngineTest, CancelCheckStopsEveryMonteCarloLoop) {
  // One case per Monte Carlo loop: the accept loop through Expectation
  // and SampleConditional, the group hit-rate estimator through
  // Confidence, and joint Monte Carlo through JointConfidence. Each call
  // succeeds on a plain engine and is cancelled at its first chunk fold
  // on an engine whose cancel_check always fires.
  VarRef x = db_.CreateVariable("Normal", {5.0, 2.0}).value();
  VarRef y = db_.CreateVariable("Normal", {3.0, 1.0}).value();
  ExprPtr product = Expr::Var(x) * Expr::Var(y);
  Condition two_var(Expr::Var(x) + Expr::Var(y) > Expr::Constant(9.0));
  std::vector<Condition> disjuncts;
  for (int i = 0; i < 7; ++i) {
    disjuncts.emplace_back(Expr::Var(x) - Expr::Var(y) >
                           Expr::Constant(1.0 + 0.5 * i));
  }
  struct Case {
    const char* loop;
    std::function<Status(const SamplingEngine&)> call;
  };
  const std::vector<Case> cases = {
      {"Expectation",
       [&](const SamplingEngine& e) {
         return e.Expectation(product, two_var, true).status();
       }},
      {"SampleConditional",
       [&](const SamplingEngine& e) {
         return e.SampleConditional(product, two_var, 256).status();
       }},
      {"Confidence",
       [&](const SamplingEngine& e) { return e.Confidence(two_var).status(); }},
      {"JointConfidence",
       [&](const SamplingEngine& e) {
         return e.JointConfidence(disjuncts).status();
       }},
  };
  for (size_t threads : {1, 8}) {
    SamplingOptions opts = ThreadedOptions(threads);
    opts.use_numeric_integration = false;
    SamplingEngine plain = db_.MakeEngine(opts);
    SamplingEngine cancelled = plain.WithCancelCheck([] { return true; });
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.loop) +
                   " threads=" + std::to_string(threads));
      EXPECT_TRUE(c.call(plain).ok());
      EXPECT_EQ(c.call(cancelled).code(), StatusCode::kCancelled);
    }
  }
}

TEST(OptionsPlumbingTest, DatabaseDefaultsReachSessions) {
  Database db(123);
  SamplingOptions defaults;
  defaults.num_threads = 3;
  defaults.fixed_samples = 77;
  db.set_default_options(defaults);
  EXPECT_EQ(db.MakeEngine().options().num_threads, 3u);

  sql::Session session(&db);
  EXPECT_EQ(session.mutable_options()->num_threads, 3u);
  EXPECT_EQ(session.mutable_options()->fixed_samples, 77u);
}

TEST(OptionsPlumbingTest, SqlSetUpdatesSessionOptions) {
  Database db(123);
  sql::Session session(&db);
  EXPECT_TRUE(session.Execute("SET num_threads = 4").ok());
  EXPECT_EQ(session.mutable_options()->num_threads, 4u);
  EXPECT_TRUE(session.Execute("SET FIXED_SAMPLES = 256;").ok());
  EXPECT_EQ(session.mutable_options()->fixed_samples, 256u);
  EXPECT_TRUE(session.Execute("SET delta = 0.1").ok());
  EXPECT_EQ(session.mutable_options()->delta, 0.1);

  EXPECT_FALSE(session.Execute("SET nonsense = 1").ok());
  EXPECT_FALSE(session.Execute("SET num_threads = 1.5").ok());
  EXPECT_FALSE(session.Execute("SET num_threads = -2").ok());
  EXPECT_FALSE(session.Execute("SET epsilon = 1.5").ok());
  EXPECT_FALSE(session.Execute("SET epsilon = 0").ok());
  EXPECT_FALSE(session.Execute("SET delta = -0.1").ok());
}

TEST(OptionsPlumbingTest, SqlSetThreadsKeepsQueriesDeterministic) {
  // The same query under different SET NUM_THREADS values returns the
  // same numbers — the knob is a throughput knob, not a semantics knob.
  auto run = [](size_t threads) {
    Database db(2026);
    sql::Session session(&db);
    PIP_CHECK(session.Execute("CREATE TABLE t (v)").ok());
    PIP_CHECK(session.Execute("INSERT INTO t VALUES (Normal(10, 2)), "
                              "(Normal(20, 3)), (Normal(30, 4))")
                  .ok());
    PIP_CHECK(session
                  .Execute("SET num_threads = " + std::to_string(threads))
                  .ok());
    PIP_CHECK(session.Execute("SET fixed_samples = 500").ok());
    auto r = session.Execute("SELECT expected_sum(v) FROM t WHERE v > 12");
    PIP_CHECK(r.ok());
    return r.table.ToString();
  };
  std::string serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

}  // namespace
}  // namespace pip
