/// \file bench_fig6_queries.cc
/// \brief Reproduces paper Fig. 6: execution times of Q1-Q4 under PIP
/// (split into query phase and sample phase) and under Sample-First with
/// accuracy-matched sample counts.
///
/// As in the paper: Q1/Q2 suit Sample-First (no selection), so the
/// interesting output is that PIP's symbolic overhead is minimal; Q3
/// (selectivity ~0.1) forces Sample-First to 10x worlds; Q4 (selectivity
/// 0.005) forces 200x worlds (the paper's off-scale 2985 s bar).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench/bench_json.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/dist/registry.h"
#include "src/engine/query.h"
#include "src/sampling/aggregates.h"
#include "src/workload/queries.h"

namespace {

using pip::SamplingOptions;
using pip::bench::AppendBenchRecords;
using pip::bench::BenchJsonPath;
using pip::bench::BenchRecord;
using pip::bench::SmokeMode;
using pip::workload::GenerateTpch;
using pip::workload::TimedResult;
using pip::workload::TpchConfig;
using pip::workload::TpchData;

constexpr size_t kSamples = 1000;
constexpr double kQ4Selectivity = 0.005;

size_t Samples() { return SmokeMode() ? 200 : kSamples; }

TpchConfig BenchConfig() {
  TpchConfig config;
  config.num_customers = 150;
  config.num_suppliers = 20;
  config.num_parts = 30;
  return config;
}

const TpchData& Data() {
  static const TpchData* data = new TpchData(GenerateTpch(BenchConfig()));
  return *data;
}

SamplingOptions PipOptions() {
  SamplingOptions opts;
  opts.fixed_samples = kSamples;
  return opts;
}

// --- google-benchmark registrations (per query, per engine) -------------

void BM_Q1_Pip(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ1Pip(Data(), 1, PipOptions());
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q1_SampleFirst(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ1SampleFirst(Data(), kSamples, 1);
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q2_Pip(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ2Pip(Data(), 2, PipOptions(), kSamples);
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q2_SampleFirst(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ2SampleFirst(Data(), kSamples, 2);
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q3_Pip(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ3Pip(Data(), 3, PipOptions());
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q3_SampleFirst(benchmark::State& state) {
  // Selectivity ~0.1: Sample-First needs 10x worlds for matched accuracy.
  for (auto _ : state) {
    auto r = pip::workload::RunQ3SampleFirst(Data(), 10 * kSamples, 3);
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().value);
  }
}
void BM_Q4_Pip(benchmark::State& state) {
  for (auto _ : state) {
    auto r = pip::workload::RunQ4Pip(Data(), kQ4Selectivity, 4, PipOptions());
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().total);
  }
}
void BM_Q4_SampleFirst(benchmark::State& state) {
  // Accuracy-matched world count 1/selectivity (the paper's 2985 s bar).
  size_t worlds = static_cast<size_t>(kSamples / kQ4Selectivity);
  for (auto _ : state) {
    auto r =
        pip::workload::RunQ4SampleFirst(Data(), kQ4Selectivity, worlds, 4);
    PIP_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().total);
  }
}

BENCHMARK(BM_Q1_Pip)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q1_SampleFirst)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q2_Pip)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q2_SampleFirst)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q3_Pip)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q3_SampleFirst)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q4_Pip)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q4_SampleFirst)->Unit(benchmark::kMillisecond);

void PrintFigure6() {
  std::printf("\n=== Figure 6: query evaluation times, PIP (query phase + "
              "sample phase) vs accuracy-matched Sample-First ===\n");
  std::printf("%6s %14s %15s %12s %18s %12s\n", "query", "PIP query (s)",
              "PIP sample (s)", "PIP total", "Sample-First (s)", "SF worlds");

  struct Row {
    const char* name;
    TimedResult pip;
    TimedResult sf;
    size_t sf_worlds;
  };
  std::vector<Row> rows;

  size_t samples = Samples();
  SamplingOptions opts;
  opts.fixed_samples = samples;
  {
    auto pip = pip::workload::RunQ1Pip(Data(), 1, opts);
    auto sf = pip::workload::RunQ1SampleFirst(Data(), samples, 1);
    PIP_CHECK(pip.ok() && sf.ok());
    rows.push_back({"Q1", pip.value(), sf.value(), samples});
  }
  {
    auto pip = pip::workload::RunQ2Pip(Data(), 2, opts, samples);
    auto sf = pip::workload::RunQ2SampleFirst(Data(), samples, 2);
    PIP_CHECK(pip.ok() && sf.ok());
    rows.push_back({"Q2", pip.value(), sf.value(), samples});
  }
  {
    auto pip = pip::workload::RunQ3Pip(Data(), 3, opts);
    auto sf = pip::workload::RunQ3SampleFirst(Data(), 10 * samples, 3);
    PIP_CHECK(pip.ok() && sf.ok());
    rows.push_back({"Q3", pip.value(), sf.value(), 10 * samples});
  }
  if (!SmokeMode()) {
    // The accuracy-matched Q4 Sample-First run instantiates 200k worlds
    // (the paper's off-scale bar) — too heavy for a CI smoke pass.
    size_t worlds = static_cast<size_t>(kSamples / kQ4Selectivity);
    auto pip4 = pip::workload::RunQ4Pip(Data(), kQ4Selectivity, 4, PipOptions());
    auto sf4 =
        pip::workload::RunQ4SampleFirst(Data(), kQ4Selectivity, worlds, 4);
    PIP_CHECK(pip4.ok() && sf4.ok());
    TimedResult pt{pip4.value().total, pip4.value().query_seconds,
                   pip4.value().sample_seconds};
    TimedResult st{sf4.value().total, sf4.value().query_seconds,
                   sf4.value().sample_seconds};
    rows.push_back({"Q4", pt, st, worlds});
  }

  for (const auto& row : rows) {
    std::printf("%6s %14.3f %15.3f %12.3f %18.3f %12zu\n", row.name,
                row.pip.query_seconds, row.pip.sample_seconds,
                row.pip.query_seconds + row.pip.sample_seconds,
                row.sf.query_seconds + row.sf.sample_seconds, row.sf_worlds);
  }
  std::printf("Expected shape: PIP ~Sample-First on Q1/Q2 (overhead "
              "minimal); PIP wins ~10x on Q3 and ~100x+ on Q4.\n\n");
}

/// Runs the PIP side of Q1-Q4 at num_threads in {1, 2, 8} and records
/// wall times plus result values to BENCH_sampling.json. The engine's
/// determinism contract makes the values bit-identical across thread
/// counts — checked here, not assumed.
void ThreadSweep() {
  const size_t samples = Samples();
  const size_t thread_counts[] = {1, 2, 8};

  struct SweepRun {
    size_t threads;
    double q_wall[4];
    double q_cpu[4];
    double q_value[4];
    double total_wall = 0.0;
    double total_cpu = 0.0;
  };
  std::vector<SweepRun> runs;

  std::printf("=== Thread sweep: PIP Q1-Q4, fixed_samples=%zu ===\n",
              samples);
  std::printf("%8s %10s %10s %10s %10s %12s\n", "threads", "Q1 (s)",
              "Q2 (s)", "Q3 (s)", "Q4 (s)", "total (s)");
  for (size_t threads : thread_counts) {
    SamplingOptions opts;
    opts.fixed_samples = samples;
    opts.num_threads = threads;
    SweepRun run;
    run.threads = threads;

    // Wall and CPU time of each query, read back to back.
    pip::WallTimer timer;
    double cpu = pip::bench::ProcessCpuSeconds();
    auto lap = [&](int q) {
      run.q_wall[q] = timer.Seconds();
      const double now = pip::bench::ProcessCpuSeconds();
      run.q_cpu[q] = now - cpu;
      cpu = now;
      timer.Restart();
    };
    auto q1 = pip::workload::RunQ1Pip(Data(), 1, opts);
    lap(0);
    auto q2 = pip::workload::RunQ2Pip(Data(), 2, opts, samples);
    lap(1);
    auto q3 = pip::workload::RunQ3Pip(Data(), 3, opts);
    lap(2);
    auto q4 = pip::workload::RunQ4Pip(Data(), kQ4Selectivity, 4, opts);
    lap(3);
    PIP_CHECK(q1.ok() && q2.ok() && q3.ok() && q4.ok());
    run.q_value[0] = q1.value().value;
    run.q_value[1] = q2.value().value;
    run.q_value[2] = q3.value().value;
    run.q_value[3] = q4.value().total;
    for (double w : run.q_wall) run.total_wall += w;
    for (double c : run.q_cpu) run.total_cpu += c;
    std::printf("%8zu %10.3f %10.3f %10.3f %10.3f %12.3f\n", threads,
                run.q_wall[0], run.q_wall[1], run.q_wall[2], run.q_wall[3],
                run.total_wall);
    runs.push_back(run);
  }

  // Determinism gate: every thread count must produce the same bits.
  // Bit-pattern compare, not ==, so a legitimate bit-identical NaN
  // (budget collapse) doesn't read as a determinism failure.
  bool identical = true;
  for (const auto& run : runs) {
    for (int q = 0; q < 4; ++q) {
      identical = identical && std::memcmp(&run.q_value[q],
                                           &runs[0].q_value[q],
                                           sizeof(double)) == 0;
    }
  }
  PIP_CHECK_MSG(identical,
                "thread sweep produced thread-count-dependent results");
  double speedup = runs.front().total_wall / runs.back().total_wall;
  std::printf("bit-identical across threads: yes; end-to-end speedup "
              "%zu->%zu threads: %.2fx\n\n",
              runs.front().threads, runs.back().threads, speedup);

  const char* names[] = {"Q1_pip", "Q2_pip", "Q3_pip", "Q4_pip"};
  std::vector<BenchRecord> records;
  for (const auto& run : runs) {
    for (int q = 0; q < 4; ++q) {
      BenchRecord r;
      r.bench = "fig6_thread_sweep";
      r.query = names[q];
      r.threads = static_cast<double>(run.threads);
      r.wall_seconds = run.q_wall[q];
      r.cpu_seconds = run.q_cpu[q];
      r.samples = static_cast<double>(samples);
      r.samples_per_sec =
          run.q_wall[q] > 0 ? static_cast<double>(samples) / run.q_wall[q]
                            : 0.0;
      r.value = run.q_value[q];
      records.push_back(r);
    }
    BenchRecord total;
    total.bench = "fig6_thread_sweep";
    total.query = "end_to_end";
    total.threads = static_cast<double>(run.threads);
    total.wall_seconds = run.total_wall;
    total.cpu_seconds = run.total_cpu;
    total.samples = static_cast<double>(samples);
    records.push_back(total);
  }
  AppendBenchRecords(BenchJsonPath(), records);
}

/// Batched Analyze with the row axis as the outer parallel loop: the
/// rows/sec figure ROADMAP's perf-trajectory item tracks for row-level
/// scaling (per-row conditional expectations over a C-table, §IV). The
/// output tables are bit-compared across thread counts — the row-parallel
/// determinism contract, checked here like the query sweep above.
void AnalyzeRowSweep() {
  const size_t rows = SmokeMode() ? 48 : 256;
  const size_t samples = Samples();
  const size_t thread_counts[] = {1, 2, 8};

  pip::Database db(20260730);
  pip::CTable table((pip::Schema({"v"})));
  for (size_t i = 0; i < rows; ++i) {
    double mean = 10.0 + static_cast<double>(i % 17);
    auto x = db.CreateVariable("Normal", {mean, 2.0}).value();
    pip::Condition c(pip::Expr::Var(x) > pip::Expr::Constant(mean - 1.5));
    PIP_CHECK(table.Append({pip::Expr::Var(x)}, c).ok());
  }
  pip::AnalyzeSpec spec;
  spec.expectation_columns = {"v"};
  spec.with_confidence = true;

  std::printf("=== Analyze row sweep: %zu rows x %zu samples, row-parallel "
              "===\n",
              rows, samples);
  std::printf("%8s %10s %12s\n", "threads", "wall (s)", "rows/sec");

  struct SweepRun {
    size_t threads;
    double wall;
    double cpu;
    std::string output;
  };
  std::vector<SweepRun> runs;
  for (size_t threads : thread_counts) {
    SamplingOptions opts;
    opts.fixed_samples = samples;
    opts.num_threads = threads;
    opts.use_numeric_integration = false;  // Keep the sampling path hot.
    pip::SamplingEngine engine = db.MakeEngine(opts);
    const double cpu0 = pip::bench::ProcessCpuSeconds();
    pip::WallTimer timer;
    auto out = pip::Analyze(table, engine, spec);
    double wall = timer.Seconds();
    const double cpu = pip::bench::ProcessCpuSeconds() - cpu0;
    PIP_CHECK(out.ok());
    PIP_CHECK(out.value().num_rows() == rows);
    runs.push_back({threads, wall, cpu, out.value().ToString()});
    std::printf("%8zu %10.3f %12.1f\n", threads, wall,
                wall > 0 ? static_cast<double>(rows) / wall : 0.0);
  }
  for (const auto& run : runs) {
    PIP_CHECK_MSG(run.output == runs[0].output,
                  "row-parallel Analyze produced thread-count-dependent rows");
  }
  std::printf("bit-identical across threads: yes; rows/sec speedup "
              "%zu->%zu threads: %.2fx\n\n",
              runs.front().threads, runs.back().threads,
              runs.front().wall / runs.back().wall);

  std::vector<BenchRecord> records;
  for (const auto& run : runs) {
    BenchRecord r;
    r.bench = "fig6_analyze_rows";
    r.query = "analyze_batch";
    r.threads = static_cast<double>(run.threads);
    r.wall_seconds = run.wall;
    r.cpu_seconds = run.cpu;
    r.samples = static_cast<double>(rows);
    // For the row-parallel axis the throughput figure is rows/sec.
    r.samples_per_sec =
        run.wall > 0 ? static_cast<double>(rows) / run.wall : 0.0;
    records.push_back(r);
  }
  AppendBenchRecords(BenchJsonPath(), records);
}

/// Few-rows-many-threads shapes for the fig6_analyze_rows sweep: rows in
/// {2, 4, 8} on 8 threads. A region runs one parallel axis: with fewer
/// rows than threads the rows run serially and each row's sample region
/// fans out, so the pool opens at least one region per row; with 8 rows
/// the rows fan out and their sample loops run inline. Asserted
/// within-run from the scheduler counters (they count regions opened,
/// not cores used, so the check holds on a single-core runner too): no
/// nested helper task ever runs, and rows < threads opens >= rows
/// regions. Outputs are byte-compared against a serial run of the same
/// shape.
void NestedShapeSweep() {
  const size_t samples = Samples();
  const size_t threads = 8;
  const size_t row_shapes[] = {2, 4, 8};

  pip::Database db(20260806);
  std::printf("=== Nested-shape sweep: rows x %zu threads, %zu samples, "
              "one parallel axis per region ===\n",
              threads, samples);
  std::printf("%6s %12s %12s %10s %12s\n", "rows", "serial (s)", "wall (s)",
              "regions", "join_wait_us");

  std::vector<BenchRecord> records;
  for (size_t rows : row_shapes) {
    pip::CTable table((pip::Schema({"v"})));
    for (size_t i = 0; i < rows; ++i) {
      double mean = 10.0 + static_cast<double>(i % 17);
      auto x = db.CreateVariable("Normal", {mean, 2.0}).value();
      pip::Condition c(pip::Expr::Var(x) > pip::Expr::Constant(mean - 1.5));
      PIP_CHECK(table.Append({pip::Expr::Var(x)}, c).ok());
    }
    pip::AnalyzeSpec spec;
    spec.expectation_columns = {"v"};
    spec.with_confidence = true;

    SamplingOptions opts;
    opts.fixed_samples = samples;
    opts.use_numeric_integration = false;  // Keep the sampling path hot.

    opts.num_threads = 1;
    pip::SamplingEngine serial_engine = db.MakeEngine(opts);
    pip::WallTimer timer;
    auto serial_out = pip::Analyze(table, serial_engine, spec);
    const double serial_wall = timer.Seconds();
    PIP_CHECK(serial_out.ok());

    opts.num_threads = threads;
    pip::SamplingEngine engine = db.MakeEngine(opts);
    pip::ThreadPool& pool = pip::ThreadPool::Shared();
    const pip::ThreadPool::SchedulerStats before = pool.scheduler_stats();
    timer.Restart();
    auto out = pip::Analyze(table, engine, spec);
    const double wall = timer.Seconds();
    const pip::ThreadPool::SchedulerStats after = pool.scheduler_stats();
    PIP_CHECK(out.ok());
    PIP_CHECK_MSG(
        out.value().ToString() == serial_out.value().ToString(),
        "nested-shape Analyze diverged from the serial run");

    const double regions = static_cast<double>(after.regions - before.regions);
    const double nested =
        static_cast<double>(after.nested_tasks - before.nested_tasks);
    const double wait_us = static_cast<double>(after.join_wait_micros -
                                               before.join_wait_micros);
    std::printf("%6zu %12.3f %12.3f %10.0f %12.0f\n", rows, serial_wall,
                wall, regions, wait_us);
    PIP_CHECK_MSG(nested == 0.0,
                  "a region's body started another fanned-out region");
    if (rows < threads) {
      // Too few rows to fill the width: the sample axis takes it, one
      // region (at least) per row.
      PIP_CHECK_MSG(regions >= static_cast<double>(rows),
                    "a few-rows-many-threads shape did not fan out its "
                    "rows' samples");
    }

    BenchRecord r;
    r.bench = "fig6_analyze_rows";
    r.query = "nested_rows" + std::to_string(rows);
    r.threads = static_cast<double>(threads);
    r.wall_seconds = wall;
    r.samples = static_cast<double>(samples);
    r.samples_per_sec =
        wall > 0 ? static_cast<double>(rows * samples) / wall : 0.0;
    r.pool_regions = regions;
    r.pool_nested_tasks = nested;
    r.pool_join_wait_micros = wait_us;
    records.push_back(r);

    BenchRecord s = r;
    s.query = "nested_rows" + std::to_string(rows) + "_serial";
    s.threads = 1;
    s.wall_seconds = serial_wall;
    s.samples_per_sec = serial_wall > 0
                            ? static_cast<double>(rows * samples) / serial_wall
                            : 0.0;
    s.pool_regions = s.pool_nested_tasks = s.pool_join_wait_micros = 0;
    records.push_back(s);
  }
  std::printf("bit-identical to serial at every shape: yes\n\n");
  AppendBenchRecords(BenchJsonPath(), records);
}

/// Scalar-vs-batch draw ablation: one batch-eligible expectation (no
/// conditions, so every chunk pre-draws its whole sample range with
/// GenerateBatch when the toggle is on) timed with use_batch_generation
/// off and on. The two runs must agree bit-for-bit — the batch-draw
/// contract (README) — so the record pair differs only in throughput;
/// bench-smoke asserts a regression threshold on it.
void BatchDrawAblation() {
  const size_t samples = SmokeMode() ? 100000 : 1000000;
  pip::Database db(20260807);
  auto x = db.CreateVariable("Normal", {5.0, 2.0}).value();
  auto y = db.CreateVariable("Exponential", {1.0}).value();
  pip::ExprPtr expr = pip::Expr::Var(x) + pip::Expr::Var(y);

  double wall[2] = {0.0, 0.0};
  double value[2] = {0.0, 0.0};
  for (int mode = 0; mode < 2; ++mode) {
    SamplingOptions opts;
    opts.fixed_samples = samples;
    opts.num_threads = 1;  // Isolate the kernel effect from scheduling.
    opts.use_numeric_integration = false;
    opts.use_batch_generation = mode == 1;
    pip::SamplingEngine engine = db.MakeEngine(opts);
    pip::WallTimer timer;
    auto r = engine.Expectation(expr, pip::Condition::True(), false);
    wall[mode] = timer.Seconds();
    PIP_CHECK(r.ok());
    value[mode] = r.value().expectation;
  }
  PIP_CHECK_MSG(std::memcmp(&value[0], &value[1], sizeof(double)) == 0,
                "batch draws diverged from scalar draws");

  std::printf("=== Batch-draw ablation: E[X+Y], %zu samples, 1 thread ===\n",
              samples);
  const char* names[] = {"scalar_draws", "batch_draws"};
  std::vector<BenchRecord> records;
  for (int mode = 0; mode < 2; ++mode) {
    double rate = wall[mode] > 0
                      ? static_cast<double>(samples) / wall[mode]
                      : 0.0;
    std::printf("%13s %10.3fs %14.0f samples/s\n", names[mode], wall[mode],
                rate);
    BenchRecord r;
    r.bench = "fig6_batch_ablation";
    r.query = names[mode];
    r.threads = 1;
    r.wall_seconds = wall[mode];
    r.samples = static_cast<double>(samples);
    r.samples_per_sec = rate;
    r.value = value[mode];
    records.push_back(r);
  }
  std::printf("bit-identical scalar vs batch: yes; speedup %.2fx\n\n",
              wall[1] > 0 ? wall[0] / wall[1] : 0.0);
  AppendBenchRecords(BenchJsonPath(), records);
}

/// The cost of one Monte Carlo attempt, layer by layer (kernel_draws
/// records), over pipbench-shaped order lines: price ~ Normal(mu, sigma)
/// with mu in [80, 120] and sigma in [5, 15], qty ~ Poisson(lambda) with
/// lambda in [3, 10].
///   * poisson_draws / normal_draws: GenerateBatch draws per second in
///     64-sample blocks that cycle the lines' parameters, so consecutive
///     blocks change rate (the Poisson memo's multi-rate path).
///   * probe_attempt: one probe-shaped row, E[price * qty | price * qty > c]
///     with conf at 500 fixed samples and P ~ 0.35; wall_seconds is the
///     whole sweep of rows, samples_per_sec is attempts per second, and
///     value (bit-compared) is the sum of the rows' expectations.
///   * expected_max_worlds / aconf_7: expected_max over a variable-cell
///     table (world sampling) and aconf over 7 disjuncts (joint hit-rate
///     Monte Carlo), the two other loops that share the draw kernels.
/// Everything runs on one thread to isolate per-attempt cost.
/// bench-smoke asserts poisson_draws >= 0.5 x normal_draws within the run.
void KernelDraws() {
  const bool smoke = SmokeMode();
  constexpr int kLines = 150;
  constexpr uint64_t kBlock = 64;
  std::vector<std::vector<double>> normal, poisson;
  for (int i = 0; i < kLines; ++i) {
    const double a = static_cast<double>((i * 37) % kLines) / kLines;
    const double b = static_cast<double>((i * 11) % kLines) / kLines;
    const double c = static_cast<double>((i * 53) % kLines) / kLines;
    normal.push_back({80.0 + 40.0 * a, 5.0 + 10.0 * b});
    poisson.push_back({3.0 + 7.0 * c});
  }
  std::vector<BenchRecord> records;
  auto record = [&](const char* query, double wall, double cpu, double work,
                    double value) {
    BenchRecord r;
    r.bench = "kernel_draws";
    r.query = query;
    r.threads = 1;
    r.wall_seconds = wall;
    r.cpu_seconds = cpu;
    r.samples = work;
    r.samples_per_sec = wall > 0 ? work / wall : 0.0;
    r.value = value;
    records.push_back(r);
    std::printf("%20s %10.4fs %14.0f /s  cpu %.4fs\n", query, wall,
                r.samples_per_sec, cpu);
  };
  std::printf("=== Kernel draws: per-attempt cost layers, 1 thread ===\n");

  const uint64_t blocks = smoke ? 4000 : 40000;
  for (const char* name : {"Normal", "Poisson"}) {
    const pip::Distribution* dist =
        pip::DistributionRegistry::Global().Lookup(name).value();
    const auto& params = std::strcmp(name, "Normal") == 0 ? normal : poisson;
    double out[kBlock];
    double sum = 0.0;
    const double cpu0 = pip::bench::ProcessCpuSeconds();
    pip::WallTimer timer;
    for (uint64_t block = 0; block < blocks; ++block) {
      const size_t line = block % params.size();
      pip::SampleContext ctx{20261017, line + 1, block * kBlock, 0};
      PIP_CHECK(dist->GenerateBatch(params[line], ctx, kBlock, out).ok());
      for (double x : out) sum += x;
    }
    const double wall = timer.Seconds();
    record(std::strcmp(name, "Normal") == 0 ? "normal_draws" : "poisson_draws",
           wall, pip::bench::ProcessCpuSeconds() - cpu0,
           static_cast<double>(blocks * kBlock), sum);
  }

  pip::VariablePool pool(20261017);
  std::vector<pip::ExprPtr> lines;
  std::vector<double> centers;
  for (int i = 0; i < kLines; ++i) {
    auto price = pool.Create("Normal", normal[i]).value();
    auto qty = pool.Create("Poisson", poisson[i]).value();
    lines.push_back(pip::Expr::Var(price) * pip::Expr::Var(qty));
    centers.push_back(normal[i][0] * poisson[i][0]);
  }
  SamplingOptions fixed;
  fixed.num_threads = 1;
  fixed.fixed_samples = 500;
  SamplingOptions adaptive;
  adaptive.num_threads = 1;

  {
    const int rows = smoke ? 30 : 300;
    pip::SamplingEngine engine(&pool, fixed);
    double attempts = 0.0, sum = 0.0;
    const double cpu0 = pip::bench::ProcessCpuSeconds();
    pip::WallTimer timer;
    for (int r = 0; r < rows; ++r) {
      const pip::ExprPtr& line = lines[r % kLines];
      pip::Condition cond(line >
                          pip::Expr::Constant(1.15 * centers[r % kLines]));
      auto result = engine.Expectation(line, cond, true);
      PIP_CHECK(result.ok());
      attempts += static_cast<double>(result.value().attempts);
      sum += result.value().expectation;
    }
    const double wall = timer.Seconds();
    record("probe_attempt", wall, pip::bench::ProcessCpuSeconds() - cpu0,
           attempts, sum);
    std::printf("%20s %10.1f ns/attempt\n", "", 1e9 * wall / attempts);
  }

  {
    pip::CTable table((pip::Schema({"v"})));
    for (int i = 0; i < 40; ++i) {
      pip::Condition present(lines[i] >
                             pip::Expr::Constant(0.9 * centers[i]));
      PIP_CHECK(table.Append({lines[i]}, present).ok());
    }
    pip::AggregateOptions agg_options;
    agg_options.world_samples = smoke ? 500 : 5000;
    pip::SamplingEngine engine(&pool, fixed);
    pip::AggregateEvaluator agg(&engine, agg_options);
    const double cpu0 = pip::bench::ProcessCpuSeconds();
    pip::WallTimer timer;
    auto max = agg.ExpectedMax(table, "v");
    const double wall = timer.Seconds();
    PIP_CHECK(max.ok());
    record("expected_max_worlds", wall, pip::bench::ProcessCpuSeconds() - cpu0,
           static_cast<double>(agg_options.world_samples), max.value());
  }

  {
    const int sets = smoke ? 3 : 20;
    pip::SamplingEngine engine(&pool, adaptive);
    double sum = 0.0;
    const double cpu0 = pip::bench::ProcessCpuSeconds();
    pip::WallTimer timer;
    for (int set = 0; set < sets; ++set) {
      std::vector<pip::Condition> disjuncts;
      for (int d = 0; d < 7; ++d) {
        const int i = (7 * set + d) % kLines;
        disjuncts.emplace_back(lines[i] >
                               pip::Expr::Constant(1.6 * centers[i]));
      }
      auto p = engine.JointConfidence(disjuncts);
      PIP_CHECK(p.ok());
      sum += p.value();
    }
    const double wall = timer.Seconds();
    record("aconf_7", wall, pip::bench::ProcessCpuSeconds() - cpu0,
           static_cast<double>(sets), sum);
  }
  std::printf("\n");
  AppendBenchRecords(BenchJsonPath(), records);
}

}  // namespace

int main(int argc, char** argv) {
  // Spin calibrations bracket the run: the cores the machine lent it at
  // the start and at the end, beside every scaling figure below.
  AppendBenchRecords(BenchJsonPath(),
                     {pip::bench::SpinCalibration("fig6_start")});
  PrintFigure6();
  ThreadSweep();
  AnalyzeRowSweep();
  NestedShapeSweep();
  BatchDrawAblation();
  KernelDraws();
  AppendBenchRecords(BenchJsonPath(),
                     {pip::bench::SpinCalibration("fig6_end")});
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
