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
using pip::bench::Quartiles;
using pip::bench::QuartilesOf;
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

/// Times each (query, threads) cell of the sweeps this many times,
/// cycling through the thread counts, so a burst of machine load lands
/// on every thread count alike; records carry the median and quartiles.
constexpr int kSweepRepeats = 5;

/// Runs the PIP side of Q1-Q4 at num_threads in {1, 2, 8}, kSweepRepeats
/// times over, and records median wall and CPU times plus result values
/// to BENCH_sampling.json. The engine's determinism contract makes the
/// values bit-identical across thread counts and repeats — checked here,
/// not assumed.
void ThreadSweep() {
  const size_t samples = Samples();
  const size_t thread_counts[] = {1, 2, 8};
  constexpr size_t kCounts = 3;
  // Cell q of a thread count is query q; cell 4 is the four back to back.
  constexpr int kCells = 5;

  std::vector<double> wall[kCounts][kCells], cpu[kCounts][kCells];
  double values[4];
  bool identical = true;
  for (int rep = 0; rep < kSweepRepeats; ++rep) {
    for (size_t t = 0; t < kCounts; ++t) {
      SamplingOptions opts;
      opts.fixed_samples = samples;
      opts.num_threads = thread_counts[t];

      // Wall and CPU time of each query, read back to back.
      double total_wall = 0.0, total_cpu = 0.0;
      pip::WallTimer timer;
      double cpu_mark = pip::bench::ProcessCpuSeconds();
      auto lap = [&](int q) {
        const double w = timer.Seconds();
        const double now = pip::bench::ProcessCpuSeconds();
        wall[t][q].push_back(w);
        cpu[t][q].push_back(now - cpu_mark);
        total_wall += w;
        total_cpu += now - cpu_mark;
        cpu_mark = now;
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
      wall[t][4].push_back(total_wall);
      cpu[t][4].push_back(total_cpu);

      // Determinism gate: every run must produce the first run's bits.
      // Bit-pattern compare, not ==, so a legitimate bit-identical NaN
      // (budget collapse) doesn't read as a determinism failure.
      const double run_values[4] = {q1.value().value, q2.value().value,
                                    q3.value().value, q4.value().total};
      if (rep == 0 && t == 0) std::memcpy(values, run_values, sizeof values);
      identical =
          identical && std::memcmp(values, run_values, sizeof values) == 0;
    }
  }
  PIP_CHECK_MSG(identical,
                "thread sweep produced thread-count-dependent results");

  std::printf("=== Thread sweep: PIP Q1-Q4, fixed_samples=%zu, median of "
              "%d interleaved repeats ===\n",
              samples, kSweepRepeats);
  std::printf("%8s %10s %10s %10s %10s %12s  %s\n", "threads", "Q1 (s)",
              "Q2 (s)", "Q3 (s)", "Q4 (s)", "total (s)", "total q1-q3 (s)");
  const char* names[] = {"Q1_pip", "Q2_pip", "Q3_pip", "Q4_pip",
                         "end_to_end"};
  std::vector<BenchRecord> records;
  double total_median[kCounts];
  for (size_t t = 0; t < kCounts; ++t) {
    Quartiles cells[kCells];
    for (int q = 0; q < kCells; ++q) {
      cells[q] = QuartilesOf(wall[t][q]);
      BenchRecord r;
      r.bench = "fig6_thread_sweep";
      r.query = names[q];
      r.threads = static_cast<double>(thread_counts[t]);
      r.wall_seconds = cells[q].median;
      r.wall_q1_seconds = cells[q].q1;
      r.wall_q3_seconds = cells[q].q3;
      r.cpu_seconds = QuartilesOf(cpu[t][q]).median;
      r.samples = static_cast<double>(samples);
      if (q < 4) {
        r.samples_per_sec = r.wall_seconds > 0
                                ? static_cast<double>(samples) / r.wall_seconds
                                : 0.0;
        r.value = values[q];
      }
      records.push_back(r);
    }
    total_median[t] = cells[4].median;
    std::printf("%8zu %10.3f %10.3f %10.3f %10.3f %12.3f  %.3f-%.3f\n",
                thread_counts[t], cells[0].median, cells[1].median,
                cells[2].median, cells[3].median, cells[4].median,
                cells[4].q1, cells[4].q3);
  }
  std::printf("bit-identical across threads and repeats: yes; end-to-end "
              "median speedup %zu->%zu threads: %.2fx\n\n",
              thread_counts[0], thread_counts[kCounts - 1],
              total_median[0] / total_median[kCounts - 1]);
  AppendBenchRecords(BenchJsonPath(), records);
}

/// Batched Analyze with the row axis as the outer parallel loop: the
/// rows/sec figure ROADMAP's perf-trajectory item tracks for row-level
/// scaling (per-row conditional expectations over a C-table, §IV),
/// timed like the query sweep above. The output tables are bit-compared
/// across thread counts and repeats — the row-parallel determinism
/// contract, checked here like the query sweep.
void AnalyzeRowSweep() {
  const size_t rows = SmokeMode() ? 48 : 256;
  const size_t samples = Samples();
  const size_t thread_counts[] = {1, 2, 8};
  constexpr size_t kCounts = 3;

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

  std::vector<double> wall[kCounts], cpu[kCounts];
  std::string first_output;
  for (int rep = 0; rep < kSweepRepeats; ++rep) {
    for (size_t t = 0; t < kCounts; ++t) {
      SamplingOptions opts;
      opts.fixed_samples = samples;
      opts.num_threads = thread_counts[t];
      opts.use_numeric_integration = false;  // Keep the sampling path hot.
      pip::SamplingEngine engine = db.MakeEngine(opts);
      const double cpu0 = pip::bench::ProcessCpuSeconds();
      pip::WallTimer timer;
      auto out = pip::Analyze(table, engine, spec);
      wall[t].push_back(timer.Seconds());
      cpu[t].push_back(pip::bench::ProcessCpuSeconds() - cpu0);
      PIP_CHECK(out.ok());
      PIP_CHECK(out.value().num_rows() == rows);
      std::string output = out.value().ToString();
      if (rep == 0 && t == 0) first_output = output;
      PIP_CHECK_MSG(output == first_output,
                    "row-parallel Analyze produced thread-count-dependent "
                    "rows");
    }
  }

  std::printf("=== Analyze row sweep: %zu rows x %zu samples, row-parallel, "
              "median of %d interleaved repeats ===\n",
              rows, samples, kSweepRepeats);
  std::printf("%8s %10s %12s  %s\n", "threads", "wall (s)", "rows/sec",
              "wall q1-q3 (s)");
  std::vector<BenchRecord> records;
  for (size_t t = 0; t < kCounts; ++t) {
    const Quartiles w = QuartilesOf(wall[t]);
    BenchRecord r;
    r.bench = "fig6_analyze_rows";
    r.query = "analyze_batch";
    r.threads = static_cast<double>(thread_counts[t]);
    r.wall_seconds = w.median;
    r.wall_q1_seconds = w.q1;
    r.wall_q3_seconds = w.q3;
    r.cpu_seconds = QuartilesOf(cpu[t]).median;
    r.samples = static_cast<double>(rows);
    // For the row-parallel axis the throughput figure is rows/sec.
    r.samples_per_sec =
        w.median > 0 ? static_cast<double>(rows) / w.median : 0.0;
    records.push_back(r);
    std::printf("%8zu %10.3f %12.1f  %.3f-%.3f\n", thread_counts[t],
                w.median, r.samples_per_sec, w.q1, w.q3);
  }
  std::printf("bit-identical across threads and repeats: yes; rows/sec "
              "median speedup %zu->%zu threads: %.2fx\n\n",
              thread_counts[0], thread_counts[kCounts - 1],
              records.front().wall_seconds / records.back().wall_seconds);
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
