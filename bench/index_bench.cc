/// \file index_bench.cc
/// \brief Expectation-index ablation: repeated per-row Analyze sweeps
/// with the materialized index off, cold (miss + backfill), warm (every
/// row served from the index without sampling), and after appending one
/// row (only the new row samples; the write purges nothing). Last, an
/// exact expected_count sweep, whose rows the per-statement triage
/// answers in closed form without touching the index.
///
/// The PesTrie-style contract under test: after bounded first-touch
/// work, repeated queries answer in near-constant time, and the served
/// answers are bit-identical to cold recomputation (hits are exact
/// replays of the deterministic draw scheme, not approximations).
/// Emits BENCH_index.json records via PIP_BENCH_JSON; CI asserts
/// warm-hit and after-append latency <= 0.5x cold from the artifact, and
/// that the exact_count record (its index lookups + inserts) is 0.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/engine/database.h"
#include "src/sql/session.h"

namespace {

using pip::Database;
using pip::ExpectationIndex;
using pip::SamplingOptions;
using pip::bench::AppendBenchRecords;
using pip::bench::BenchJsonPath;
using pip::bench::BenchRecord;
using pip::bench::SmokeMode;

constexpr const char* kQuery =
    "SELECT expectation(v) AS ev, conf() FROM parts WHERE v > 0";

pip::sql::SqlResult Run(pip::sql::Session* session, const std::string& stmt) {
  pip::sql::SqlResult r = session->Execute(stmt);
  PIP_CHECK_MSG(r.ok(), r.ToString());
  return r;
}

std::vector<double> Analyze(pip::sql::Session* session) {
  pip::sql::SqlResult r = Run(session, kQuery);
  std::vector<double> values;
  values.reserve(r.table.num_rows() * 2);
  for (size_t i = 0; i < r.table.num_rows(); ++i) {
    values.push_back(r.table.row(i)[0].double_value());
    values.push_back(r.table.row(i)[1].double_value());
  }
  return values;
}

BenchRecord MakeRecord(const char* query, double wall, size_t rows,
                       size_t samples, double value) {
  BenchRecord r;
  r.bench = "index_repeated_analyze";
  r.query = query;
  r.threads = static_cast<double>(
      pip::ThreadPool::ResolveThreads(SamplingOptions{}.num_threads));
  r.wall_seconds = wall;
  r.samples = static_cast<double>(samples);
  r.samples_per_sec =
      wall > 0 ? static_cast<double>(rows * samples) / wall : 0.0;
  r.value = value;
  return r;
}

}  // namespace

int main() {
  // Spin calibrations bracket the run: the cores the machine lent it at
  // the start and at the end.
  AppendBenchRecords(BenchJsonPath(),
                     {pip::bench::SpinCalibration("index_start")});
  const size_t rows = SmokeMode() ? 64 : 512;
  const size_t samples = SmokeMode() ? 500 : 2000;
  const size_t warm_iters = 10;

  Database db(4242);
  pip::sql::Session session(&db);
  session.mutable_options()->fixed_samples = samples;

  Run(&session, "CREATE TABLE parts (v)");
  for (size_t i = 0; i < rows; ++i) {
    Run(&session, "INSERT INTO parts VALUES (Normal(" +
                      std::to_string(static_cast<double>(i % 37) + 1.0) +
                      ", 3))");
  }

  // Index off: the pure sampling cost of one sweep, and the reference
  // answer every other mode must reproduce byte-for-byte.
  Run(&session, "SET index_enabled = 0");
  pip::WallTimer off_timer;
  std::vector<double> reference = Analyze(&session);
  const double wall_off = off_timer.Seconds();

  // Cold: first indexed sweep pays sampling plus backfill inserts.
  Run(&session, "SET index_enabled = 1");
  pip::WallTimer cold_timer;
  std::vector<double> cold = Analyze(&session);
  const double wall_cold = cold_timer.Seconds();

  // Warm: every row is a hit; no sampling at all.
  double wall_warm = 0.0;
  std::vector<double> warm;
  for (size_t i = 0; i < warm_iters; ++i) {
    pip::WallTimer warm_timer;
    warm = Analyze(&session);
    wall_warm += warm_timer.Seconds();
  }
  wall_warm /= static_cast<double>(warm_iters);

  PIP_CHECK_MSG(cold.size() == reference.size() &&
                    warm.size() == reference.size(),
                "result shapes diverged across modes");
  PIP_CHECK_MSG(std::memcmp(cold.data(), reference.data(),
                            reference.size() * sizeof(double)) == 0,
                "cold indexed sweep diverged from the no-index answer");
  PIP_CHECK_MSG(std::memcmp(warm.data(), reference.data(),
                            reference.size() * sizeof(double)) == 0,
                "warm index hits diverged from cold recomputation");

  const ExpectationIndex::Stats stats = db.result_index_stats();

  // Append one row, then sweep once: the index is keyed by row content,
  // so every old row still hits and only the new row samples.
  Run(&session, "INSERT INTO parts VALUES (Normal(100, 3))");
  pip::WallTimer append_timer;
  std::vector<double> appended = Analyze(&session);
  const double wall_append = append_timer.Seconds();
  const ExpectationIndex::Stats append_stats = db.result_index_stats();
  PIP_CHECK_MSG(appended.size() == reference.size() + 2 &&
                    std::memcmp(appended.data(), reference.data(),
                                reference.size() * sizeof(double)) == 0,
                "old rows' cells changed after the append");
  PIP_CHECK_MSG(append_stats.inserts - stats.inserts == stats.entries / rows,
                "the append sweep backfilled more than the new row");

  // Exact count: every row's condition v > 0 has a closed-form CDF, so
  // the sweep makes no index lookup and no insert.
  pip::WallTimer count_timer;
  pip::sql::SqlResult count =
      Run(&session, "SELECT expected_count(*) FROM parts WHERE v > 0");
  const double wall_count = count_timer.Seconds();
  const ExpectationIndex::Stats count_stats = db.result_index_stats();
  const uint64_t count_traffic =
      (count_stats.hits + count_stats.misses + count_stats.inserts) -
      (append_stats.hits + append_stats.misses + append_stats.inserts);

  const double speedup = wall_warm > 0 ? wall_cold / wall_warm : 0.0;
  std::printf("=== Expectation index: %zu rows x %zu samples ===\n", rows,
              samples);
  std::printf("%16s %12.6fs\n", "no_index", wall_off);
  std::printf("%16s %12.6fs\n", "cold_backfill", wall_cold);
  std::printf("%16s %12.6fs  (%.1fx cold, %llu hits, %zu entries, %zu "
              "bytes)\n",
              "warm_hit", wall_warm, speedup,
              static_cast<unsigned long long>(stats.hits), stats.entries,
              stats.bytes);
  std::printf("%16s %12.6fs  (%llu new entries)\n", "after_append",
              wall_append,
              static_cast<unsigned long long>(append_stats.inserts -
                                              stats.inserts));
  std::printf("%16s %12.6fs  (expected_count %.6f, %llu index lookups + "
              "inserts)\n",
              "exact_count", wall_count, count.table.row(0)[0].double_value(),
              static_cast<unsigned long long>(count_traffic));
  PIP_CHECK_MSG(speedup >= 2.0,
                "warm hits failed the 2x-over-cold throughput contract");

  std::vector<BenchRecord> records;
  records.push_back(
      MakeRecord("no_index", wall_off, rows, samples, reference[0]));
  records.push_back(
      MakeRecord("cold_backfill", wall_cold, rows, samples, cold[0]));
  records.push_back(MakeRecord("warm_hit", wall_warm, rows, samples, warm[0]));
  records.push_back(MakeRecord("after_append", wall_append, rows + 1,
                               samples, appended[0]));
  BenchRecord exact_count = MakeRecord("exact_count", wall_count, rows + 1,
                                      /*samples=*/0,
                                      static_cast<double>(count_traffic));
  records.push_back(exact_count);
  BenchRecord bytes;
  bytes.bench = "index_footprint";
  bytes.query = "bytes";
  bytes.value = static_cast<double>(stats.bytes);
  records.push_back(bytes);
  BenchRecord entries;
  entries.bench = "index_footprint";
  entries.query = "entries";
  entries.value = static_cast<double>(stats.entries);
  records.push_back(entries);
  AppendBenchRecords(BenchJsonPath(), records);
  AppendBenchRecords(BenchJsonPath(),
                     {pip::bench::SpinCalibration("index_end")});
  return 0;
}
