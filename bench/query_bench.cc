/// \file query_bench.cc
/// \brief The symbolic phase alone: SQL SELECTs that draw nothing, over a
/// 2,000-row orders table shaped like pipbench's (constant key and
/// customer cells, a Normal price and a Poisson quantity per row), and
/// the INSERT set-up that loads that table.
///
///   where_point  SELECT price * qty AS v FROM orders WHERE k = <key>
///   where_probe  a six-key range plus price * qty > 500 (probe's
///                symbolic form)
///   project_all  SELECT price * qty AS v FROM orders (binds every row)
///   scan_all     SELECT * FROM orders
///
///   insert_2000  CREATE TABLE plus the 10 INSERT statements of 200 rows
///                (two constructors per row) into a fresh Database
///
/// A WHERE on constant cells is decided before any row is copied, so
/// where_point costs a scan of the snapshot plus one kept row, where
/// project_all must bind and copy all 2,000. Statements run round-robin
/// so drift on the machine hits all four alike. Each record carries the
/// median wall seconds per statement (wall_seconds), the process CPU
/// seconds per statement over the whole run (cpu_seconds), the rows the
/// statement returns (value) and the table rows scanned per wall second
/// (samples_per_sec). insert_2000 runs once every 10 rounds and records
/// its median wall, quartiles and mean CPU seconds per load, with rows
/// loaded per wall second. Emits BENCH_query.json records via
/// PIP_BENCH_JSON; CI asserts where_point <= 0.1 x project_all from the
/// artifact and prints the insert_2000 line.
/// PIP_BENCH_SMOKE=1 runs fewer repetitions over the same table.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/timer.h"
#include "src/engine/database.h"
#include "src/sql/session.h"

namespace {

using pip::bench::AppendBenchRecords;
using pip::bench::BenchJsonPath;
using pip::bench::BenchRecord;
using pip::bench::ProcessCpuSeconds;
using pip::bench::SmokeMode;

constexpr size_t kRows = 2000;

size_t ResultRows(const pip::sql::SqlResult& r) {
  return r.kind == pip::sql::SqlResult::Kind::kCTable ? r.ctable.num_rows()
                                                      : r.table.num_rows();
}

pip::sql::SqlResult Run(pip::sql::Session* session, const std::string& stmt) {
  pip::sql::SqlResult r = session->Execute(stmt);
  PIP_CHECK_MSG(r.ok(), stmt + ": " + r.ToString());
  return r;
}

struct Case {
  const char* name;
  std::string sql;
  size_t expected_rows;
  std::vector<double> walls;
};

}  // namespace

int main() {
  // Spin calibrations bracket the run: the cores the machine lent it at
  // the start and at the end.
  AppendBenchRecords(BenchJsonPath(),
                     {pip::bench::SpinCalibration("query_start")});
  const size_t reps = SmokeMode() ? 100 : 1000;
  const size_t warmup = 10;

  std::vector<std::string> load = {
      "CREATE TABLE orders (k, cust, price, qty)"};
  std::string insert;
  for (size_t k = 0; k < kRows; ++k) {
    insert += insert.empty() ? "INSERT INTO orders VALUES " : ", ";
    insert += "(" + std::to_string(k) + ", 'c" + std::to_string(k % 100) +
              "', Normal(" + std::to_string(80 + (k * 37) % 41) + ", " +
              std::to_string(5 + k % 11) + "), Poisson(" +
              std::to_string(3 + k % 8) + "))";
    if (k % 200 == 199) {
      load.push_back(insert);
      insert.clear();
    }
  }
  pip::Database db(4242);
  pip::sql::Session session(&db);
  for (const std::string& stmt : load) Run(&session, stmt);
  // One set-up into a fresh Database: its wall and CPU seconds.
  auto timed_load = [&load](double* cpu_seconds) {
    pip::Database fresh(4242);
    pip::sql::Session loader(&fresh);
    const double cpu_start = ProcessCpuSeconds();
    pip::WallTimer timer;
    for (const std::string& stmt : load) Run(&loader, stmt);
    const double wall = timer.Seconds();
    *cpu_seconds += ProcessCpuSeconds() - cpu_start;
    return wall;
  };

  std::vector<Case> cases = {
      {"where_point", "SELECT price * qty AS v FROM orders WHERE k = 1717", 1,
       {}},
      {"where_probe",
       "SELECT price * qty AS v FROM orders WHERE k >= 1200 AND k < 1206 "
       "AND price * qty > 500",
       6,
       {}},
      {"project_all", "SELECT price * qty AS v FROM orders", kRows, {}},
      {"scan_all", "SELECT * FROM orders", kRows, {}},
  };
  for (auto& c : cases) {
    for (size_t i = 0; i < warmup; ++i) {
      PIP_CHECK_MSG(ResultRows(Run(&session, c.sql)) == c.expected_rows,
                    std::string(c.name) + " returned the wrong row count");
    }
    c.walls.reserve(reps);
  }
  std::vector<double> cpu(cases.size(), 0.0);
  std::vector<double> load_walls;
  double load_cpu = 0;
  timed_load(&load_cpu);  // Warm-up.
  load_cpu = 0;
  for (size_t rep = 0; rep < reps; ++rep) {
    if (rep % 10 == 0) load_walls.push_back(timed_load(&load_cpu));
    for (size_t i = 0; i < cases.size(); ++i) {
      const double cpu_start = ProcessCpuSeconds();
      pip::WallTimer timer;
      Run(&session, cases[i].sql);
      cases[i].walls.push_back(timer.Seconds());
      cpu[i] += ProcessCpuSeconds() - cpu_start;
    }
  }

  std::printf("=== Symbolic SELECTs over %zu rows, %zu reps ===\n", kRows,
              reps);
  std::vector<BenchRecord> records;
  for (size_t i = 0; i < cases.size(); ++i) {
    Case& c = cases[i];
    std::nth_element(c.walls.begin(), c.walls.begin() + reps / 2,
                     c.walls.end());
    BenchRecord r;
    r.bench = "query_symbolic";
    r.query = c.name;
    r.wall_seconds = c.walls[reps / 2];
    r.cpu_seconds = cpu[i] / static_cast<double>(reps);
    r.value = static_cast<double>(c.expected_rows);
    r.samples_per_sec = static_cast<double>(kRows) / r.wall_seconds;
    std::printf("%14s %10.1f us  (cpu %.1f us, %zu rows)\n", c.name,
                r.wall_seconds * 1e6, r.cpu_seconds * 1e6, c.expected_rows);
    records.push_back(r);
  }
  std::printf("where_point / project_all = %.3f\n",
              records[0].wall_seconds / records[2].wall_seconds);
  const pip::bench::Quartiles load_q = pip::bench::QuartilesOf(load_walls);
  BenchRecord load_record;
  load_record.bench = "query_setup";
  load_record.query = "insert_2000";
  load_record.wall_seconds = load_q.median;
  load_record.wall_q1_seconds = load_q.q1;
  load_record.wall_q3_seconds = load_q.q3;
  load_record.cpu_seconds = load_cpu / static_cast<double>(load_walls.size());
  load_record.value = static_cast<double>(kRows);
  load_record.samples_per_sec = static_cast<double>(kRows) / load_q.median;
  std::printf("insert_2000: median %.3f ms (q1 %.3f, q3 %.3f; cpu %.3f ms) "
              "over %zu loads\n",
              load_q.median * 1e3, load_q.q1 * 1e3, load_q.q3 * 1e3,
              load_record.cpu_seconds * 1e3, load_walls.size());
  records.push_back(load_record);
  AppendBenchRecords(BenchJsonPath(), records);
  AppendBenchRecords(BenchJsonPath(),
                     {pip::bench::SpinCalibration("query_end")});
  return 0;
}
