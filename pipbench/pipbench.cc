/// \file pipbench.cc
/// \brief pipbench: PIP measured end to end over PIP1, and split by layer.
///
/// One process. For the chosen workload it starts an in-process
/// server::Server on 127.0.0.1:0 over a fresh Database(seed), loads the
/// workload's tables over PIP1, and drives the statement streams in a
/// closed loop: each client thread owns one server::Client connection and
/// sends its next statement only after the previous reply arrived. Every
/// reply is checked against closed forms (workloads.h, oracle.h).
///
///   pipbench --workload point|probe|sweep|tenant_rw|all --seed N
///            --seconds S --trace 0|1 [--out run.json]
///            [--trace-out trace.json] [--smoke]
///
/// --trace 0 prints the end-to-end metrics. --trace 1 splits the window:
/// the first half runs untraced, the second half records every statement
/// (text, times, reply); then a single-threaded in-process replay of the
/// recorded statements against a shadow Database built from the same seed
/// and set-up times each layer's public functions from outside and prints
/// the per-layer metrics. The spans go to --trace-out as Chrome
/// trace-event JSON (open it in Perfetto or chrome://tracing).
///
/// Every metric prints as `<workload> <metric> <value> <unit> n=<samples>`;
/// the last line of standard output is one JSON object
/// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
/// when every check passed.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pipbench/workloads.h"
#include "src/common/thread_pool.h"
#include "src/dist/distribution.h"
#include "src/engine/database.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/sql/lexer.h"
#include "src/sql/session.h"

namespace pipbench {
namespace {

using Clock = std::chrono::steady_clock;
using pip::server::WireResponse;

// -- Settings shared by every workload -------------------------------------

/// Admission-gate capacity in weight units (the CI server-smoke setting).
constexpr size_t kMaxSampling = 4;
/// INDEX_MEMORY_BUDGET: small enough that sweep's backfills overflow it.
constexpr size_t kIndexBudget = 4u << 20;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// The tail percentile, and the samples a run needs beyond it.
constexpr double kTail = 0.90;
constexpr size_t kTailSamplesBeyond = 10;
/// Sampling statements whose rows the replay samples for acceptance, and
/// the rows sampled per statement (spread over the statement's rows).
constexpr size_t kAcceptStatements = 50;
constexpr size_t kAcceptRows = 16;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// -- Small statistics --------------------------------------------------------

/// The q-quantile of `v` (copied; 0 for an empty sample), read as the
/// mean of the order statistics within 2 percentile points of q (at least
/// one). Statement latencies sit on the 4 ms steps of the kernel's
/// delayed-ACK timer, so a single order statistic jumps a whole step when
/// a few statements change sides, and moved probe's p90 by 9% between
/// runs; the window mean moves with the share on each side instead.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double pos = q * (n - 1);
  const double half = std::max(1.0, 0.02 * n);
  const size_t lo = static_cast<size_t>(std::max(0.0, std::ceil(pos - half)));
  const size_t hi = static_cast<size_t>(std::min(n - 1, std::floor(pos + half)));
  double sum = 0;
  for (size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident set (VmHWM) of this process in MiB. Reported, not
/// graded: with one malloc arena per thread it moves by 2-4 MiB between
/// runs of the same seed.
double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Bytes the process has allocated and not freed, over all malloc
/// arenas, in MiB. Read right after set-up it is the memory the loaded
/// database and the idle server hold: the same on every run of a seed.
/// Read later it would grow with the work done, so a faster commit (more
/// statements, more index entries in the window) would look fatter.
double HeapInUseMiB() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// -- Metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

// -- Set-up --------------------------------------------------------------------

/// The database defaults every workload shares, plus its FIXED_SAMPLES.
pip::SamplingOptions DatabaseOptions(const Workload& w) {
  pip::SamplingOptions options;
  options.index_memory_budget = kIndexBudget;
  options.fixed_samples = w.fixed_samples;
  return options;
}

/// A served database with the workload loaded and one open client per
/// workload connection.
struct Fixture {
  std::unique_ptr<pip::Database> db;
  std::unique_ptr<pip::server::Server> server;
  std::vector<std::unique_ptr<pip::server::Client>> clients;
  /// Set-up state of each connection's table, for tenant_rw's rounds.
  std::vector<std::shared_ptr<const pip::CTable>> snapshots;
  std::vector<StatementStream> streams;

  ~Fixture() {
    clients.clear();  // Close connections before the server joins them.
    if (server) server->Stop();
  }
};

/// Starts a server over a fresh database, runs the set-up SQL over PIP1
/// and connects the workload's clients. Exits the process on failure:
/// without its tables no workload can run.
std::unique_ptr<Fixture> SetUp(const Workload& w, uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  f->db = std::make_unique<pip::Database>(seed);
  f->db->set_default_options(DatabaseOptions(w));
  pip::server::ServerOptions options;
  options.max_sampling = kMaxSampling;
  f->server = std::make_unique<pip::server::Server>(f->db.get(), options);
  pip::Status status = f->server->Start();
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "pipbench: set-up failed: %s\n", what.c_str());
    std::exit(2);
  };
  if (!status.ok()) fail(status.ToString());
  {
    pip::server::Client loader;
    status = loader.Connect("127.0.0.1", f->server->port());
    if (!status.ok()) fail(status.ToString());
    for (const std::string& sql : w.setup) {
      auto resp = loader.Execute(sql);
      if (!resp.ok()) fail(resp.status().ToString());
      if (!resp->ok()) fail(sql.substr(0, 80) + ": " + resp->message);
    }
  }
  for (int c = 0; c < w.connections; ++c) {
    auto client = std::make_unique<pip::server::Client>();
    status = client->Connect("127.0.0.1", f->server->port());
    if (!status.ok()) fail(status.ToString());
    f->clients.push_back(std::move(client));
    f->streams.emplace_back(w, seed, c);
    if (w.round_length > 0) {
      auto snapshot = f->db->GetTable(w.TableOf(c).name);
      if (!snapshot.ok()) fail(snapshot.status().ToString());
      f->snapshots.push_back(snapshot.value());
    }
  }
  return f;
}

// -- The measured window ---------------------------------------------------------

/// One statement as the client saw it.
struct Record {
  int conn = 0;
  size_t index = 0;  ///< Position in the connection's stream.
  Op op = Op::kRead;
  double start_s = 0;  ///< Since the window opened.
  double ms = 0;
  uint64_t queue_us = 0;
  bool ok = false;
};

/// A traced statement: its record plus what the replay needs.
struct Traced {
  Record record;
  Statement statement;
  WireResponse response;
};

/// An untraced write, kept so the replay can re-apply it.
struct Write {
  int conn = 0;
  size_t index = 0;
  std::string sql;
};

/// Outcome of one window.
struct Window {
  double seconds = 0;
  std::vector<Record> records;  ///< Stream order within each connection.
  std::vector<Traced> traced;   ///< Traced windows only.
  std::vector<Write> writes;    ///< Untraced windows only.
  uint64_t attempted = 0, failed = 0;
};

/// Thread-safe bookkeeping of correctness failures and of the replies to
/// repeated statement texts, which must repeat cell for cell.
class Checker {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_++ < 10) std::fprintf(stderr, "pipbench: CHECK FAILED: %s\n", what.c_str());
  }

  void Same(const std::string& sql, const WireResponse& r) {
    bool differs = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = seen_.find(sql);
      if (it == seen_.end()) {
        // Bounded: fresh-threshold statements never repeat, and the
        // process's memory is itself a metric.
        if (seen_.size() < kMaxRemembered) seen_.emplace(sql, r.rows);
      } else {
        differs = it->second != r.rows;
      }
    }
    if (differs) Fail("identical statements returned different cells: " + sql);
  }

  uint64_t failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  static constexpr size_t kMaxRemembered = 4096;
  mutable std::mutex mu_;
  uint64_t failures_ = 0;
  std::unordered_map<std::string, std::vector<std::vector<std::string>>> seen_;
};

/// What a window keeps beyond latencies: nothing, the writes (so a replay
/// can re-apply them), or every statement with its reply.
enum class Keep { kLatencies, kWrites, kEverything };

/// Runs the closed loop for `seconds`.
Window RunWindow(const Workload& w, Fixture* f, double seconds, Keep keep,
                 Checker* checker) {
  std::vector<Window> per_conn(w.connections);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (int c = 0; c < w.connections; ++c) {
    threads.emplace_back([&, c] {
      Window& out = per_conn[c];
      pip::server::Client& client = *f->clients[c];
      StatementStream& stream = f->streams[c];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Clock::time_point deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
      while (Clock::now() < deadline && client.connected()) {
        if (stream.AtRoundStart()) {
          // A harness reset, not a statement: the next round starts from
          // the set-up rows again, so every round does the same work.
          f->db->MaterializeView(w.TableOf(c).name, *f->snapshots[c]);
        }
        Record rec;
        rec.conn = c;
        rec.index = stream.position();
        Statement st = stream.Next();
        rec.op = st.op;
        Clock::time_point t0 = Clock::now();
        auto resp = client.Execute(st.sql);
        Clock::time_point t1 = Clock::now();
        rec.start_s = Seconds(start, t0);
        rec.ms = 1e3 * Seconds(t0, t1);
        out.attempted++;
        if (!resp.ok()) {
          // Transport failure: counted, not retried. The connection is
          // unusable afterwards, so this client stops.
          out.failed++;
          checker->Fail("transport: " + resp.status().ToString());
          client.Close();
          continue;
        }
        rec.queue_us = resp->queue_us;
        rec.ok = resp->ok();
        if (!rec.ok) out.failed++;
        std::string err = Verify(st.check, *resp);
        if (!err.empty()) checker->Fail(st.sql.substr(0, 120) + ": " + err);
        if (rec.ok) checker->Same(st.sql, *resp);
        out.records.push_back(rec);
        if (keep == Keep::kEverything) {
          out.traced.push_back({rec, std::move(st), std::move(resp).value()});
        } else if (keep == Keep::kWrites && st.op == Op::kWrite) {
          out.writes.push_back({c, rec.index, std::move(st.sql)});
        }
      }
    });
  }
  while (ready.load() < w.connections) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  Window all;
  all.seconds = Seconds(start, Clock::now());
  for (Window& p : per_conn) {
    all.attempted += p.attempted;
    all.failed += p.failed;
    all.records.insert(all.records.end(), p.records.begin(), p.records.end());
    for (Traced& t : p.traced) all.traced.push_back(std::move(t));
    for (auto& wr : p.writes) all.writes.push_back(std::move(wr));
  }
  return all;
}

std::vector<double> LatenciesOf(const Window& win, const Op* op) {
  std::vector<double> v;
  for (const Record& r : win.records) {
    if (r.ok && (op == nullptr || r.op == *op)) v.push_back(r.ms);
  }
  return v;
}

// -- Window counters ---------------------------------------------------------------

/// The serving process's public stats, snapshotted around a window.
struct Counters {
  pip::ExpectationIndex::Stats index;
  pip::PlanCache::Stats plan;
  pip::ThreadPool::SchedulerStats pool;
  pip::server::AdmissionGate::Stats gate;

  static Counters Read(const Fixture& f) {
    return {f.db->result_index_stats(), f.db->plan_cache_stats(),
            pip::ThreadPool::Shared().scheduler_stats(),
            f.server->admission_stats()};
  }
};

// -- Trace spans ------------------------------------------------------------------

struct Span {
  std::string name;
  int pid = 1;  ///< 1 = wire pass, 2 = replay.
  int tid = 0;  ///< Connection.
  double ts_us = 0, dur_us = 0;
  std::string args;  ///< JSON object body, without braces.
};

void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
         "\"wire pass\"}},\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":"
         "\"in-process replay\"}}";
  for (const Span& s : spans) {
    out << ",\n{\"name\":" << JsonString(s.name) << ",\"ph\":\"X\",\"pid\":"
        << s.pid << ",\"tid\":" << s.tid << ",\"ts\":" << JsonNumber(s.ts_us)
        << ",\"dur\":" << JsonNumber(s.dur_us) << ",\"args\":{" << s.args
        << "}}";
  }
  out << "\n]}\n";
}

// -- Replay --------------------------------------------------------------------------

/// Per-statement layer times from the replay, joined to the wire record.
struct ReplayStmt {
  Op op = Op::kRead;
  double wire_ms = 0, queue_ms = 0;
  double tokenize_us = 0, classify_us = 0, execute_ms = 0;
  double encode_us = 0, decode_us = 0, query_ms = -1;
  size_t response_bytes = 0;
};

struct Replay {
  std::vector<ReplayStmt> stmts;
  std::vector<double> write_us;  ///< Every INSERT, set-up loads included.
  /// SamplingEngine::Expectation over sampled rows of the symbolic forms.
  size_t accept_samples = 0, accept_attempts = 0, accept_rows = 0;
  double accept_seconds = 0;
};

template <typename F>
double TimeUs(F&& f) {
  Clock::time_point t0 = Clock::now();
  f();
  return 1e6 * Seconds(t0, Clock::now());
}

/// Replays the traced statements in-process, one at a time, against a
/// shadow database built from the same seed and set-up SQL, timing each
/// layer's public entry points. Stops when `budget_s` is spent.
Replay RunReplay(const Workload& w, uint64_t seed, const Window& untraced,
                 const Window& traced, double budget_s, double trace_origin_us,
                 std::vector<Span>* spans, Checker* checker) {
  Replay out;
  pip::Database shadow(seed);
  shadow.set_default_options(DatabaseOptions(w));
  {
    pip::sql::Session loader(&shadow);
    for (const std::string& sql : w.setup) {
      pip::sql::SqlResult r;
      double us = TimeUs([&] { r = loader.Execute(sql); });
      if (!r.ok()) checker->Fail("replay set-up: " + r.error.message);
      if (sql.rfind("INSERT", 0) == 0) out.write_us.push_back(us);
    }
  }
  std::vector<std::shared_ptr<const pip::CTable>> snapshots;
  std::vector<std::unique_ptr<pip::sql::Session>> sessions;
  for (int c = 0; c < w.connections; ++c) {
    sessions.push_back(std::make_unique<pip::sql::Session>(&shadow));
    if (w.round_length > 0) snapshots.push_back(*shadow.GetTable(w.TableOf(c).name));
  }
  auto restore_if_round_start = [&](int conn, size_t index) {
    if (w.round_length > 0 && index > 0 && index % w.round_length == 0) {
      shadow.MaterializeView(w.TableOf(conn).name, *snapshots[conn]);
    }
  };
  // The untraced half's writes change what later statements scan: apply
  // them, with their round resets, before replaying the traced half.
  // Records and writes are each in stream order per connection.
  size_t next_write = 0;
  for (const Record& r : untraced.records) {
    restore_if_round_start(r.conn, r.index);
    if (r.op != Op::kWrite) continue;
    const Write& wr = untraced.writes[next_write++];
    if (wr.conn != r.conn || wr.index != r.index ||
        !sessions[r.conn]->Execute(wr.sql).ok()) {
      checker->Fail("replay could not re-apply write: " + wr.sql);
    }
  }
  // Replay connection-interleaved by stream position so a budget cut
  // still samples every connection.
  std::vector<std::vector<const Traced*>> by_conn(w.connections);
  for (const Traced& t : traced.traced) by_conn[t.record.conn].push_back(&t);
  size_t longest = 0;
  for (const auto& v : by_conn) longest = std::max(longest, v.size());
  pip::SamplingOptions accept_options = DatabaseOptions(w);
  accept_options.index_enabled = false;
  const pip::SamplingEngine accept_engine = shadow.MakeEngine(accept_options);
  size_t accept_statements = 0;
  Clock::time_point replay_start = Clock::now();
  auto now_us = [&] {
    return trace_origin_us + 1e6 * Seconds(replay_start, Clock::now());
  };
  for (size_t i = 0; i < longest; ++i) {
    if (Seconds(replay_start, Clock::now()) > budget_s) break;
    for (int c = 0; c < w.connections; ++c) {
      if (i >= by_conn[c].size()) continue;
      const Traced& t = *by_conn[c][i];
      restore_if_round_start(c, t.record.index);
      pip::sql::Session& session = *sessions[c];
      ReplayStmt rs;
      rs.op = t.record.op;
      rs.wire_ms = t.record.ms;
      rs.queue_ms = t.record.queue_us / 1e3;
      const std::string& sql = t.statement.sql;
      const double stmt_ts = now_us();
      auto span = [&](const char* name, double ts, double dur_us,
                      std::string args = "") {
        spans->push_back({name, 2, c, ts, dur_us, std::move(args)});
      };
      double ts = now_us();
      rs.tokenize_us = TimeUs([&] { (void)pip::sql::Tokenize(sql); });
      span("sql.tokenize", ts, rs.tokenize_us);
      ts = now_us();
      rs.classify_us = TimeUs([&] {
        if (pip::sql::StatementMaySample(sql)) {
          (void)pip::sql::EstimateSampleVolume(shadow, sql,
                                              *session.mutable_options());
        }
      });
      span("sql.classify", ts, rs.classify_us);
      const pip::ExpectationIndex::Stats ix0 = shadow.result_index_stats();
      const pip::PlanCache::Stats pc0 = shadow.plan_cache_stats();
      const uint64_t regions0 = pip::ThreadPool::Shared().scheduler_stats().regions;
      pip::sql::SqlResult result;
      ts = now_us();
      double exec_us = TimeUs([&] { result = session.Execute(sql); });
      rs.execute_ms = exec_us / 1e3;
      const pip::ExpectationIndex::Stats ix = shadow.result_index_stats();
      const pip::PlanCache::Stats pc = shadow.plan_cache_stats();
      span("sql.execute", ts, exec_us,
           "\"index_hits\":" + std::to_string(ix.hits - ix0.hits) +
               ",\"index_misses\":" + std::to_string(ix.misses - ix0.misses) +
               ",\"plan_hits\":" + std::to_string(pc.hits - pc0.hits) +
               ",\"plan_misses\":" + std::to_string(pc.misses - pc0.misses) +
               ",\"pool_regions\":" +
               std::to_string(pip::ThreadPool::Shared().scheduler_stats().regions -
                              regions0));
      if (rs.op == Op::kWrite) out.write_us.push_back(exec_us);
      std::string payload;
      ts = now_us();
      rs.encode_us = TimeUs(
          [&] { payload = pip::server::EncodeResponse(result, t.record.queue_us); });
      span("server.wire.encode", ts, rs.encode_us);
      rs.response_bytes = payload.size();
      pip::StatusOr<WireResponse> decoded = pip::Status::Internal("unset");
      ts = now_us();
      rs.decode_us =
          TimeUs([&] { decoded = pip::server::DecodeResponse(payload); });
      span("client.wire.decode", ts, rs.decode_us);
      if (!decoded.ok()) {
        checker->Fail("replay decode: " + decoded.status().ToString());
      } else if (decoded->kind != t.response.kind ||
                 decoded->rows != t.response.rows ||
                 decoded->message != t.response.message) {
        checker->Fail("wire reply differs from in-process replay: " + sql);
      }
      if (rs.op == Op::kRead) rs.query_ms = rs.execute_ms;
      if (rs.op == Op::kSample && !t.statement.symbolic.empty()) {
        pip::sql::SqlResult symbolic;
        ts = now_us();
        double us = TimeUs([&] { symbolic = session.Execute(t.statement.symbolic); });
        rs.query_ms = us / 1e3;
        span("engine.query", ts, us);
        if (!symbolic.ok() || symbolic.kind != pip::sql::SqlResult::Kind::kCTable) {
          checker->Fail("symbolic form failed: " + t.statement.symbolic);
        } else if (accept_statements < kAcceptStatements) {
          ++accept_statements;
          ts = now_us();
          Clock::time_point a0 = Clock::now();
          const auto& rows = symbolic.ctable.rows();
          const size_t step = std::max<size_t>(1, rows.size() / kAcceptRows);
          for (size_t row = 0; row < rows.size(); row += step) {
            auto res = accept_engine.Expectation(rows[row].cells[0],
                                                 rows[row].condition, true);
            if (!res.ok()) continue;
            out.accept_rows++;
            out.accept_attempts += res->attempts;
            out.accept_samples += res->samples_used;
          }
          double s = Seconds(a0, Clock::now());
          out.accept_seconds += s;
          span("sampling.expectation", ts, 1e6 * s);
        }
      }
      span("replay.stmt", stmt_ts, now_us() - stmt_ts,
           "\"stmt\":" + std::to_string(t.record.index) + ",\"op\":\"" +
               OpName(rs.op) + "\"");
      out.stmts.push_back(rs);
    }
  }
  return out;
}

/// Draws per second of `dist_name`'s batch kernel, in 64-draw blocks
/// cycling over `params` (one parameter vector per table row); 0 when the
/// kernel fails.
double DrawsPerSecond(const char* dist_name,
                      const std::vector<std::vector<double>>& params,
                      uint64_t seed) {
  constexpr uint64_t kBlock = 64;
  constexpr double kSeconds = 0.2;
  auto dist = pip::DistributionRegistry::Global().Lookup(dist_name);
  if (!dist.ok()) return 0;
  double out[kBlock];
  uint64_t draws = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0;
  for (uint64_t block = 0; elapsed < kSeconds; ++block) {
    size_t row = block % params.size();
    pip::SampleContext ctx{seed, row + 1, block * kBlock, 0};
    if (!dist.value()->GenerateBatch(params[row], ctx, kBlock, out).ok()) {
      return 0;
    }
    draws += kBlock;
    if (block % 64 == 63) elapsed = Seconds(t0, Clock::now());
  }
  return draws / Seconds(t0, Clock::now());
}

// -- One workload run -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_path;
  std::string trace_path;
};

struct RunResult {
  std::vector<Metric> metrics;        ///< What --trace selects.
  std::vector<Metric> extra;          ///< Printed and written, not graded.
  uint64_t attempted = 0, failed = 0, check_failures = 0;
  bool valid = true;
  std::string invalid_reason;
};

void Add(std::vector<Metric>* v, const std::string& name, double value,
         const std::string& unit, size_t samples) {
  v->push_back({name, value, unit, samples});
}

/// The graded end-to-end metrics of one untraced window, plus ungraded
/// extras. Marks the run invalid when the tail has too few samples.
void EndToEndMetrics(const Window& win, const std::vector<double>& setup_s,
                     double heap_mib, RunResult* result) {
  const Op sample = Op::kSample, read = Op::kRead, write = Op::kWrite;
  const std::vector<double> all = LatenciesOf(win, nullptr);
  const std::vector<double> samples = LatenciesOf(win, &sample);
  auto* m = &result->metrics;
  Add(m, "setup_s", Quantile(setup_s, 0.5), "s", setup_s.size());
  Add(m, "throughput_stmts_s", all.size() / win.seconds, "stmt/s", all.size());
  Add(m, "stmt_p50_ms", Quantile(all, 0.5), "ms", all.size());
  Add(m, "stmt_tail_ms", Quantile(all, kTail), "ms", all.size());
  Add(m, "sample_p50_ms", Quantile(samples, 0.5), "ms", samples.size());
  Add(m, "heap_mb", heap_mib, "MiB", 1);
  // Not every workload reads or writes, and a graded metric must exist on
  // all of them; these and the failure ratio are reported, not graded.
  auto* x = &result->extra;
  const std::vector<double> reads = LatenciesOf(win, &read);
  const std::vector<double> writes = LatenciesOf(win, &write);
  if (!reads.empty()) Add(x, "read_p50_ms", Quantile(reads, 0.5), "ms", reads.size());
  if (!writes.empty()) Add(x, "write_p50_ms", Quantile(writes, 0.5), "ms", writes.size());
  Add(x, "fail_ratio", Ratio(win.failed, win.attempted), "ratio", win.attempted);
  Add(x, "rss_peak_mb", PeakRssMiB(), "MiB", 1);
  const size_t beyond =
      all.size() - static_cast<size_t>(std::ceil(kTail * all.size()));
  if (beyond < kTailSamplesBeyond) {
    result->valid = false;
    result->invalid_reason = "only " + std::to_string(beyond) +
                             " statements beyond the tail percentile";
  }
}

/// The per-layer metrics of a traced window, its replay, and the window
/// counters read around it (c0 before, c1 after).
void LayerMetrics(const Workload& w, uint64_t seed, const Window& untraced,
                  const Window& traced, const Replay& rep, const Counters& c0,
                  const Counters& c1, RunResult* result) {
  // Transport is what the replay cannot account for: the wire time less
  // the admission wait, execution, encoding and decoding.
  std::vector<double> transport, encode_us, bytes, tokenize, classify,
      execute, query, sample_ms;
  double sum_wire = 0, sum_transport = 0, sum_execute = 0, enc_bytes = 0,
         enc_us = 0, dec_us = 0;
  size_t nonneg = 0;
  for (const ReplayStmt& s : rep.stmts) {
    double residual = s.wire_ms - s.queue_ms - s.execute_ms -
                      (s.encode_us + s.decode_us) / 1e3;
    transport.push_back(residual);
    if (residual >= 0) nonneg++;
    sum_wire += s.wire_ms;
    sum_transport += residual;
    sum_execute += s.execute_ms;
    encode_us.push_back(s.encode_us);
    bytes.push_back(static_cast<double>(s.response_bytes));
    enc_bytes += s.response_bytes;
    enc_us += s.encode_us;
    dec_us += s.decode_us;
    tokenize.push_back(s.tokenize_us);
    classify.push_back(s.classify_us);
    execute.push_back(s.execute_ms);
    if (s.query_ms >= 0) query.push_back(s.query_ms);
    if (s.op == Op::kSample && s.query_ms >= 0) {
      sample_ms.push_back(s.execute_ms - s.query_ms);
    }
  }
  std::vector<double> gated_wait;
  double sum_wait = 0, sum_traced = 0;
  for (const Record& r : traced.records) {
    sum_traced += r.ms;
    sum_wait += r.queue_us / 1e3;
    if (r.op == Op::kSample) gated_wait.push_back(r.queue_us / 1e3);
  }
  const size_t n = rep.stmts.size();
  const size_t gated = gated_wait.size();
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  auto* m = &result->metrics;
  Add(m, "server.transport_ms_p50", Quantile(transport, 0.5), "ms", n);
  Add(m, "server.transport_share", Ratio(sum_transport, sum_wire), "ratio", n);
  const double admitted = d(c1.gate.admitted, c0.gate.admitted);
  Add(m, "server.admission.wait_share", Ratio(sum_wait, sum_traced), "ratio",
      traced.records.size());
  Add(m, "server.admission.queued_ratio",
      Ratio(d(c1.gate.queued, c0.gate.queued), admitted), "ratio", admitted);
  Add(m, "server.admission.weight_mean",
      Ratio(d(c1.gate.admitted_weight, c0.gate.admitted_weight), admitted),
      "units", admitted);
  Add(m, "server.wire.encode_us_p50", Quantile(encode_us, 0.5), "us", n);
  Add(m, "server.wire.encode_mb_s", Ratio(enc_bytes, enc_us), "MB/s", n);
  Add(m, "server.wire.decode_mb_s", Ratio(enc_bytes, dec_us), "MB/s", n);
  Add(m, "server.wire.response_bytes_p50", Quantile(bytes, 0.5), "B", n);
  Add(m, "sql.tokenize_us_p50", Quantile(tokenize, 0.5), "us", n);
  Add(m, "sql.classify_us_p50", Quantile(classify, 0.5), "us", n);
  Add(m, "sql.execute_ms_p50", Quantile(execute, 0.5), "ms", n);
  Add(m, "sql.execute_share", Ratio(sum_execute, sum_wire), "ratio", n);
  Add(m, "engine.query_ms_p50", Quantile(query, 0.5), "ms", query.size());
  Add(m, "engine.sample_ms_p50", Quantile(sample_ms, 0.5), "ms", sample_ms.size());
  Add(m, "engine.write_us_p50", Quantile(rep.write_us, 0.5), "us", rep.write_us.size());
  const double hits = d(c1.index.hits, c0.index.hits);
  const double lookups = hits + d(c1.index.misses, c0.index.misses);
  Add(m, "index.hit_ratio", Ratio(hits, lookups), "ratio", lookups);
  Add(m, "index.invalidations", d(c1.index.invalidations, c0.index.invalidations), "count", 1);
  Add(m, "index.evictions", d(c1.index.evictions, c0.index.evictions), "count", 1);
  Add(m, "index.entries", c1.index.entries, "count", 1);
  Add(m, "index.bytes_per_entry", Ratio(c1.index.bytes, c1.index.entries), "B", c1.index.entries);
  Add(m, "sampling.accept_ratio", Ratio(rep.accept_samples, rep.accept_attempts), "ratio", rep.accept_rows);
  Add(m, "sampling.attempts_per_row", Ratio(rep.accept_attempts, rep.accept_rows), "count", rep.accept_rows);
  const double plan_hits = d(c1.plan.hits, c0.plan.hits);
  const double plans = plan_hits + d(c1.plan.misses, c0.plan.misses);
  Add(m, "sampling.plan_cache.hit_ratio", Ratio(plan_hits, plans), "ratio", plans);
  Add(m, "sampling.rows_per_s", Ratio(rep.accept_rows, rep.accept_seconds), "1/s", rep.accept_rows);
  const double regions = d(c1.pool.regions, c0.pool.regions);
  const double inlined = d(c1.pool.inline_regions, c0.pool.inline_regions);
  Add(m, "pool.regions_per_stmt", Ratio(regions, gated), "count", gated);
  Add(m, "pool.inline_ratio", Ratio(inlined, regions + inlined), "ratio", regions + inlined);
  Add(m, "pool.steals_per_stmt", Ratio(d(c1.pool.steals, c0.pool.steals), gated), "count", gated);
  Add(m, "pool.nested_tasks_per_stmt",
      Ratio(d(c1.pool.nested_tasks, c0.pool.nested_tasks), gated), "count", gated);
  Add(m, "pool.join_wait_ms_per_stmt",
      Ratio(d(c1.pool.join_wait_micros, c0.pool.join_wait_micros) / 1e3, gated),
      "ms", gated);
  std::vector<std::vector<double>> normal, poisson;
  for (const RowParams& p : w.tables[0].rows) {
    normal.push_back({p.mu, p.sigma});
    poisson.push_back({p.lambda});
  }
  Add(m, "dist.normal.draws_per_s", DrawsPerSecond("Normal", normal, seed), "1/s", 1);
  Add(m, "dist.poisson.draws_per_s", DrawsPerSecond("Poisson", poisson, seed), "1/s", 1);
  const std::vector<double> lat_untraced = LatenciesOf(untraced, nullptr);
  const std::vector<double> lat_traced = LatenciesOf(traced, nullptr);
  Add(m, "trace.overhead_ratio",
      Ratio(Quantile(lat_traced, 0.5), Quantile(lat_untraced, 0.5)) - 1,
      "ratio", lat_traced.size());
  auto* x = &result->extra;
  Add(x, "server.transport_nonneg_ratio", Ratio(nonneg, n), "ratio", n);
  // A time, so not graded: sweep's single client never queues, and a time
  // that reads 0 on every run measures nothing.
  Add(x, "server.admission.wait_ms_mean", Ratio(Sum(gated_wait), gated), "ms", gated);
  Add(x, "replayed_stmts", n, "count", traced.traced.size());
}

/// Wire-pass spans: one `stmt` per traced statement, with its admission
/// wait as a child. The server reports only the wait's length, so it is
/// drawn at the start of the statement.
std::vector<Span> WireSpans(const Window& traced) {
  std::vector<Span> spans;
  for (const Traced& t : traced.traced) {
    const Record& r = t.record;
    const double ts = 1e6 * r.start_s;
    spans.push_back({"stmt", 1, r.conn, ts, 1e3 * r.ms,
                     "\"stmt\":" + std::to_string(r.index) + ",\"op\":\"" +
                         OpName(r.op) + "\",\"sql\":" +
                         JsonString(t.statement.sql.substr(0, 200))});
    if (r.queue_us > 0) {
      spans.push_back({"server.admission.wait", 1, r.conn, ts,
                       static_cast<double>(r.queue_us), ""});
    }
  }
  return spans;
}

RunResult RunWorkload(const Args& args, const std::string& name, bool trace) {
  RunResult result;
  const Workload w = MakeWorkload(name, args.seed, args.smoke);
  Checker checker;

  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < (args.smoke ? 1 : kSetups); ++i) {
    fixture.reset();
    Clock::time_point t0 = Clock::now();
    fixture = SetUp(w, args.seed);
    setup_s.push_back(Seconds(t0, Clock::now()));
  }

  if (!trace) {
    const double heap = HeapInUseMiB();
    Window win = RunWindow(w, fixture.get(), args.seconds, Keep::kLatencies,
                           &checker);
    fixture.reset();
    result.attempted = win.attempted;
    result.failed = win.failed;
    EndToEndMetrics(win, setup_s, heap, &result);
  } else {
    Window untraced = RunWindow(w, fixture.get(), args.seconds / 2,
                                Keep::kWrites, &checker);
    const Counters c0 = Counters::Read(*fixture);
    Window traced = RunWindow(w, fixture.get(), args.seconds / 2,
                              Keep::kEverything, &checker);
    const Counters c1 = Counters::Read(*fixture);
    fixture.reset();
    result.attempted = untraced.attempted + traced.attempted;
    result.failed = untraced.failed + traced.failed;
    std::vector<Span> spans = WireSpans(traced);
    const Replay rep = RunReplay(w, args.seed, untraced, traced,
                                 args.seconds / 4, 1e6 * traced.seconds + 1e5,
                                 &spans, &checker);
    LayerMetrics(w, args.seed, untraced, traced, rep, c0, c1, &result);
    if (!args.trace_path.empty()) {
      std::string path = args.trace_path;
      if (args.workload == "all") {
        size_t dot = path.rfind('.');
        path = dot == std::string::npos
                   ? path + "." + name
                   : path.substr(0, dot) + "." + name + path.substr(dot);
      }
      WriteChromeTrace(path, spans);
    }
  }
  result.check_failures = checker.failures();
  return result;
}

void PrintMetrics(const std::string& workload, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%s %s %.6g %s n=%zu\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload point|probe|sweep|tenant_rw|all --seed N "
               "--seconds S --trace 0|1 [--out run.json] "
               "[--trace-out trace.json] [--smoke]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (v == nullptr) return Usage(argv[0]);
    ++i;
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--out") {
      args.out_path = v;
    } else if (flag == "--trace-out") {
      args.trace_path = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (args.smoke) args.seconds = std::min(args.seconds, 1.0);
  std::vector<std::string> names;
  if (args.workload == "all") {
    names = WorkloadNames();
  } else if (!MakeWorkload(args.workload, args.seed, true).name.empty()) {
    names = {args.workload};
  } else {
    return Usage(argv[0]);
  }
  if (!(args.seconds > 0)) return Usage(argv[0]);

  bool correct = true, valid = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::pair<std::string, RunResult>> runs;
  // A smoke run exercises both modes.
  const std::vector<bool> modes =
      args.smoke ? std::vector<bool>{false, true} : std::vector<bool>{args.trace};
  for (const std::string& name : names) {
   for (bool trace : modes) {
    RunResult r = RunWorkload(args, name, trace);
    PrintMetrics(name, r.metrics);
    PrintMetrics(name, r.extra);
    if (r.check_failures > 0) {
      std::printf("%s checks FAILED: %llu\n", name.c_str(),
                  static_cast<unsigned long long>(r.check_failures));
      correct = false;
    }
    if (!r.valid && !args.smoke) {
      std::fprintf(stderr, "pipbench: %s run invalid: %s\n", name.c_str(),
                   r.invalid_reason.c_str());
      valid = false;
    }
    attempted += r.attempted;
    failed += r.failed;
    // A smoke run holds both modes of each workload; keep their keys apart.
    runs.emplace_back(args.smoke && trace ? name + ".trace" : name,
                      std::move(r));
   }
  }
  if (!valid) return 3;

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, r] : runs) {
    for (const Metric& m : r.metrics) {
      std::string key = runs.size() > 1 ? name + "." + m.name : m.name;
      json << (first ? "" : ", ") << JsonString(key) << ": {\"value\": "
           << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit) << "}";
      first = false;
    }
  }
  json << "}}";

  if (!args.out_path.empty()) {
    std::ofstream out(args.out_path, std::ios::trunc);
    out << "{\"seed\": " << args.seed << ", \"seconds\": "
        << JsonNumber(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"workloads\": {";
    for (size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = runs[i].second;
      out << (i ? ", " : "") << JsonString(runs[i].first) << ": {\"attempted\": "
          << r.attempted << ", \"failed\": " << r.failed << ", \"metrics\": {";
      bool f = true;
      for (const auto* list : {&r.metrics, &r.extra}) {
        for (const Metric& m : *list) {
          out << (f ? "" : ", ") << JsonString(m.name) << ": {\"value\": "
              << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit)
              << ", \"samples\": " << m.samples << "}";
          f = false;
        }
      }
      out << "}}";
    }
    out << "}}\n";
  }
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pipbench

int main(int argc, char** argv) { return pipbench::Main(argc, argv); }
