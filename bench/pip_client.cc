/// \file pip_client.cc
/// \brief Load generator for pip-server (the "pip-client" tool).
///
/// Usage:
///   pip-client --port P [--host H] [--clients "1,4,16"]
///              [--statements N] [--json out.json] [--tolerate-errors]
///
/// Seeds the server with a small uncertain-orders table, then sweeps
/// client counts: each client opens its own connection (own session) and
/// fires a fixed per-client mix of statements — mostly sampling SELECTs,
/// with symbolic SELECTs and INSERTs mixed in — measuring per-statement
/// latency. Per sweep point it reports p50 and tail latency and statement
/// throughput into the BENCH JSON (bench="server_load"), and exits
/// non-zero if any response is a protocol error or a statement fails.
/// The tail is the highest whole percentile with at least 10 statements
/// above it (p90 for one client's 98 statements, p99 from ~1,000), named
/// in the record's query ("p90_ms"); every record's `samples` field holds
/// the statement count its percentiles come from.
///
/// Statements retry with exponential backoff and deterministic jitter on
/// ERR OVERLOADED (the server shed the statement) and on transport
/// errors (reconnect first); retry and shed counts land in the BENCH
/// JSON alongside the latency metrics. --tolerate-errors keeps the exit
/// code zero when statements fail with *categorized* wire errors — the
/// chaos CI mode, where injected faults make some failures expected and
/// only protocol breakage or a dead server should fail the job.
///
/// PIP_BENCH_SMOKE=1 shrinks the sweep for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

#include "bench/bench_json.h"
#include "src/server/client.h"

using namespace pip;

namespace {

struct LoadResult {
  std::vector<double> latencies_ms;  // One entry per statement.
  double wall_seconds = 0;
  uint64_t errors = 0;
  uint64_t queued_us = 0;  // Sum of reported admission waits.
  uint64_t retries = 0;    // Backoff-and-retry attempts (shed/transport).
  uint64_t sheds = 0;      // ERR OVERLOADED responses observed.
};

/// Executes one statement, retrying on ERR OVERLOADED and on transport
/// failures (reconnecting first). Backoff doubles per attempt with full
/// jitter from the caller's deterministic rng, so concurrent clients
/// desynchronize without becoming irreproducible. Returns the final
/// attempt's response; counts retries/sheds into `out`.
///
/// Transport retry makes delivery at-least-once — fine for a load
/// generator whose INSERTs go to throwaway per-client tables.
StatusOr<server::WireResponse> ExecuteWithRetry(
    server::Client& client, const std::string& host, uint16_t port,
    const std::string& stmt, std::minstd_rand& rng, LoadResult* out) {
  constexpr int kMaxAttempts = 6;
  uint64_t backoff_ms = 2;
  for (int attempt = 1;; ++attempt) {
    StatusOr<server::WireResponse> resp =
        client.connected()
            ? client.Execute(stmt)
            : StatusOr<server::WireResponse>(
                  Status::Internal("connection lost"));
    bool shed = resp.ok() && !resp.value().ok() &&
                resp.value().code == sql::WireErrorCode::kOverloaded;
    if (shed) out->sheds++;
    bool transport = !resp.ok();
    if ((!shed && !transport) || attempt == kMaxAttempts) return resp;
    if (transport) {
      client.Close();
      // A failed reconnect is retried on the next attempt; the backoff
      // below spaces those out too.
      (void)client.Connect(host, port);
    }
    out->retries++;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(rng() % (backoff_ms + 1)));
    backoff_ms = std::min<uint64_t>(backoff_ms * 2, 128);
  }
}

/// The per-client statement mix. Read-only so concurrent clients stay
/// bit-identical; the INSERT warms a client-private table instead of the
/// shared one to keep the sampled table stable across the sweep.
std::vector<std::string> StatementMix(int sweep, int client, int statements) {
  std::vector<std::string> mix;
  std::string priv =
      "scratch_" + std::to_string(sweep) + "_" + std::to_string(client);
  // SET is session-local: every connection pins its own sample count so
  // the sweep measures a fixed workload, not the adaptive stopping rule.
  mix.push_back("SET FIXED_SAMPLES = 2000");
  mix.push_back("CREATE TABLE " + priv + " (v)");
  for (int i = 0; i < statements; ++i) {
    switch (i % 4) {
      case 0:
        mix.push_back("SELECT expected_sum(price) FROM orders");
        break;
      case 1:
        mix.push_back(
            "SELECT expectation(price), conf() FROM orders WHERE price > 95");
        break;
      case 2:
        mix.push_back("SELECT * FROM orders");
        break;
      default:
        mix.push_back("INSERT INTO " + priv + " VALUES (Uniform(0, 1))");
    }
  }
  return mix;
}

LoadResult RunClients(const std::string& host, uint16_t port, int sweep,
                      int clients, int statements) {
  std::vector<LoadResult> per_client(clients);
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = per_client[c];
      server::Client client;
      Status status = client.Connect(host, port);
      if (!status.ok()) {
        out.errors++;
        ready.fetch_add(1);
        return;
      }
      std::vector<std::string> mix = StatementMix(sweep, c, statements);
      // Deterministic per-client jitter stream: reruns of one sweep
      // replay the same backoff schedule.
      std::minstd_rand rng(
          static_cast<unsigned>(1 + sweep * 1031 + c * 7919));
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (const std::string& stmt : mix) {
        auto start = std::chrono::steady_clock::now();
        auto resp = ExecuteWithRetry(client, host, port, stmt, rng, &out);
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        if (!resp.ok() || !resp.value().ok()) {
          out.errors++;
          continue;
        }
        out.latencies_ms.push_back(ms);
        out.queued_us += resp.value().queue_us;
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  auto wall_start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              wall_start)
                    .count();

  LoadResult merged;
  merged.wall_seconds = wall;
  for (LoadResult& r : per_client) {
    merged.errors += r.errors;
    merged.queued_us += r.queued_us;
    merged.retries += r.retries;
    merged.sheds += r.sheds;
    merged.latencies_ms.insert(merged.latencies_ms.end(),
                               r.latencies_ms.begin(), r.latencies_ms.end());
  }
  return merged;
}

/// Statements a tail percentile must leave above it to be more than one
/// or two outliers (pipbench's tail rule).
constexpr size_t kTailSamplesBeyond = 10;

/// Nearest-rank index of the p-th quantile among `n` sorted values.
size_t RankIndex(size_t n, double p) {
  return std::min(static_cast<size_t>(p * (n - 1) + 0.5), n - 1);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[RankIndex(v.size(), p)];
}

/// The highest whole percentile, from 99 down to 50, that leaves at least
/// kTailSamplesBeyond of `n` statements above it (50 when none does).
int TailPercentile(size_t n) {
  int p = 99;
  while (p > 50 && (n == 0 || n - 1 - RankIndex(n, p / 100.0) <
                                  kTailSamplesBeyond)) {
    --p;
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string clients_spec = "1,4,16";
  int statements = bench::SmokeMode() ? 24 : 96;
  std::string json_path;
  bool tolerate_errors = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--host") == 0 && (v = next())) {
      host = v;
    } else if (std::strcmp(argv[i], "--port") == 0 && (v = next())) {
      port = static_cast<uint16_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--clients") == 0 && (v = next())) {
      clients_spec = v;
    } else if (std::strcmp(argv[i], "--statements") == 0 && (v = next())) {
      statements = std::atoi(v);
    } else if (std::strcmp(argv[i], "--json") == 0 && (v = next())) {
      json_path = v;
    } else if (std::strcmp(argv[i], "--tolerate-errors") == 0) {
      tolerate_errors = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --port P [--host H] [--clients \"1,4,16\"] "
                   "[--statements N] [--json out.json] [--tolerate-errors]\n",
                   argv[0]);
      return 2;
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "pip-client: --port is required\n");
    return 2;
  }
  if (json_path.empty()) {
    const char* env = std::getenv("PIP_BENCH_JSON");
    json_path = env != nullptr && *env != '\0' ? env : "BENCH_server.json";
  }

  // Seed shared data once, serially, so every sweep point queries the
  // same table (and the sampling results stay deterministic).
  {
    server::Client seed;
    Status status = seed.Connect(host, port);
    if (!status.ok()) {
      std::fprintf(stderr, "pip-client: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("connected: %s\n", seed.greeting().c_str());
    // Seeding retries too, so low-probability injected faults (chaos
    // mode) don't kill the run before the load starts.
    std::minstd_rand seed_rng(7);
    LoadResult seed_stats;
    for (const char* stmt :
         {"CREATE TABLE orders (cust, price)",
          "INSERT INTO orders VALUES ('a', Normal(100, 10)), "
          "('b', Normal(90, 5)), ('c', Uniform(50, 150)), "
          "('d', Exponential(0.01))"}) {
      auto resp = ExecuteWithRetry(seed, host, port, stmt, seed_rng,
                                   &seed_stats);
      if (!resp.ok() || !resp.value().ok()) {
        std::fprintf(stderr, "pip-client: seeding failed on: %s\n", stmt);
        return 1;
      }
    }
  }

  std::vector<bench::BenchRecord> records;
  uint64_t total_errors = 0;
  size_t start = 0;
  int sweep = 0;
  while (start < clients_spec.size()) {
    size_t comma = clients_spec.find(',', start);
    if (comma == std::string::npos) comma = clients_spec.size();
    int clients = std::atoi(clients_spec.substr(start, comma - start).c_str());
    start = comma + 1;
    if (clients <= 0) continue;

    LoadResult r = RunClients(host, port, sweep++, clients, statements);
    total_errors += r.errors;
    const size_t n = r.latencies_ms.size();
    const int tail = TailPercentile(n);
    const std::string tail_name = "p" + std::to_string(tail);
    double p50 = Percentile(r.latencies_ms, 0.50);
    double tail_ms = Percentile(r.latencies_ms, tail / 100.0);
    double throughput = r.wall_seconds > 0 ? n / r.wall_seconds : 0;
    std::printf(
        "clients=%2d  statements=%zu  p50=%.2fms  %s=%.2fms  "
        "%.1f stmt/s  queue=%.1fms total  retries=%llu  sheds=%llu  "
        "errors=%llu\n",
        clients, n, p50, tail_name.c_str(), tail_ms, throughput,
        r.queued_us / 1000.0, static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.sheds),
        static_cast<unsigned long long>(r.errors));

    for (auto& [metric, value] :
         std::vector<std::pair<std::string, double>>{
             {"p50_ms", p50},
             {tail_name + "_ms", tail_ms},
             {"stmts_per_sec", throughput},
             {"retries", static_cast<double>(r.retries)},
             {"sheds", static_cast<double>(r.sheds)},
             {"errors", static_cast<double>(r.errors)}}) {
      bench::BenchRecord rec;
      rec.bench = "server_load";
      rec.query = metric;
      rec.threads = clients;
      rec.wall_seconds = r.wall_seconds;
      rec.samples = static_cast<double>(n);
      rec.value = value;
      records.push_back(rec);
    }
  }

  bench::AppendBenchRecords(json_path, records);
  if (total_errors > 0) {
    std::fprintf(stderr, "pip-client: %llu statement error(s)%s\n",
                 static_cast<unsigned long long>(total_errors),
                 tolerate_errors ? " (tolerated)" : "");
    return tolerate_errors ? 0 : 1;
  }
  return 0;
}
