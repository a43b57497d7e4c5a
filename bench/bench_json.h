/// \file bench_json.h
/// \brief Machine-readable benchmark records (BENCH_sampling.json).
///
/// Each bench appends flat records to a JSON array so future PRs have a
/// perf trajectory to compare against. The file is a plain JSON array of
/// objects; multiple benches writing to the same path merge by appending
/// to the array. Override the path with the PIP_BENCH_JSON environment
/// variable; PIP_BENCH_SMOKE=1 asks benches to shrink their workloads to
/// CI-smoke size.

#ifndef PIP_BENCH_BENCH_JSON_H_
#define PIP_BENCH_BENCH_JSON_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace pip {
namespace bench {

/// One flat benchmark record; unset numeric fields are omitted.
struct BenchRecord {
  std::string bench;   ///< e.g. "fig6_thread_sweep"
  std::string query;   ///< e.g. "Q4_pip"
  double threads = 0;  ///< num_threads knob (0 = hardware concurrency).
  double wall_seconds = 0;
  double samples = 0;          ///< Monte Carlo samples configured.
  double samples_per_sec = 0;  ///< samples * rows / wall where meaningful.
  double value = 0;            ///< The query's numeric result (bit-compare).
  // Scheduler-counter deltas over the measured region (ThreadPool
  // SchedulerStats; see SHOW POOL). Zero when a bench doesn't sample
  // them.
  double pool_regions = 0;       ///< Fanned-out parallel regions.
  double pool_nested_tasks = 0;  ///< Always 0: one parallel axis per region.
  double pool_join_wait_micros = 0;  ///< Time callers blocked in joins.
  /// Process CPU time (user + system, every thread) over the measured
  /// region. cpu_seconds / wall_seconds is the parallelism the run got:
  /// near 1 for a serial region, and below the thread count when the
  /// machine lent fewer cores than asked for.
  double cpu_seconds = 0;
  /// Quartiles of wall_seconds when it is the median of repeated runs
  /// (see QuartilesOf); written only when set.
  double wall_q1_seconds = 0;
  double wall_q3_seconds = 0;
};

/// First quartile, median and third quartile of repeated timings, each
/// interpolated linearly between order statistics: with 5 repeats they
/// are the 2nd, 3rd and 4th smallest.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

inline Quartiles QuartilesOf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  auto at = [&xs](double p) {
    const double pos = p * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// User + system CPU seconds this process has used so far, summed over
/// all threads. Differences bracket a region for BenchRecord::cpu_seconds.
inline double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const struct timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Spin calibration: 4 threads busy-loop for 0.3 s of wall time, and
/// the process CPU time over that wall time is how many cores the
/// machine lent the run (at most 4; usable cores = cpu_seconds /
/// wall_seconds of the returned record). Thread-scaling figures taken
/// beside a reading near 1 say nothing about the code. Prints one
/// greppable "calibration" line.
inline BenchRecord SpinCalibration(const std::string& query) {
  using Clock = std::chrono::steady_clock;
  constexpr size_t kThreads = 4;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = start + std::chrono::milliseconds(300);
  std::vector<std::thread> spinners;
  std::vector<uint64_t> sinks(kThreads, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    spinners.emplace_back([&sinks, t, stop] {
      uint64_t x = t + 1;
      while (Clock::now() < stop) {
        for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ULL + 1;
      }
      sinks[t] = x;  // Keeps the loop from being optimized away.
    });
  }
  for (auto& s : spinners) s.join();
  BenchRecord r;
  r.bench = "calibration";
  r.query = query;
  r.threads = static_cast<double>(kThreads);
  r.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  r.cpu_seconds = ProcessCpuSeconds() - cpu0;
  std::printf("calibration %s: %zu spinning threads, usable cores %.2f "
              "(cpu %.3f s / wall %.3f s)\n",
              query.c_str(), kThreads, r.cpu_seconds / r.wall_seconds,
              r.cpu_seconds, r.wall_seconds);
  return r;
}

inline std::string BenchJsonPath() {
  const char* env = std::getenv("PIP_BENCH_JSON");
  return env != nullptr && *env != '\0' ? env : "BENCH_sampling.json";
}

inline bool SmokeMode() {
  const char* env = std::getenv("PIP_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

inline std::string ToJson(const BenchRecord& r) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"bench\":\"" << r.bench << "\",\"query\":\"" << r.query
     << "\",\"threads\":" << r.threads
     << ",\"wall_seconds\":" << r.wall_seconds << ",\"samples\":" << r.samples
     << ",\"samples_per_sec\":" << r.samples_per_sec
     << ",\"value\":" << r.value
     << ",\"pool_regions\":" << r.pool_regions
     << ",\"pool_nested_tasks\":" << r.pool_nested_tasks
     << ",\"pool_join_wait_micros\":" << r.pool_join_wait_micros
     << ",\"cpu_seconds\":" << r.cpu_seconds;
  if (r.wall_q1_seconds != 0 || r.wall_q3_seconds != 0) {
    os << ",\"wall_q1_seconds\":" << r.wall_q1_seconds
       << ",\"wall_q3_seconds\":" << r.wall_q3_seconds;
  }
  os << "}";
  return os.str();
}

/// Appends records to the JSON array at `path` (creating it if absent).
inline void AppendBenchRecords(const std::string& path,
                               const std::vector<BenchRecord>& records) {
  if (records.empty()) return;
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      existing = buffer.str();
    }
  }
  // Re-open the array: strip everything from the trailing ']' on.
  size_t close = existing.rfind(']');
  bool has_entries = false;
  if (close != std::string::npos) {
    size_t open = existing.find('[');
    has_entries = open != std::string::npos &&
                  existing.find('{', open) != std::string::npos &&
                  existing.find('{', open) < close;
    existing.resize(close);
    while (!existing.empty() &&
           (existing.back() == '\n' || existing.back() == ' ')) {
      existing.pop_back();
    }
  } else {
    existing = "[";
  }
  std::ofstream out(path, std::ios::trunc);
  out << existing;
  for (size_t i = 0; i < records.size(); ++i) {
    if (has_entries || i > 0) out << ",";
    out << "\n  " << ToJson(records[i]);
  }
  out << "\n]\n";
  std::printf("wrote %zu record(s) to %s\n", records.size(), path.c_str());
}

}  // namespace bench
}  // namespace pip

#endif  // PIP_BENCH_BENCH_JSON_H_
