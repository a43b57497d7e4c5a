/// \file pip_server.cpp
/// \brief The pip-server daemon: serves the PIP1 SQL protocol over TCP.
///
/// Usage:
///   pip-server [--host H] [--port P] [--seed S] [--max-sampling N]
///              [--set NAME=VALUE]...
///
/// --port 0 (the default) binds an ephemeral port; the chosen port is
/// printed on the "listening" line, which scripts parse. --set applies a
/// knob (see SHOW KNOBS) to the database's sampling defaults or to the
/// server's statement envelope, so every connection inherits it.
/// --max-sampling bounds the Monte Carlo volume in flight (0 =
/// unlimited); queued statements report their wait in the response.
///
/// The process runs until SIGINT/SIGTERM, then drains connections and
/// exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "src/common/thread_pool.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/sql/knobs.h"

using namespace pip;

namespace {

// SIGINT/SIGTERM flip this; the main thread polls it. (Signal handlers
// cannot call Stop() directly — it takes locks.)
volatile std::sig_atomic_t g_shutdown = 0;

void OnSignal(int) { g_shutdown = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--seed S]\n"
               "          [--max-sampling N] [--set NAME=VALUE]...\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions options;
  uint64_t seed = VariablePool::kDefaultSeed;
  sql::SessionSettings defaults;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.host = v;
    } else if (std::strcmp(argv[i], "--port") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.port = static_cast<uint16_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-sampling") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_sampling = static_cast<size_t>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--set") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      Status status = sql::SetKnobFromSpec(&defaults, v);
      if (!status.ok()) {
        std::fprintf(stderr, "pip-server: %s\n", status.ToString().c_str());
        return 2;
      }
    } else {
      return Usage(argv[0]);
    }
  }

  Database db(seed);
  db.set_default_options(defaults.sampling);
  options.envelope = defaults.envelope;

  server::Server srv(&db, options);
  Status status = srv.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "pip-server: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("pip-server listening on %s:%u (protocol %s)\n",
              options.host.c_str(), srv.port(), server::kProtocolVersion);
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_shutdown) {
    // Sleep until any signal; EINTR is the expected wake-up.
    struct timespec ts = {1, 0};
    nanosleep(&ts, nullptr);
  }

  std::printf("pip-server shutting down (%llu connections served)\n",
              static_cast<unsigned long long>(srv.connections_accepted()));
  srv.Stop();
  // Scheduler counters at shutdown (also queryable live via SHOW POOL):
  // how the two parallel axes actually shared the pool over this run.
  const ThreadPool::SchedulerStats pool_stats =
      ThreadPool::Shared().scheduler_stats();
  std::printf(
      "pip-server pool stats: threads=%llu regions=%llu inline=%llu "
      "worker_tasks=%llu nested_tasks=%llu join_waits=%llu "
      "join_wait_micros=%llu\n",
      static_cast<unsigned long long>(ThreadPool::Shared().num_threads()),
      static_cast<unsigned long long>(pool_stats.regions),
      static_cast<unsigned long long>(pool_stats.inline_regions),
      static_cast<unsigned long long>(pool_stats.worker_tasks),
      static_cast<unsigned long long>(pool_stats.nested_tasks),
      static_cast<unsigned long long>(pool_stats.join_waits),
      static_cast<unsigned long long>(pool_stats.join_wait_micros));
  return 0;
}
