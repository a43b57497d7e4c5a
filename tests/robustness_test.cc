/// \file robustness_test.cc
/// \brief Failure-handling layer: statement deadlines (ERR TIMEOUT),
/// disconnect cancellation, and overload shedding (ERR OVERLOADED).
///
/// The load-bearing invariant is the determinism contract: deadlines and
/// cancellation decide *whether* a statement finishes, never *what* it
/// computes. A statement that completes under its deadline must be
/// byte-identical to one with no deadline at all, and a session that
/// just timed out must produce bit-identical results on its next
/// statement.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/sql/session.h"

namespace pip {
namespace {

using server::AdmissionGate;
using server::Client;
using server::Server;
using server::ServerOptions;
using server::WireResponse;

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Statement deadlines (embedded sessions).
// ---------------------------------------------------------------------------

TEST(StatementDeadlineTest, TimeoutSurfacesAndSessionStaysUsable) {
  Database db(31);
  sql::Session session(&db);
  ASSERT_TRUE(session.Execute("CREATE TABLE t (u, v)").ok());
  ASSERT_TRUE(session
                  .Execute("INSERT INTO t VALUES "
                           "(Normal(10, 2), Uniform(0, 4)), "
                           "(Uniform(1, 5), Normal(20, 3))")
                  .ok());
  ASSERT_TRUE(session.Execute("SET FIXED_SAMPLES = 500").ok());
  // A two-variable product defeats the engine's closed-form integration,
  // and the index is off, so every execution genuinely samples — which is
  // what gives the deadline something to interrupt.
  ASSERT_TRUE(session.Execute("SET INDEX_ENABLED = 0").ok());
  const std::string query = "SELECT expected_sum(u * v) AS s FROM t";
  sql::SqlResult baseline = session.Execute(query);
  ASSERT_TRUE(baseline.ok()) << baseline.ToString();

  // A deadline far below the statement's runtime: the sampling loops hit
  // a chunk barrier within microseconds of the deadline passing, so the
  // statement must fail well within 2x the deadline.
  ASSERT_TRUE(session.Execute("SET STATEMENT_TIMEOUT_MS = 500").ok());
  ASSERT_TRUE(session.Execute("SET FIXED_SAMPLES = 200000000").ok());
  auto start = std::chrono::steady_clock::now();
  sql::SqlResult timed_out = session.Execute(query);
  double elapsed = ElapsedMs(start);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.error.code, sql::WireErrorCode::kTimeout);
  EXPECT_NE(timed_out.error.message.find("STATEMENT_TIMEOUT_MS"),
            std::string::npos);
  EXPECT_LT(elapsed, 1000.0);  // Within 2x the 500 ms deadline.

  // The session stays usable and bit-identical: the abandoned statement
  // left no residue in the session or the shared pool/caches.
  ASSERT_TRUE(session.Execute("SET FIXED_SAMPLES = 500").ok());
  ASSERT_TRUE(session.Execute("SET STATEMENT_TIMEOUT_MS = 0").ok());
  sql::SqlResult after = session.Execute(query);
  ASSERT_TRUE(after.ok()) << after.ToString();
  EXPECT_EQ(after.ToString(), baseline.ToString());

  sql::SqlResult fresh_result = [&] {
    sql::Session fresh(&db);
    EXPECT_TRUE(fresh.Execute("SET FIXED_SAMPLES = 500").ok());
    EXPECT_TRUE(fresh.Execute("SET INDEX_ENABLED = 0").ok());
    return fresh.Execute(query);
  }();
  EXPECT_EQ(fresh_result.ToString(), baseline.ToString());
}

TEST(StatementDeadlineTest, FinishingUnderDeadlineIsByteIdentical) {
  // A generous deadline must be invisible: the deadline composes into
  // cancel_check, which is excluded from the options fingerprint and
  // never alters chunk schedules — at any thread count.
  for (size_t threads : {size_t{1}, size_t{8}}) {
    Database db(1234);
    sql::Session setup(&db);
    ASSERT_TRUE(setup.Execute("CREATE TABLE m (label, u, v)").ok());
    ASSERT_TRUE(
        setup
            .Execute("INSERT INTO m VALUES "
                     "('a', Normal(10, 2), Uniform(0, 4)), "
                     "('b', Normal(20, 3), Uniform(1, 2)), "
                     "('c', Uniform(0, 50), Normal(5, 1)), "
                     "('d', Exponential(0.1), Uniform(3, 9))")
            .ok());
    const std::string knobs =
        "SET NUM_THREADS = " + std::to_string(threads);
    sql::Session plain(&db);
    ASSERT_TRUE(plain.Execute(knobs).ok());
    ASSERT_TRUE(plain.Execute("SET FIXED_SAMPLES = 3000").ok());
    ASSERT_TRUE(plain.Execute("SET INDEX_ENABLED = 0").ok());
    sql::Session deadlined(&db);
    ASSERT_TRUE(deadlined.Execute(knobs).ok());
    ASSERT_TRUE(deadlined.Execute("SET FIXED_SAMPLES = 3000").ok());
    ASSERT_TRUE(deadlined.Execute("SET INDEX_ENABLED = 0").ok());
    ASSERT_TRUE(
        deadlined.Execute("SET STATEMENT_TIMEOUT_MS = 600000").ok());
    for (const char* query :
         {"SELECT expected_sum(u * v) AS s FROM m",
          "SELECT label, expectation(u * v), conf() FROM m WHERE v > 2",
          "SELECT * FROM m"}) {
      sql::SqlResult want = plain.Execute(query);
      ASSERT_TRUE(want.ok()) << want.ToString();
      sql::SqlResult got = deadlined.Execute(query);
      ASSERT_TRUE(got.ok()) << got.ToString();
      EXPECT_EQ(got.ToString(), want.ToString())
          << "threads=" << threads << " query=" << query;
    }
  }
}

// ---------------------------------------------------------------------------
// Admission gate: bounded waits, shedding, shutdown.
// ---------------------------------------------------------------------------

TEST(AdmissionShedTest, TryAcquireForShedsWithDiagnosticsOnTimeout) {
  AdmissionGate gate(2);
  auto held = gate.Acquire(2);
  ASSERT_TRUE(held.ok());

  auto start = std::chrono::steady_clock::now();
  auto shed = gate.TryAcquireFor(1, 50);
  double elapsed = ElapsedMs(start);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded);
  // Diagnostics name the occupancy and the queue depth.
  EXPECT_NE(shed.status().message().find("in-flight weight 2/2"),
            std::string::npos);
  EXPECT_NE(shed.status().message().find("queue depth"), std::string::npos);
  EXPECT_GE(elapsed, 45.0);    // Waited out the admission timeout...
  EXPECT_LT(elapsed, 5000.0);  // ...and not meaningfully longer.

  AdmissionGate::Stats stats = gate.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.shed_weight, 1u);
  EXPECT_EQ(stats.waiting, 0u);
  EXPECT_EQ(stats.in_flight_weight, 2u);

  // With capacity free again the same call admits instantly.
  held = AdmissionGate::Ticket();
  auto ok = gate.TryAcquireFor(1, 50);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().wait_us(), 0u);
}

TEST(AdmissionShedTest, ZeroTimeoutShedsImmediately) {
  AdmissionGate gate(1);
  auto held = gate.Acquire();
  ASSERT_TRUE(held.ok());
  auto start = std::chrono::steady_clock::now();
  auto shed = gate.TryAcquireFor(1, 0);
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded);
  EXPECT_LT(ElapsedMs(start), 1000.0);
}

TEST(AdmissionShedTest, CloseFailsPendingAndFutureAcquires) {
  AdmissionGate gate(1);
  auto held = gate.Acquire();
  ASSERT_TRUE(held.ok());

  std::atomic<bool> blocked_started{false};
  Status pending = Status::OK();
  std::thread waiter([&] {
    blocked_started.store(true);
    auto r = gate.Acquire();  // Unbounded wait; only Close can end it.
    pending = r.status();
  });
  while (!blocked_started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  gate.Close();
  waiter.join();
  EXPECT_EQ(pending.code(), StatusCode::kCancelled);
  // Future acquires fail too, bounded or not, even with capacity free.
  held = AdmissionGate::Ticket();
  EXPECT_EQ(gate.Acquire().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(gate.TryAcquireFor(1, 10).status().code(),
            StatusCode::kCancelled);
  EXPECT_TRUE(gate.closed());
}

// ---------------------------------------------------------------------------
// Over the wire: TIMEOUT / OVERLOADED / disconnect cancellation.
// ---------------------------------------------------------------------------

/// A protocol connection the test controls at the frame level — so it
/// can send a statement and then vanish without reading the response,
/// which Client's blocking Execute cannot do.
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  std::string greeting;
  auto more = server::ReadFrame(fd, &greeting);
  if (!more.ok() || !more.value()) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Round-trips one statement on a raw connection.
bool RawRoundTrip(int fd, const std::string& stmt) {
  if (!server::WriteFrame(fd, stmt).ok()) return false;
  std::string response;
  auto more = server::ReadFrame(fd, &response);
  return more.ok() && more.value();
}

/// Polls the server's admission stats until `pred` holds or ~20 s pass.
template <typename Pred>
bool PollAdmission(Server& srv, Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred(srv.admission_stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(ServerRobustnessTest, TimeoutOverTheWireThenBitIdentical) {
  Database db(909);
  Server srv(&db, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  auto run = [&](const std::string& stmt) {
    auto r = client.Execute(stmt);
    PIP_CHECK_MSG(r.ok(), r.status().ToString());
    return std::move(r).value();
  };
  ASSERT_TRUE(run("CREATE TABLE t (u, v)").ok());
  ASSERT_TRUE(run("INSERT INTO t VALUES (Normal(10, 2), Uniform(0, 9)), "
                  "(Exponential(0.5), Normal(3, 1))")
                  .ok());
  ASSERT_TRUE(run("SET FIXED_SAMPLES = 500").ok());
  ASSERT_TRUE(run("SET INDEX_ENABLED = 0").ok());
  const std::string query = "SELECT expected_sum(u * v) AS s FROM t";
  WireResponse baseline = run(query);
  ASSERT_TRUE(baseline.ok());

  ASSERT_TRUE(run("SET STATEMENT_TIMEOUT_MS = 500").ok());
  ASSERT_TRUE(run("SET FIXED_SAMPLES = 200000000").ok());
  auto start = std::chrono::steady_clock::now();
  WireResponse timed_out = run(query);
  double elapsed = ElapsedMs(start);
  EXPECT_EQ(timed_out.kind, WireResponse::Kind::kError);
  EXPECT_EQ(timed_out.code, sql::WireErrorCode::kTimeout);
  EXPECT_LT(elapsed, 1000.0);  // ERR TIMEOUT within 2x the deadline.

  // The timed-out statement released its admission weight.
  EXPECT_TRUE(PollAdmission(srv, [](const AdmissionGate::Stats& s) {
    return s.in_flight == 0 && s.in_flight_weight == 0;
  }));

  // Same connection, restored knobs: byte-identical to the baseline.
  ASSERT_TRUE(run("SET FIXED_SAMPLES = 500").ok());
  ASSERT_TRUE(run("SET STATEMENT_TIMEOUT_MS = 0").ok());
  WireResponse after = run(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.rows, baseline.rows);
  srv.Stop();
}

TEST(ServerRobustnessTest, DisconnectMidStatementFreesAdmissionWeight) {
  Database db(55);
  Server srv(&db, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  {
    Client setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", srv.port()).ok());
    ASSERT_TRUE(setup.Execute("CREATE TABLE t (u, v)").value().ok());
    ASSERT_TRUE(setup
                    .Execute("INSERT INTO t VALUES "
                             "(Normal(0, 1), Uniform(0, 9))")
                    .value()
                    .ok());
  }

  int fd = RawConnect(srv.port());
  ASSERT_GE(fd, 0);
  // A statement that would sample for minutes; never read its response.
  ASSERT_TRUE(RawRoundTrip(fd, "SET FIXED_SAMPLES = 200000000"));
  ASSERT_TRUE(
      server::WriteFrame(fd, "SELECT expected_sum(u * v) FROM t").ok());
  ASSERT_TRUE(PollAdmission(
      srv, [](const AdmissionGate::Stats& s) { return s.in_flight == 1; }));

  // Vanish. The peer-liveness probe sees EOF at a chunk barrier, the
  // statement cancels, and the RAII ticket frees the admission weight —
  // orders of magnitude before the statement could have finished.
  ::close(fd);
  EXPECT_TRUE(PollAdmission(srv, [](const AdmissionGate::Stats& s) {
    return s.in_flight == 0 && s.in_flight_weight == 0;
  }));
  srv.Stop();
}

TEST(ServerRobustnessTest, SaturatedGateShedsOverloadedWithinTimeout) {
  Database db(77);
  ServerOptions options;
  options.max_sampling = 1;
  Server srv(&db, options);
  ASSERT_TRUE(srv.Start().ok());
  {
    Client setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", srv.port()).ok());
    ASSERT_TRUE(setup.Execute("CREATE TABLE t (u, v)").value().ok());
    ASSERT_TRUE(setup
                    .Execute("INSERT INTO t VALUES "
                             "(Normal(0, 1), Uniform(0, 9))")
                    .value()
                    .ok());
  }

  // Saturate the window with a long-running statement.
  int holder = RawConnect(srv.port());
  ASSERT_GE(holder, 0);
  ASSERT_TRUE(RawRoundTrip(holder, "SET FIXED_SAMPLES = 200000000"));
  ASSERT_TRUE(
      server::WriteFrame(holder, "SELECT expected_sum(u * v) FROM t").ok());
  ASSERT_TRUE(PollAdmission(
      srv, [](const AdmissionGate::Stats& s) { return s.in_flight == 1; }));

  // A second session with a bounded admission wait is shed, promptly,
  // with the retryable category — not INTERNAL.
  Client shed_client;
  ASSERT_TRUE(shed_client.Connect("127.0.0.1", srv.port()).ok());
  ASSERT_TRUE(
      shed_client.Execute("SET ADMISSION_TIMEOUT_MS = 100").value().ok());
  ASSERT_TRUE(shed_client.Execute("SET FIXED_SAMPLES = 1000").value().ok());
  auto start = std::chrono::steady_clock::now();
  auto shed = shed_client.Execute("SELECT expected_sum(u * v) FROM t");
  double elapsed = ElapsedMs(start);
  ASSERT_TRUE(shed.ok()) << shed.status();  // Transport survived the shed.
  EXPECT_EQ(shed.value().kind, WireResponse::Kind::kError);
  EXPECT_EQ(shed.value().code, sql::WireErrorCode::kOverloaded);
  EXPECT_NE(shed.value().message.find("in-flight weight"), std::string::npos);
  EXPECT_GE(elapsed, 90.0);
  EXPECT_LT(elapsed, 5000.0);
  EXPECT_GE(srv.admission_stats().shed, 1u);

  // Once the holder disconnects and its weight drains, the same client
  // retries successfully — OVERLOADED really is transient.
  ::close(holder);
  ASSERT_TRUE(PollAdmission(srv, [](const AdmissionGate::Stats& s) {
    return s.in_flight == 0 && s.in_flight_weight == 0;
  }));
  auto retried = shed_client.Execute("SELECT expected_sum(u * v) FROM t");
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_TRUE(retried.value().ok()) << retried.value().message;
  srv.Stop();
}

TEST(ServerRobustnessTest, DeadlineExcludesAdmissionQueueWait) {
  // Admission happens inside Session::Execute, after the deadline was
  // armed; STATEMENT_TIMEOUT_MS must still bound execution only. A
  // statement that queues 3x its timeout and then runs briefly succeeds.
  Database db(91);
  ServerOptions options;
  options.max_sampling = 1;
  Server srv(&db, options);
  ASSERT_TRUE(srv.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  for (const char* stmt :
       {"CREATE TABLE t (u, v)",
        "INSERT INTO t VALUES (Normal(0, 1), Uniform(0, 9))",
        "SET FIXED_SAMPLES = 500", "SET INDEX_ENABLED = 0",
        "SET ADMISSION_TIMEOUT_MS = 0", "SET STATEMENT_TIMEOUT_MS = 100"}) {
    ASSERT_TRUE(client.Execute(stmt).value().ok()) << stmt;
  }

  // Hold the whole window for 300 ms with a statement that would sample
  // for minutes; disconnecting cancels it and frees the window.
  int holder = RawConnect(srv.port());
  ASSERT_GE(holder, 0);
  ASSERT_TRUE(RawRoundTrip(holder, "SET FIXED_SAMPLES = 200000000"));
  ASSERT_TRUE(
      server::WriteFrame(holder, "SELECT expected_sum(u * v) FROM t").ok());
  ASSERT_TRUE(PollAdmission(
      srv, [](const AdmissionGate::Stats& s) { return s.in_flight == 1; }));
  std::thread release([holder] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ::close(holder);
  });

  auto r = client.Execute("SELECT expected_sum(u * v) AS s FROM t");
  release.join();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.value().ok()) << r.value().message;
  EXPECT_GE(r.value().queue_us, 200000u);  // Queued well past 100 ms.
  srv.Stop();
}

TEST(ServerRobustnessTest, StopWithQueuedAcquirersDoesNotHang) {
  Database db(11);
  ServerOptions options;
  options.max_sampling = 1;
  Server srv(&db, options);
  ASSERT_TRUE(srv.Start().ok());
  {
    Client setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", srv.port()).ok());
    ASSERT_TRUE(setup.Execute("CREATE TABLE t (u, v)").value().ok());
    ASSERT_TRUE(setup
                    .Execute("INSERT INTO t VALUES "
                             "(Normal(0, 1), Uniform(0, 9))")
                    .value()
                    .ok());
  }
  // One statement holds the window; another queues behind it with an
  // unbounded admission wait. Stop() closes the gate first, so the
  // queued statement fails fast instead of deadlocking shutdown.
  int holder = RawConnect(srv.port());
  ASSERT_GE(holder, 0);
  ASSERT_TRUE(RawRoundTrip(holder, "SET FIXED_SAMPLES = 200000000"));
  ASSERT_TRUE(
      server::WriteFrame(holder, "SELECT expected_sum(u * v) FROM t").ok());
  ASSERT_TRUE(PollAdmission(
      srv, [](const AdmissionGate::Stats& s) { return s.in_flight == 1; }));
  int queued = RawConnect(srv.port());
  ASSERT_GE(queued, 0);
  ASSERT_TRUE(RawRoundTrip(queued, "SET FIXED_SAMPLES = 1000"));
  ASSERT_TRUE(
      server::WriteFrame(queued, "SELECT expected_sum(u * v) FROM t").ok());
  ASSERT_TRUE(PollAdmission(
      srv, [](const AdmissionGate::Stats& s) { return s.waiting == 1; }));

  srv.Stop();  // Must return promptly; the test harness is the timeout.
  ::close(holder);
  ::close(queued);
}

}  // namespace
}  // namespace pip
