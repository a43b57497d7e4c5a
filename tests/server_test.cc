/// \file server_test.cc
/// \brief Server front end: wire codec, admission gate, concurrent
/// sessions over one shared Database.
///
/// The load-bearing test is ConcurrentSessionsBitIdenticalToSerial: the
/// deterministic draw scheme means N clients hammering the same sampling
/// query concurrently must every one of them get byte-for-byte the rows a
/// serial in-process session computes. Catalogue-race tests rely on the
/// ASan/TSan CI jobs to surface data races they provoke.

#include "src/server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "src/server/client.h"
#include "src/server/wire.h"
#include "src/sql/session.h"

namespace pip {
namespace {

using server::AdmissionGate;
using server::Client;
using server::DecodeResponse;
using server::EncodeResponse;
using server::Server;
using server::ServerOptions;
using server::WireResponse;

// ---------------------------------------------------------------------------
// Admission gate.
// ---------------------------------------------------------------------------

TEST(AdmissionGateTest, BoundsConcurrency) {
  AdmissionGate gate(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_seen{0};
  std::atomic<int> admitted_order{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 25; ++j) {
        AdmissionGate::Ticket ticket = gate.Acquire().value();
        int now = in_flight.fetch_add(1) + 1;
        int seen = max_seen.load();
        while (now > seen && !max_seen.compare_exchange_weak(seen, now)) {
        }
        // The first two tickets hold both slots until another acquirer
        // is queued behind them (bounded), so the run always exercises
        // queueing instead of relying on yields to interleave.
        if (admitted_order.fetch_add(1) < 2) {
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (gate.stats().waiting == 0 &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
          }
        }
        std::this_thread::yield();
        in_flight.fetch_sub(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(max_seen.load(), 2);
  AdmissionGate::Stats stats = gate.stats();
  EXPECT_EQ(stats.admitted, 200u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_GT(stats.queued, 0u);  // 8 threads over 2 slots must queue.
}

TEST(AdmissionGateTest, ZeroCapacityIsUnlimited) {
  AdmissionGate gate(0);
  AdmissionGate::Ticket a = gate.Acquire().value();
  AdmissionGate::Ticket b = gate.Acquire().value();
  EXPECT_EQ(a.wait_us(), 0u);
  EXPECT_EQ(gate.stats().in_flight, 2u);
}

TEST(AdmissionGateTest, MovedTicketReleasesOnce) {
  AdmissionGate gate(1);
  {
    AdmissionGate::Ticket a = gate.Acquire().value();
    AdmissionGate::Ticket b = std::move(a);
    EXPECT_EQ(gate.stats().in_flight, 1u);
  }
  EXPECT_EQ(gate.stats().in_flight, 0u);
}

TEST(AdmissionGateTest, WeightedTicketsShareTheWindow) {
  AdmissionGate gate(4);
  AdmissionGate::Ticket heavy = gate.Acquire(3).value();
  AdmissionGate::Ticket light = gate.Acquire(1).value();  // Fits alongside.
  EXPECT_EQ(heavy.weight(), 3u);
  EXPECT_EQ(light.weight(), 1u);
  AdmissionGate::Stats stats = gate.stats();
  EXPECT_EQ(stats.in_flight, 2u);
  EXPECT_EQ(stats.in_flight_weight, 4u);
  EXPECT_EQ(stats.admitted_weight, 4u);
}

TEST(AdmissionGateTest, OversizedWeightClampsToCapacity) {
  AdmissionGate gate(2);
  // A statement heavier than the whole window must still run (alone)
  // instead of deadlocking.
  AdmissionGate::Ticket huge = gate.Acquire(100).value();
  EXPECT_EQ(huge.weight(), 2u);
  EXPECT_EQ(gate.stats().in_flight_weight, 2u);
}

TEST(AdmissionGateTest, HeavyReleaseUnblocksMultipleLight) {
  AdmissionGate gate(3);
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  {
    AdmissionGate::Ticket heavy = gate.Acquire(3).value();  // Fills the window.
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&] {
        AdmissionGate::Ticket light = gate.Acquire(1).value();
        done.fetch_add(1);
      });
    }
    // The lights cannot pass while the heavy ticket holds all units.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(done.load(), 0);
  }
  for (auto& t : threads) t.join();  // One release admits all three.
  EXPECT_EQ(done.load(), 3);
  EXPECT_EQ(gate.stats().in_flight_weight, 0u);
}

TEST(AdmissionGateTest, WeightedBoundHoldsUnderContention) {
  AdmissionGate gate(4);
  std::atomic<int> weight_in_flight{0};
  std::atomic<int> max_seen{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&, i] {
      size_t weight = 1 + static_cast<size_t>(i % 3);
      for (int j = 0; j < 25; ++j) {
        AdmissionGate::Ticket ticket = gate.Acquire(weight).value();
        int now = weight_in_flight.fetch_add(static_cast<int>(weight)) +
                  static_cast<int>(weight);
        int seen = max_seen.load();
        while (now > seen && !max_seen.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::yield();
        weight_in_flight.fetch_sub(static_cast<int>(weight));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(max_seen.load(), 4);
  EXPECT_EQ(gate.stats().in_flight_weight, 0u);
}

// ---------------------------------------------------------------------------
// Statement weight estimation.
// ---------------------------------------------------------------------------

TEST(EstimateSampleVolumeTest, ScalesWithRowsAndSamples) {
  Database db(7);
  sql::Session session(&db);
  session.Execute("CREATE TABLE small (v)");
  session.Execute("INSERT INTO small VALUES (Normal(0, 1))");
  session.Execute("CREATE TABLE big (v)");
  for (int i = 0; i < 4; ++i) {
    session.Execute(
        "INSERT INTO big VALUES (Normal(0, 1)), (Normal(0, 1)), "
        "(Normal(0, 1)), (Normal(0, 1))");
  }
  SamplingOptions options;
  options.fixed_samples = 100;
  // Non-sampling statements carry no volume at all.
  EXPECT_EQ(sql::EstimateSampleVolume(db, "SELECT v FROM big", options), 0u);
  // 1 row x 100 draws vs 16 rows x 100 draws.
  EXPECT_EQ(sql::EstimateSampleVolume(
                db, "SELECT expected_sum(v) FROM small", options),
            100u);
  EXPECT_EQ(sql::EstimateSampleVolume(
                db, "SELECT expected_sum(v) FROM big", options),
            1600u);
  // Multi-table FROM sums the named tables' rows.
  EXPECT_EQ(sql::EstimateSampleVolume(
                db, "SELECT expected_sum(v) FROM small, big", options),
            1700u);
  // Unknown tables fall back to the 1-row floor.
  EXPECT_EQ(sql::EstimateSampleVolume(
                db, "SELECT expected_sum(v) FROM nope", options),
            100u);
  // Adaptive mode uses the sampling floor as the per-row estimate.
  options.fixed_samples = 0;
  options.min_samples = 30;
  EXPECT_EQ(sql::EstimateSampleVolume(
                db, "SELECT expected_sum(v) FROM big", options),
            480u);
}

// ---------------------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------------------

TEST(WireCodecTest, CellEscapingRoundTrips) {
  for (const std::string cell :
       {std::string("plain"), std::string("tab\there"),
        std::string("line\nbreak"), std::string("back\\slash"),
        std::string("\t\n\\"), std::string("")}) {
    EXPECT_EQ(server::UnescapeCell(server::EscapeCell(cell)), cell);
  }
  // Escaped cells never contain structural bytes.
  EXPECT_EQ(server::EscapeCell("a\tb\nc").find('\t'), std::string::npos);
  EXPECT_EQ(server::EscapeCell("a\tb\nc").find('\n'), std::string::npos);
}

TEST(WireCodecTest, ErrorCodesRoundTripForEveryCategory) {
  // One representative Status per wire category, INTERNAL included —
  // the codec must round-trip all of them identically.
  const std::pair<Status, sql::WireErrorCode> cases[] = {
      {Status::ParseError("p"), sql::WireErrorCode::kParse},
      {Status::NotFound("n"), sql::WireErrorCode::kNotFound},
      {Status::InvalidArgument("i"), sql::WireErrorCode::kInvalidArg},
      {Status::AlreadyExists("a"), sql::WireErrorCode::kInvalidArg},
      {Status::Unimplemented("u"), sql::WireErrorCode::kCapability},
      {Status::Internal("x"), sql::WireErrorCode::kInternal},
  };
  for (const auto& [status, code] : cases) {
    sql::SqlResult result = sql::SqlResult::FromStatus(status);
    EXPECT_EQ(result.error.code, code);
    auto decoded = DecodeResponse(EncodeResponse(result, 0));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded.value().kind, WireResponse::Kind::kError);
    EXPECT_EQ(decoded.value().code, code);
    EXPECT_EQ(decoded.value().message, status.message());
    // ToString names the same code the wire carries.
    EXPECT_NE(result.ToString().find(sql::WireErrorCodeName(code)),
              std::string::npos);
  }
}

TEST(WireCodecTest, TableResponseRoundTrips) {
  Table t(Schema({"name", "x"}));
  ASSERT_TRUE(t.Append({Value("joe"), Value(0.1)}).ok());
  ASSERT_TRUE(t.Append({Value("sue\tmarie"), Value(int64_t{7})}).ok());
  sql::SqlResult result = sql::SqlResult::FromTable(std::move(t));
  auto decoded = DecodeResponse(EncodeResponse(result, 42));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const WireResponse& r = decoded.value();
  EXPECT_EQ(r.kind, WireResponse::Kind::kTable);
  EXPECT_EQ(r.queue_us, 42u);
  ASSERT_EQ(r.columns.size(), 2u);
  EXPECT_EQ(r.columns[0].name, "name");
  EXPECT_EQ(r.columns[0].kind, sql::ColumnKind::kText);
  EXPECT_EQ(r.columns[1].kind, sql::ColumnKind::kNumeric);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0], "joe");
  EXPECT_EQ(r.rows[1][0], "sue\tmarie");  // Tab survives the wire.
  EXPECT_EQ(r.rows[1][1], "7");
  // 17-significant-digit doubles are bit-exact through the text form.
  EXPECT_EQ(r.rows[0][1], "0.10000000000000001");
}

TEST(WireCodecTest, MalformedPayloadsRejected) {
  for (const std::string bad :
       {std::string(""), std::string("WAT 0"), std::string("ERR NOPE\nmsg"),
        std::string("TBL 0 2 1\nnum\tv\nonly-one-row"),
        std::string("ACK notanumber\nm")}) {
    EXPECT_FALSE(DecodeResponse(bad).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// End-to-end server.
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : db_(909), server_(&db_, ServerOptions{}) {
    PIP_CHECK(server_.Start().ok());
  }

  Client Connect() {
    Client client;
    PIP_CHECK(client.Connect("127.0.0.1", server_.port()).ok());
    return client;
  }

  WireResponse Run(Client& client, const std::string& stmt) {
    auto r = client.Execute(stmt);
    PIP_CHECK_MSG(r.ok(), r.status().ToString());
    return std::move(r).value();
  }

  Database db_;
  Server server_;
};

TEST_F(ServerTest, GreetingCarriesProtocolVersion) {
  Client client = Connect();
  EXPECT_EQ(client.greeting().rfind(server::kProtocolVersion, 0), 0u);
}

TEST_F(ServerTest, StatementsExecuteOverTheWire) {
  Client client = Connect();
  WireResponse ack = Run(client, "CREATE TABLE t (name, v)");
  EXPECT_EQ(ack.kind, WireResponse::Kind::kAck);
  EXPECT_EQ(ack.message, "CREATE TABLE t");

  Run(client, "INSERT INTO t VALUES ('a', 1), ('b', Uniform(0, 1))");
  WireResponse sym = Run(client, "SELECT * FROM t");
  EXPECT_EQ(sym.kind, WireResponse::Kind::kCTable);
  ASSERT_EQ(sym.rows.size(), 2u);
  // C-table rows carry the trailing condition cell.
  ASSERT_EQ(sym.rows[0].size(), 3u);
  EXPECT_EQ(sym.rows[0][0], "a");

  Run(client, "SET FIXED_SAMPLES = 1000");
  WireResponse det = Run(client, "SELECT expected_sum(v) AS s FROM t");
  EXPECT_EQ(det.kind, WireResponse::Kind::kTable);
  ASSERT_EQ(det.rows.size(), 1u);
  double s = std::stod(det.rows[0][0]);
  EXPECT_GT(s, 1.0);
  EXPECT_LT(s, 2.0);
}

TEST_F(ServerTest, WireErrorCategoriesEndToEnd) {
  Client client = Connect();
  Run(client, "CREATE TABLE t (a)");
  const std::pair<const char*, sql::WireErrorCode> cases[] = {
      {"DELETE FROM t", sql::WireErrorCode::kParse},
      {"SELECT a FROM missing", sql::WireErrorCode::kNotFound},
      {"SET epsilon = 7", sql::WireErrorCode::kInvalidArg},
      {"SELECT a FROM t GROUP BY a", sql::WireErrorCode::kCapability},
      {"SELECT DISTINCT a FROM t", sql::WireErrorCode::kCapability},
  };
  for (const auto& [stmt, code] : cases) {
    WireResponse r = Run(client, stmt);
    EXPECT_EQ(r.kind, WireResponse::Kind::kError) << stmt;
    EXPECT_EQ(r.code, code) << stmt;
    EXPECT_FALSE(r.message.empty()) << stmt;
  }
  // The connection survives every error.
  EXPECT_EQ(Run(client, "SELECT a FROM t").kind, WireResponse::Kind::kCTable);
}

TEST_F(ServerTest, SessionKnobsAreConnectionLocal) {
  Client a = Connect();
  Client b = Connect();
  Run(a, "SET FIXED_SAMPLES = 7");
  WireResponse knobs_b = Run(b, "SHOW KNOBS");
  for (const auto& row : knobs_b.rows) {
    if (row[0] == "FIXED_SAMPLES") {
      EXPECT_NE(row[1], "7");  // B still has the database default.
    }
  }
  WireResponse knobs_a = Run(a, "SHOW KNOBS");
  bool found = false;
  for (const auto& row : knobs_a.rows) {
    if (row[0] == "FIXED_SAMPLES") {
      EXPECT_EQ(row[1], "7");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ServerTest, NamedVariablesAreSharedAcrossConnections) {
  Client a = Connect();
  Client b = Connect();
  Run(a, "CREATE VARIABLE demand AS Poisson(140)");
  Run(b, "CREATE TABLE p (units)");
  // B reuses A's named variable; no new variable is allocated.
  WireResponse r = Run(b, "INSERT INTO p VALUES (demand)");
  EXPECT_EQ(r.kind, WireResponse::Kind::kAck);
  EXPECT_EQ(db_.pool()->num_variables(), 1u);
  WireResponse dup = Run(b, "CREATE VARIABLE demand AS Normal(0, 1)");
  EXPECT_EQ(dup.kind, WireResponse::Kind::kError);
  EXPECT_EQ(dup.code, sql::WireErrorCode::kInvalidArg);
}

TEST_F(ServerTest, ConcurrentSessionsBitIdenticalToSerial) {
  // Create all data serially FIRST: variable allocation commutes with
  // nothing, so determinism is only promised for a fixed pool state.
  {
    Client setup = Connect();
    Run(setup, "CREATE TABLE m (label, v)");
    Run(setup,
        "INSERT INTO m VALUES ('a', Normal(10, 2)), ('b', Normal(20, 3)), "
        "('c', Uniform(0, 50)), ('d', Exponential(0.1))");
  }

  // Serial baseline: an in-process session with the same knobs, rendered
  // through the same codec (queue_us excluded from comparison by
  // construction: we compare decoded rows).
  std::vector<std::string> queries = {
      "SELECT expected_sum(v) AS s, expected_avg(v) AS a FROM m WHERE v > 8",
      "SELECT label, expectation(v), conf() FROM m WHERE v > 8",
      "SELECT * FROM m",
  };
  std::vector<std::vector<std::vector<std::string>>> baseline;
  {
    sql::Session session(&db_);
    PIP_CHECK(session.Execute("SET FIXED_SAMPLES = 4000").ok());
    for (const std::string& q : queries) {
      sql::SqlResult result = session.Execute(q);
      PIP_CHECK_MSG(result.ok(), result.ToString());
      auto decoded = DecodeResponse(EncodeResponse(result, 0));
      PIP_CHECK(decoded.ok());
      baseline.push_back(decoded.value().rows);
    }
  }

  constexpr int kClients = 6;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      Client client = Connect();
      if (!client.Execute("SET FIXED_SAMPLES = 4000").ok()) {
        mismatches.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto resp = client.Execute(queries[q]);
          if (!resp.ok() || !resp.value().ok() ||
              resp.value().rows != baseline[q]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ServerTest, ConcurrentCatalogueMutationIsSafe) {
  // DDL + DML + SELECT race across connections; correctness bar: no
  // crash/race (ASan job) and no lost INSERT.
  Client setup = Connect();
  Run(setup, "CREATE TABLE shared (v)");

  constexpr int kClients = 6;
  constexpr int kInsertsPerClient = 20;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = Connect();
      for (int i = 0; i < kInsertsPerClient; ++i) {
        if (!client.Execute("INSERT INTO shared VALUES (" +
                            std::to_string(c * 1000 + i) + ")")
                 .ok()) {
          errors.fetch_add(1);
        }
        // Interleave reads and private DDL to stress the catalogue.
        auto r = client.Execute("SELECT * FROM shared");
        if (!r.ok() || !r.value().ok()) errors.fetch_add(1);
        if (i == 0) {
          client.Execute("CREATE TABLE priv_" + std::to_string(c) + " (x)");
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);

  WireResponse all = Run(setup, "SELECT * FROM shared");
  EXPECT_EQ(all.rows.size(),
            static_cast<size_t>(kClients * kInsertsPerClient));
}

TEST_F(ServerTest, SnapshotSurvivesConcurrentReplacement) {
  // A session's SELECT result must come from a consistent snapshot even
  // while another connection replaces rows mid-flight. (The shared_ptr
  // snapshot either sees the row or not — never a torn table.)
  Client writer = Connect();
  Run(writer, "CREATE TABLE t (v)");
  Run(writer, "INSERT INTO t VALUES (1), (2)");
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    Client m = Connect();
    while (!stop.load()) {
      m.Execute("INSERT INTO t VALUES (3)");
    }
  });
  Client reader = Connect();
  for (int i = 0; i < 50; ++i) {
    WireResponse r = Run(reader, "SELECT * FROM t");
    EXPECT_GE(r.rows.size(), 2u);
    for (const auto& row : r.rows) {
      ASSERT_EQ(row.size(), 2u);  // v + condition; never torn.
    }
  }
  stop.store(true);
  mutator.join();
}

TEST(ServerAdmissionTest, SamplingStatementsAreGated) {
  Database db(909);
  ServerOptions options;
  options.max_sampling = 1;
  Server srv(&db, options);
  ASSERT_TRUE(srv.Start().ok());
  {
    Client setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", srv.port()).ok());
    ASSERT_TRUE(setup.Execute("CREATE TABLE t (v, w)").value().ok());
    const char* insert =
        "INSERT INTO t VALUES (Normal(0, 1), Normal(1, 1)), "
        "(Uniform(0, 9), Normal(2, 1))";
    ASSERT_TRUE(setup.Execute(insert).value().ok());
  }

  constexpr int kClients = 4;
  constexpr int kQueries = 6;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", srv.port()).ok()) {
        errors.fetch_add(1);
        return;
      }
      client.Execute("SET FIXED_SAMPLES = 20000");
      // Index off, so every statement samples: a warm index would answer
      // the repeats without admission (see AdmissionWeightTest). A
      // product of two variables draws; one variable alone would be
      // answered by quadrature.
      client.Execute("SET INDEX_ENABLED = 0");
      for (int q = 0; q < kQueries; ++q) {
        auto r = client.Execute("SELECT expected_sum(v * w) FROM t");
        if (!r.ok() || !r.value().ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);

  AdmissionGate::Stats stats = srv.admission_stats();
  // Every sampling statement took a ticket; the SETs/DDL took none.
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kClients * kQueries));
  EXPECT_EQ(stats.in_flight, 0u);
  srv.Stop();
}

TEST_F(ServerTest, SequentialCheapStatementsDoNotStall) {
  // A frame sent as two small writes and then a read is the Nagle +
  // delayed-ACK pattern: every round trip waits out the peer's
  // delayed-ACK timer (~88 ms on Linux loopback, ~17.6 s for this loop).
  // One-send frames with TCP_NODELAY leave only the work itself.
  Client client = Connect();
  Run(client, "CREATE TABLE one (k, v)");
  Run(client, "INSERT INTO one VALUES (1, Normal(0, 1))");
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 200; ++i) {
    WireResponse r = Run(client, "SELECT * FROM one");
    ASSERT_EQ(r.kind, WireResponse::Kind::kCTable);
    ASSERT_EQ(r.rows.size(), 1u);
  }
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_LT(elapsed_ms, 2000.0);
}

/// A 2,000-row table behind a gate of 4 weight units (1 unit ~ 1000
/// draws), for reading what single statements admit.
class AdmissionWeightTest : public ::testing::Test {
 protected:
  static constexpr size_t kCapacity = 4;

  AdmissionWeightTest() : db_(17), server_(&db_, Options()) {
    sql::Session setup(&db_);
    PIP_CHECK(setup.Execute("CREATE TABLE t (k, v)").ok());
    std::string insert = "INSERT INTO t VALUES ";
    for (int k = 0; k < 2000; ++k) {
      if (k > 0) insert += ", ";
      insert += "(" + std::to_string(k) + ", Normal(0, 1))";
    }
    PIP_CHECK(setup.Execute(insert).ok());
    PIP_CHECK(server_.Start().ok());
    PIP_CHECK(client_.Connect("127.0.0.1", server_.port()).ok());
    PIP_CHECK(client_.Execute("SET FIXED_SAMPLES = 2000").value().ok());
  }

  static ServerOptions Options() {
    ServerOptions options;
    options.max_sampling = kCapacity;
    return options;
  }

  /// Runs `stmt`; returns the tickets and weight units it was admitted
  /// with, and its reply in `*reply`.
  std::pair<uint64_t, uint64_t> Admitted(const std::string& stmt,
                                         WireResponse* reply) {
    AdmissionGate::Stats before = server_.admission_stats();
    auto r = client_.Execute(stmt);
    PIP_CHECK_MSG(r.ok(), r.status().ToString());
    *reply = std::move(r).value();
    AdmissionGate::Stats after = server_.admission_stats();
    return {after.admitted - before.admitted,
            after.admitted_weight - before.admitted_weight};
  }

  Database db_;
  Server server_;
  Client client_;
};

TEST_F(AdmissionWeightTest, PointLookupWeighsTheRowsAfterWhere) {
  // One row survives WHERE: 1 row x 2000 draws = 2 units, not the
  // 2000 x 2000 draws of the whole table.
  const std::string lookup = "SELECT expectation(v) FROM t WHERE k = 5";
  WireResponse cold;
  auto [tickets, weight] = Admitted(lookup, &cold);
  ASSERT_TRUE(cold.ok()) << cold.message;
  EXPECT_EQ(cold.rows.size(), 1u);
  EXPECT_EQ(tickets, 1u);
  EXPECT_EQ(weight, 2u);

  // Repeated, the lookup is an index hit: it draws nothing, so it takes
  // no ticket, and it replays the cold answer.
  WireResponse warm;
  auto [warm_tickets, warm_weight] = Admitted(lookup, &warm);
  ASSERT_TRUE(warm.ok()) << warm.message;
  EXPECT_EQ(warm_tickets, 0u);
  EXPECT_EQ(warm_weight, 0u);
  EXPECT_EQ(warm.rows, cold.rows);
}

TEST_F(AdmissionWeightTest, ExactCountNeverTouchesTheGate) {
  // Every row's condition v > 0 has a closed-form CDF: no draws, no
  // ticket, and sum of P[Normal(0, 1) > 0] = 2000 x 0.5.
  AdmissionGate::Stats before = server_.admission_stats();
  WireResponse reply;
  auto [tickets, weight] =
      Admitted("SELECT expected_count(*) FROM t WHERE v > 0", &reply);
  ASSERT_TRUE(reply.ok()) << reply.message;
  EXPECT_EQ(tickets, 0u);
  EXPECT_EQ(weight, 0u);
  AdmissionGate::Stats after = server_.admission_stats();
  EXPECT_EQ(after.queued, before.queued);
  EXPECT_EQ(after.shed, before.shed);
  ASSERT_EQ(reply.rows.size(), 1u);
  EXPECT_EQ(reply.rows[0][0], "1000");
}

TEST_F(AdmissionWeightTest, HalfWarmStatementWeighsOnlyItsSampledRows) {
  WireResponse reply;
  ASSERT_EQ(Admitted("SELECT expectation(v) FROM t WHERE k = 0", &reply)
                .second,
            2u);
  // Two rows survive WHERE; row 0 is now an index hit, so only row 1
  // weighs: 1 row x 2000 draws = 2 units, where cold it was 4.
  auto [tickets, weight] =
      Admitted("SELECT expectation(v) FROM t WHERE k < 2", &reply);
  ASSERT_TRUE(reply.ok()) << reply.message;
  EXPECT_EQ(reply.rows.size(), 2u);
  EXPECT_EQ(tickets, 1u);
  EXPECT_EQ(weight, 2u);
}

TEST_F(AdmissionWeightTest, FullTableSweepClampsToCapacity) {
  WireResponse reply;
  auto [tickets, weight] = Admitted("SELECT expected_sum(v) FROM t", &reply);
  ASSERT_TRUE(reply.ok()) << reply.message;
  EXPECT_EQ(tickets, 1u);
  EXPECT_EQ(weight, kCapacity);
}

TEST_F(AdmissionWeightTest, FailureBeforeSamplingAdmitsNothing) {
  for (const char* stmt :
       {"SELECT expectation(nosuch) FROM t WHERE k = 5",
        "SELECT expected_sum(v) FROM t WHERE nosuch = 5"}) {
    WireResponse reply;
    auto [tickets, weight] = Admitted(stmt, &reply);
    EXPECT_FALSE(reply.ok()) << stmt;
    EXPECT_EQ(tickets, 0u) << stmt;
    EXPECT_EQ(weight, 0u) << stmt;
  }
  // Symbolic SELECTs never reach the gate either.
  WireResponse reply;
  EXPECT_EQ(Admitted("SELECT v FROM t WHERE k = 5", &reply).first, 0u);
  EXPECT_TRUE(reply.ok());
}

TEST(ServerLifecycleTest, StopUnblocksLiveConnections) {
  Database db(1);
  Server srv(&db, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  ASSERT_TRUE(client.Execute("SHOW DISTRIBUTIONS").ok());
  srv.Stop();  // Must not hang on the idle connection.
  EXPECT_FALSE(client.Execute("SHOW DISTRIBUTIONS").ok());
}

// VmSize of this process in KiB (0 if /proc is unreadable).
size_t VmSizeKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

TEST(ServerLifecycleTest, FinishedConnectionThreadsAreReaped) {
  Database db(1);
  Server srv(&db, ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());
  auto connect_and_leave = [&] {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  };
  for (int i = 0; i < 200; ++i) connect_and_leave();
  const size_t vm_after_warmup = VmSizeKiB();
  size_t most_threads = 0;
  for (int i = 0; i < 1800; ++i) {
    connect_and_leave();
    most_threads = std::max(most_threads, srv.connection_threads());
  }
  EXPECT_EQ(srv.connections_accepted(), 2000u);
  // Each accept joins the threads of connections closed before it, so
  // only the few still winding down are unjoined. Unreaped, each would
  // keep its stack mapped (8 MiB by default): ~14 GiB for these 1,800.
  EXPECT_LE(most_threads, 64u);
  EXPECT_LE(srv.connection_threads(), 64u);
  EXPECT_LT(VmSizeKiB(), vm_after_warmup + 256 * 1024);
}

}  // namespace
}  // namespace pip
