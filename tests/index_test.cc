#include "src/index/expectation_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/query.h"
#include "src/sampling/index_ops.h"
#include "src/sql/session.h"

namespace pip {
namespace {

// ---------------------------------------------------------------------------
// ExpectationIndex unit tests (no sampling involved).
// ---------------------------------------------------------------------------

IndexedValue MakeValue(double expectation) {
  IndexedValue v;
  v.expectation = expectation;
  v.probability = 0.5;
  v.samples_used = 100;
  return v;
}

TEST(ExpectationIndexTest, MissThenInsertThenHit) {
  ExpectationIndex index;
  EXPECT_FALSE(index.Lookup("k").has_value());
  index.Insert("k", MakeValue(3.5));
  auto hit = index.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->expectation, 3.5);
  ExpectationIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ExpectationIndexTest, DistinctResultKeysNeverAlias) {
  ExpectationIndex index;
  index.Insert("k", MakeValue(1.0));
  index.Insert("kk", MakeValue(2.0));
  EXPECT_FALSE(index.Lookup("k2").has_value());  // Other query.
  EXPECT_FALSE(index.Lookup("").has_value());    // Empty prefix.
  EXPECT_EQ(index.Lookup("k")->expectation, 1.0);
  EXPECT_EQ(index.Lookup("kk")->expectation, 2.0);
  EXPECT_EQ(index.stats().entries, 2u);
}

TEST(ExpectationIndexTest, LruEvictionUnderTinyBudget) {
  ExpectationIndex index(/*memory_budget=*/1);  // Nothing fits twice over.
  index.Insert("a", MakeValue(1.0));
  index.Insert("b", MakeValue(2.0));
  ExpectationIndex::Stats stats = index.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 1u);
}

TEST(ExpectationIndexTest, LruKeepsRecentlyTouchedEntry) {
  ExpectationIndex index(/*memory_budget=*/0);  // Unlimited while filling.
  index.Insert("old", MakeValue(1.0));
  index.Insert("new", MakeValue(2.0));
  // Touch the older entry, then shrink so only one survives: the
  // untouched one must be the victim.
  EXPECT_TRUE(index.Lookup("old").has_value());
  ExpectationIndex::Stats full = index.stats();
  index.SetMemoryBudget(full.bytes - 1);
  EXPECT_TRUE(index.Lookup("old").has_value());
  EXPECT_FALSE(index.Lookup("new").has_value());
}

TEST(ExpectationIndexTest, ReinsertKeepsOneEntry) {
  ExpectationIndex index;
  index.Insert("k", MakeValue(1.0));
  const ExpectationIndex::Stats first = index.stats();
  index.Insert("k", MakeValue(1.0));  // A racing backfill of one key.
  const ExpectationIndex::Stats second = index.stats();
  EXPECT_EQ(second.entries, 1u);
  EXPECT_EQ(second.inserts, first.inserts);
  EXPECT_EQ(second.bytes, first.bytes);
  auto hit = index.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->expectation, 1.0);
}

// ---------------------------------------------------------------------------
// End-to-end through SQL sessions.
// ---------------------------------------------------------------------------

class IndexSqlTest : public ::testing::Test {
 protected:
  IndexSqlTest() : db_(4242), session_(&db_) {
    session_.mutable_options()->fixed_samples = 500;
  }

  sql::SqlResult Run(const std::string& stmt) { return Run(&session_, stmt); }

  static sql::SqlResult Run(sql::Session* session, const std::string& stmt) {
    sql::SqlResult r = session->Execute(stmt);
    PIP_CHECK_MSG(r.ok(), r.ToString());
    return r;
  }

  std::vector<double> AnalyzeRow(sql::Session* session) {
    sql::SqlResult r = Run(
        session, "SELECT tag, expectation(v) AS ev, conf() FROM m WHERE v > 0");
    std::vector<double> values;
    for (size_t i = 0; i < r.table.num_rows(); ++i) {
      values.push_back(r.table.Get(i, "E[ev]").value().double_value());
      values.push_back(r.table.Get(i, "conf").value().double_value());
    }
    return values;
  }

  Database db_;
  sql::Session session_;
};

TEST_F(IndexSqlTest, HitServesBitIdenticalResultsAcrossThreadCounts) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', Exponential(0.5))");

  // Cold pass with the index off: the pure sampling answer.
  Run("SET index_enabled = 0");
  std::vector<double> cold = AnalyzeRow(&session_);
  uint64_t hits_before = db_.result_index_stats().hits;

  // Miss + backfill, then hits — all bit-identical to the cold pass,
  // whatever NUM_THREADS is (thread count is excluded from index keys
  // because the engine's draws are schedule-independent).
  Run("SET index_enabled = 1");
  EXPECT_EQ(AnalyzeRow(&session_), cold);  // Backfills.
  for (size_t threads : {1, 2, 8}) {
    Run("SET num_threads = " + std::to_string(threads));
    EXPECT_EQ(AnalyzeRow(&session_), cold) << "num_threads=" << threads;
  }
  EXPECT_GT(db_.result_index_stats().hits, hits_before);
}

TEST_F(IndexSqlTest, AggregatesShareIndexWithAnalyze) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', Normal(20, 1))");
  sql::SqlResult cold =
      Run("SELECT expected_sum(v) AS s, expected_avg(v) AS a FROM m");
  ExpectationIndex::Stats after_cold = db_.result_index_stats();
  sql::SqlResult warm =
      Run("SELECT expected_sum(v) AS s, expected_avg(v) AS a FROM m");
  ExpectationIndex::Stats after_warm = db_.result_index_stats();
  EXPECT_EQ(warm.table.row(0)[0].double_value(),
            cold.table.row(0)[0].double_value());
  EXPECT_EQ(warm.table.row(0)[1].double_value(),
            cold.table.row(0)[1].double_value());
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(after_warm.inserts, after_cold.inserts);  // Fully served.
}

TEST_F(IndexSqlTest, OneKeyFromTwoTablesIsOneEntry) {
  // Two tables holding the same named variable under the same condition
  // ask the same question, so they share one entry.
  Run("CREATE VARIABLE x AS Normal(10, 1)");
  Run("CREATE TABLE m (tag, v)");
  Run("CREATE TABLE other (tag, v)");
  Run("INSERT INTO m VALUES ('a', x)");
  Run("INSERT INTO other VALUES ('a', x)");
  const std::string query = "SELECT tag, expectation(v) AS ev, conf() FROM ";
  sql::SqlResult from_m = Run(query + "m WHERE v > 0");
  ExpectationIndex::Stats after_m = db_.result_index_stats();
  sql::SqlResult from_other = Run(query + "other WHERE v > 0");
  ExpectationIndex::Stats after_other = db_.result_index_stats();
  EXPECT_EQ(from_other.table.row(0)[1].double_value(),
            from_m.table.row(0)[1].double_value());
  EXPECT_EQ(after_other.entries, after_m.entries);
  EXPECT_EQ(after_other.misses, after_m.misses);
  EXPECT_GT(after_other.hits, after_m.hits);

  // A different variable with equal parameters is a different question.
  Run("INSERT INTO other VALUES ('b', Normal(10, 1))");
  Run(query + "other WHERE v > 0");
  ExpectationIndex::Stats after_new = db_.result_index_stats();
  EXPECT_EQ(after_new.entries, after_other.entries + 1);
}

TEST_F(IndexSqlTest, InsertKeepsOldRowsHitting) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', Exponential(0.5))");
  const std::vector<double> before = AnalyzeRow(&session_);  // Warms m.
  ExpectationIndex::Stats warm = db_.result_index_stats();
  ASSERT_EQ(before.size(), 4u);

  Run("INSERT INTO m VALUES ('c', Normal(20, 1))");
  ExpectationIndex::Stats written = db_.result_index_stats();
  EXPECT_EQ(written.entries, warm.entries);  // The write purged nothing.
  EXPECT_EQ(written.invalidations, 0u);

  std::vector<double> after = AnalyzeRow(&session_);
  ExpectationIndex::Stats swept = db_.result_index_stats();
  // AnalyzeRow makes one lookup per row: both old rows hit and only the
  // new row misses and backfills.
  EXPECT_EQ(swept.hits - written.hits, 2u);
  EXPECT_EQ(swept.misses - written.misses, 1u);
  EXPECT_EQ(swept.inserts - written.inserts, 1u);
  // Old rows' cells are byte-identical to the pre-insert sweep, and the
  // new row appears.
  ASSERT_EQ(after.size(), 6u);
  EXPECT_EQ(std::memcmp(after.data(), before.data(),
                        before.size() * sizeof(double)),
            0);
  EXPECT_NEAR(after[4], 20.0, 0.5);
}

TEST_F(IndexSqlTest, MaterializeViewKeepsIdenticalRowsAndMissesNewOnes) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', Normal(12, 1))");
  const std::vector<double> warm = AnalyzeRow(&session_);
  ExpectationIndex::Stats warmed = db_.result_index_stats();

  // Re-materializing the same rows keeps every entry hitting.
  db_.MaterializeView("m", *db_.GetTable("m").value());
  EXPECT_EQ(AnalyzeRow(&session_), warm);
  ExpectationIndex::Stats same = db_.result_index_stats();
  EXPECT_EQ(same.misses, warmed.misses);
  EXPECT_EQ(same.hits - warmed.hits, 2u);

  // Re-creating the table with different parameters allocates new
  // variables: every row misses and the answers are fresh.
  Run("CREATE TABLE staging (tag, v)");
  Run("INSERT INTO staging VALUES ('a', Normal(30, 1)), ('b', "
      "Normal(32, 1))");
  db_.MaterializeView("m", *db_.GetTable("staging").value());
  const std::vector<double> fresh = AnalyzeRow(&session_);
  ExpectationIndex::Stats recreated = db_.result_index_stats();
  EXPECT_EQ(recreated.misses - same.misses, 2u);
  EXPECT_EQ(recreated.hits, same.hits);
  ASSERT_EQ(fresh.size(), 4u);
  EXPECT_NEAR(fresh[0], 30.0, 0.5);
  EXPECT_NEAR(fresh[2], 32.0, 0.5);
}

TEST_F(IndexSqlTest, BackfillFromPreInsertSnapshotServesLaterReaders) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', Exponential(0.5))");
  std::shared_ptr<const CTable> old_snapshot = db_.GetTable("m").value();
  Run("INSERT INTO m VALUES ('c', Normal(20, 1))");

  // A reader still holding the pre-insert snapshot backfills after the
  // write has published; its entries must serve post-insert readers.
  // Same call pattern as the query below: expectation(v) with conf().
  AnalyzeSpec spec;
  spec.expectation_columns = {"v"};
  spec.passthrough_columns = {"tag"};
  ASSERT_TRUE(Analyze(*old_snapshot,
                      db_.MakeEngine(*session_.mutable_options()), spec)
                  .ok());
  ExpectationIndex::Stats backfilled = db_.result_index_stats();
  const std::string query = "SELECT tag, expectation(v) AS ev, conf() FROM m";
  sql::SqlResult served = Run(query);
  ExpectationIndex::Stats after = db_.result_index_stats();
  EXPECT_EQ(after.hits - backfilled.hits, 2u);      // Both old rows.
  EXPECT_EQ(after.misses - backfilled.misses, 1u);  // Only the new row.

  Run("SET index_enabled = 0");
  sql::SqlResult recomputed = Run(query);
  ASSERT_EQ(served.table.num_rows(), 3u);
  ASSERT_EQ(recomputed.table.num_rows(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t c = 1; c < 3; ++c) {
      const double a = served.table.row(i)[c].double_value();
      const double b = recomputed.table.row(i)[c].double_value();
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "row " << i << " column " << c;
    }
  }
}

TEST_F(IndexSqlTest, TinyBudgetEvictsThroughSqlKnob) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(1, 1)), ('b', Normal(2, 1)), "
      "('c', Normal(3, 1)), ('d', Normal(4, 1))");
  Run("SET index_memory_budget = 1");
  AnalyzeRow(&session_);
  ExpectationIndex::Stats stats = db_.result_index_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 1u);
  // Still answers correctly with the index effectively disabled by size.
  EXPECT_NEAR(AnalyzeRow(&session_)[0], 1.0, 0.5);
}

TEST_F(IndexSqlTest, ConcurrentSessionsAgreeAndShareEntries) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', Exponential(0.5))");
  constexpr int kSessions = 8;
  std::vector<std::vector<double>> results(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([this, i, &results] {
      sql::Session session(&db_);
      session.mutable_options()->fixed_samples = 500;
      results[i] = AnalyzeRow(&session);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kSessions; ++i) EXPECT_EQ(results[i], results[0]);
  // One session backfilled; later ones hit (exact interleaving varies,
  // but the racing inserts of one entry must collapse, not duplicate).
  ExpectationIndex::Stats stats = db_.result_index_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.entries, 4u);  // 2 rows x (expectation, conf).
}

TEST_F(IndexSqlTest, ShowIndexAndKnobsSurfaces) {
  sql::SqlResult knobs = Run("SHOW KNOBS");
  std::vector<std::string> names;
  for (const Row& row : knobs.table.rows()) {
    names.push_back(row[0].string_value());
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "INDEX_ENABLED"),
            names.end());
  // Index population is lazy only: the eager builder's knob is gone.
  EXPECT_EQ(std::find(names.begin(), names.end(), "INDEX_EAGER_BUILD"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "INDEX_MEMORY_BUDGET"),
            names.end());

  sql::SqlResult index = Run("SHOW INDEX");
  EXPECT_EQ(index.table.schema().columns(),
            (std::vector<std::string>{"metric", "value"}));
  EXPECT_EQ(index.table.num_rows(), 8u);  // incl. insert_failures
  EXPECT_EQ(index.table.row(0)[0].string_value(), "entries");

  // Bad knob values are rejected; good ones round-trip through SHOW.
  EXPECT_FALSE(session_.Execute("SET index_enabled = 2").ok());
  Run("SET index_enabled = 0");
  sql::SqlResult shown = Run("SHOW KNOBS");
  for (const Row& row : shown.table.rows()) {
    if (row[0].string_value() == "INDEX_ENABLED") {
      EXPECT_EQ(row[1].string_value(), "0");
    }
  }
}

TEST_F(IndexSqlTest, DisabledIndexNeverTouchesCounters) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1))");
  Run("SET index_enabled = 0");
  ExpectationIndex::Stats before = db_.result_index_stats();
  AnalyzeRow(&session_);
  AnalyzeRow(&session_);
  ExpectationIndex::Stats after = db_.result_index_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.inserts, before.inserts);
}

// ---------------------------------------------------------------------------
// Plan before admit: the per-statement triage (index_ops.h).
// ---------------------------------------------------------------------------

/// A catalogue table of six rows: v ~ Normal(r, 1) and w ~ Normal(0, 1),
/// each row under the single-variable condition v > 0. conf() of a row
/// has a closed form; expectation(v) takes quadrature and expectation of
/// v * w draws, so both are keyed.
class TriageTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 6;

  TriageTest() : db_(31) {
    options_.fixed_samples = 500;
    CTable t(Schema({"v", "w"}));
    for (size_t r = 0; r < kRows; ++r) {
      VarRef v = db_.CreateVariable("Normal", {double(r), 1.0}).value();
      VarRef w = db_.CreateVariable("Normal", {0.0, 1.0}).value();
      Condition positive(ConstraintAtom(Expr::Var(v), CmpOp::kGt,
                                        Expr::Constant(0.0)));
      PIP_CHECK(t.Append({Expr::Var(v), Expr::Var(w)}, positive).ok());
    }
    db_.MaterializeView("m", std::move(t));
    table_ = db_.GetTable("m").value();
    for (const CTableRow& row : table_->rows()) {
      products_.push_back(Expr::Mul(row.cells[0], row.cells[1]));
    }
  }

  RowCall Conf(size_t r) const {
    return {nullptr, &table_->row(r).condition, false};
  }
  RowCall Expect(size_t r) const {
    return {&table_->row(r).cells[0], &table_->row(r).condition, true};
  }
  RowCall Product(size_t r) const {
    return {&products_[r], &table_->row(r).condition, true};
  }

  /// Triages one call per row for the first `rows` rows.
  RowTriage Triage(size_t rows, RowTriage::CallOf call_of,
                   SamplingOptions options) const {
    return RowTriage(db_.MakeEngine(options), *table_, rows, 1,
                     std::move(call_of));
  }
  RowTriage Triage(size_t rows, RowTriage::CallOf call_of) const {
    return Triage(rows, std::move(call_of), options_);
  }

  Database db_;
  SamplingOptions options_;
  std::shared_ptr<const CTable> table_;
  std::vector<ExprPtr> products_;  ///< v * w of each row.
};

TEST_F(TriageTest, ExactCountMakesNoIndexLookupOrInsert) {
  const ExpectationIndex::Stats before = db_.result_index_stats();
  RowTriage triage =
      Triage(kRows, [this](size_t r, size_t) { return Conf(r); });
  EXPECT_EQ(triage.exact(), kRows);
  EXPECT_EQ(triage.hits(), 0u);
  EXPECT_EQ(triage.sampled_rows(), 0u);
  ASSERT_TRUE(triage.Run().ok());

  sql::Session session(&db_);
  session.mutable_options()->fixed_samples = 500;
  sql::SqlResult count = session.Execute("SELECT expected_count(*) FROM m");
  ASSERT_TRUE(count.ok()) << count.ToString();
  const ExpectationIndex::Stats after = db_.result_index_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.inserts, before.inserts);

  // The closed form: sum over rows of P[Normal(r, 1) > 0], bit for bit
  // what the triage computed row by row.
  double want = 0.0;
  for (size_t r = 0; r < kRows; ++r) {
    EXPECT_TRUE(triage.result(r, 0).exact);
    EXPECT_NEAR(triage.result(r, 0).probability,
                0.5 * std::erfc(-static_cast<double>(r) / std::sqrt(2.0)),
                1e-12);
    want += triage.result(r, 0).probability;
  }
  EXPECT_EQ(count.table.row(0)[0].double_value(), want);
}

TEST_F(TriageTest, ExactCountPlansEachRowOnce) {
  // An exact call plans with the skeleton its closed-form check looked
  // up: one plan-cache lookup per row, and the engine's own bits.
  sql::Session session(&db_);
  const PlanCache::Stats before = db_.plan_cache_stats();
  sql::SqlResult count = session.Execute("SELECT expected_count(*) FROM m");
  ASSERT_TRUE(count.ok()) << count.ToString();
  const PlanCache::Stats after = db_.plan_cache_stats();
  EXPECT_EQ((after.hits + after.misses) - (before.hits + before.misses),
            kRows);

  const SamplingEngine engine = db_.MakeEngine(options_);
  double want = 0.0;
  for (size_t r = 0; r < kRows; ++r) {
    want += engine.Confidence(table_->row(r).condition).value().probability;
  }
  EXPECT_EQ(count.table.row(0)[0].double_value(), want);
}

TEST_F(TriageTest, MixedTableSortsIntoExactHitAndSample) {
  // Warm rows 2 and 3: their expectation(v) calls sample and backfill.
  RowTriage warm = Triage(4, [this](size_t r, size_t) {
    return r < 2 ? Conf(r) : Expect(r);
  });
  EXPECT_EQ(warm.exact(), 2u);
  EXPECT_EQ(warm.hits(), 0u);
  EXPECT_EQ(warm.sampled_rows(), 2u);
  ASSERT_TRUE(warm.Run().ok());
  const ExpectationIndex::Stats warmed = db_.result_index_stats();

  // Rows 0-1 conf() (exact), rows 2-3 expectation(v) (hits), rows 4-5
  // expectation(v) (cold).
  RowTriage mixed = Triage(kRows, [this](size_t r, size_t) {
    return r < 2 ? Conf(r) : Expect(r);
  });
  EXPECT_EQ(mixed.exact(), 2u);
  EXPECT_EQ(mixed.hits(), 2u);
  EXPECT_EQ(mixed.sampled_rows(), 2u);
  ASSERT_TRUE(mixed.Run().ok());
  const ExpectationIndex::Stats ran = db_.result_index_stats();
  // One lookup per keyed call (the exact ones make none), one backfill
  // per sampled call.
  EXPECT_EQ(ran.hits - warmed.hits, 2u);
  EXPECT_EQ(ran.misses - warmed.misses, 2u);
  EXPECT_EQ(ran.inserts - warmed.inserts, 2u);
  for (size_t r = 2; r < 4; ++r) {
    EXPECT_EQ(mixed.result(r, 0).expectation, warm.result(r, 0).expectation);
    EXPECT_EQ(mixed.result(r, 0).probability, warm.result(r, 0).probability);
  }

  // A target over two variables samples although its condition alone
  // has a closed form.
  RowTriage two_vars = Triage(1, [this](size_t, size_t) { return Product(0); });
  EXPECT_EQ(two_vars.exact(), 0u);
  EXPECT_EQ(two_vars.sampled_rows(), 1u);
}

TEST_F(TriageTest, HitReplaysAfterClearWithoutDrawingOrInserting) {
  RowTriage cold = Triage(1, [this](size_t, size_t) { return Product(0); });
  ASSERT_EQ(cold.sampled_rows(), 1u);
  ASSERT_TRUE(cold.Run().ok());
  const ExpectationResult first = cold.result(0, 0);
  ASSERT_GT(first.samples_used, 0u);

  // Every chunk barrier reports cancellation, so any draw would fail the
  // run: a sampled row does, a hit must not.
  SamplingOptions no_draws = options_;
  no_draws.cancel_check = [] { return true; };
  RowTriage hit =
      Triage(1, [this](size_t, size_t) { return Product(0); }, no_draws);
  ASSERT_EQ(hit.hits(), 1u);
  ASSERT_EQ(hit.sampled_rows(), 0u);
  db_.result_index()->Clear();
  const ExpectationIndex::Stats cleared = db_.result_index_stats();
  ASSERT_TRUE(hit.Run().ok());
  const ExpectationIndex::Stats after = db_.result_index_stats();
  EXPECT_EQ(after.inserts, cleared.inserts);
  EXPECT_EQ(after.hits + after.misses, cleared.hits + cleared.misses);
  EXPECT_EQ(after.entries, 0u);
  const ExpectationResult replay = hit.result(0, 0);
  EXPECT_EQ(std::memcmp(&replay.expectation, &first.expectation,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&replay.probability, &first.probability,
                        sizeof(double)),
            0);
  EXPECT_EQ(replay.samples_used, first.samples_used);

  RowTriage sampled =
      Triage(2, [this](size_t r, size_t) { return Product(r); }, no_draws);
  ASSERT_EQ(sampled.sampled_rows(), 2u);
  EXPECT_EQ(sampled.Run().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace pip
