/// Seeded mutation fuzzing of the two untrusted parsers: SQL statement
/// text (through the classifiers, which parse and touch no variable, and
/// through a session) and PIP1 response payloads (DecodeResponse). The
/// seed corpus is statement text from the SQL, server, robustness and
/// failpoint tests, the SQL example and the pipbench workloads. The seeds
/// are fixed, so a failure replays exactly.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/server/wire.h"
#include "src/sql/lexer.h"
#include "src/sql/session.h"

namespace pip {
namespace {

const std::vector<std::string>& Corpus() {
  static const std::vector<std::string>* corpus = new std::vector<std::string>{
      "CREATE TABLE orders (cust, ship_to, price)",
      "CREATE TABLE t (a, b);",
      "CREATE VARIABLE demand AS Poisson(140)",
      "CREATE VARIABLE v2 AS Normal(0, 1)",
      "INSERT INTO orders VALUES ('Joe', 'NY', Normal(120, 20)), "
      "('Bob', 'LA', Normal(340, 45))",
      "INSERT INTO p VALUES ('a', demand), ('b', demand * 2)",
      "INSERT INTO m VALUES ('a', Normal(10, 2), Uniform(0, 4)), "
      "('d', Exponential(0.1), Uniform(3, 9))",
      "INSERT INTO t VALUES ('it''s', 1.5e-3, -2, 1e999)",
      "INSERT INTO orders VALUES (17, 'c17', Normal(85, 6), Poisson(4))",
      "SELECT * FROM t",
      "SELECT a + b AS total, a * 2, sqrt(b) FROM t",
      "SELECT price FROM orders WHERE cust = 'Joe' AND price > 90",
      "SELECT expected_sum(price), conf() FROM orders WHERE ship_days >= 7",
      "SELECT expected_sum(v) AS s, expected_count(*) AS n, "
      "expected_avg(v) AS a FROM m",
      "select EXPECTED_MAX(v) from t",
      "SELECT tag, expectation(v) AS ev, conf() FROM m WHERE v > 0",
      "SELECT expectation(price * qty), conf() FROM orders WHERE k >= 1200 "
      "AND k < 1206 AND price * qty > 500",
      "SELECT price * qty AS v FROM orders WHERE k = 1717",
      "SELECT k, expectation(price * qty), conf() FROM orders WHERE qty > 3",
      "SELECT expected_sum(u * v) FROM a, b WHERE a.k <> b.k",
      "SELECT expected_sum(v) FROM small, big",
      "SELECT expectation(nosuch) FROM t WHERE k = 5",
      "SELECT label, expectation(u * v), conf() FROM m WHERE v > 2",
      "INSERT INTO t VALUES (Normal(0, 1), Normal(1, 1)), (3, 4)",
      "CREATE TABLE m (label, u, v)",
      "SELECT POW(a, 2), Min(a, b), ABS(-a), exp(0), LOG(1) FROM t "
      "WHERE a != 1 AND b <= 3",
      "SELECT a + Normal(0, 1) AS b FROM t WHERE a < Uniform(0, 2)",
      "SELECT DISTINCT a FROM t",
      "SELECT a FROM t GROUP BY a",
      "SET FIXED_SAMPLES = 2000",
      "SET epsilon = -0.5",
      "SHOW KNOBS",
      "SHOW VARIABLES;",
  };
  return *corpus;
}

/// Fragments spliced into statements: keywords, operators, the SQL
/// functions and numbers at the edges of what the parsers accept.
const std::vector<std::string>& Dictionary() {
  static const std::vector<std::string>* dictionary =
      new std::vector<std::string>{
          "SELECT", "FROM", "WHERE", "AND", "AS", "INSERT INTO", "VALUES",
          "CREATE TABLE", "CREATE VARIABLE", "SET", "SHOW", "*", "(", ")",
          ",", ".", ";", "'", "''", "<>", "!=", "<=", ">=", "=", "-", "/",
          "expected_sum(", "expected_count(*)", "expectation(", "conf()",
          "aconf(", "Normal(", "Poisson(", "Zipf(1.1, 1000000)", "exp(",
          "pow(", "1e999", "-1e999", "1e-320", "0", "-0", "nan", "inf",
          "18446744073709551615", "18446744073709551616", "4294967296",
          "\t", "\n", "\\", std::string(1, '\0')};
  return *dictionary;
}

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  size_t Below(size_t n) {
    return n == 0 ? 0 : std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  /// One to four edits: byte flips, byte or dictionary inserts, span
  /// deletes, splices with a `donor`, and truncations.
  std::string Mutate(std::string s, const std::string& donor) {
    const size_t edits = 1 + Below(4);
    for (size_t e = 0; e < edits; ++e) {
      switch (Below(6)) {
        case 0:  // Flip one bit of one byte.
          if (!s.empty()) {
            s[Below(s.size())] ^= static_cast<char>(1 << Below(8));
          }
          break;
        case 1:  // Insert a random byte.
          s.insert(s.begin() + Below(s.size() + 1),
                   static_cast<char>(Below(256)));
          break;
        case 2:  // Insert a dictionary fragment.
          s.insert(Below(s.size() + 1),
                   Dictionary()[Below(Dictionary().size())]);
          break;
        case 3: {  // Delete a span.
          const size_t at = Below(s.size() + 1);
          s.erase(at, 1 + Below(8));
          break;
        }
        case 4:  // Splice: a prefix of this, a suffix of the donor.
          s = s.substr(0, Below(s.size() + 1)) +
              donor.substr(Below(donor.size() + 1));
          break;
        default:  // Truncate.
          s.resize(Below(s.size() + 1));
          break;
      }
    }
    return s;
  }

 private:
  std::mt19937_64 rng_;
};

/// Token-level splice: the first tokens of `a` and the last ones of `b`,
/// joined at token boundaries.
std::string TokenSplice(const std::string& a, const std::string& b,
                        Mutator* m) {
  auto ta = sql::Tokenize(a);
  auto tb = sql::Tokenize(b);
  if (!ta.ok() || !tb.ok()) return a;
  const size_t cut_a = ta->at(m->Below(ta->size())).position;
  const size_t cut_b = tb->at(m->Below(tb->size())).position;
  return a.substr(0, cut_a) + " " + b.substr(cut_b);
}

TEST(SqlFuzzTest, ClassifiersAgreeAndAllocateNothing) {
  Database db(1);  // Empty: the classifiers read its catalogue only.
  SamplingOptions options;
  options.fixed_samples = 100;
  const std::vector<std::string>& corpus = Corpus();
  Mutator m(20261020);
  size_t sampling = 0;
  constexpr size_t kMutants = 24000;
  for (size_t i = 0; i < kMutants; ++i) {
    const std::string& base = corpus[m.Below(corpus.size())];
    const std::string& donor = corpus[m.Below(corpus.size())];
    const std::string mutant = i % 4 == 0 ? TokenSplice(base, donor, &m)
                                          : m.Mutate(base, donor);
    const bool may_sample = sql::StatementMaySample(mutant);
    ASSERT_EQ(sql::StatementMaySample(mutant), may_sample) << mutant;
    // No table exists, so a sampling statement weighs the one-row floor.
    ASSERT_EQ(sql::EstimateSampleVolume(db, mutant, options),
              may_sample ? options.fixed_samples : 0u)
        << mutant;
    sampling += may_sample;
  }
  EXPECT_EQ(db.pool()->num_variables(), 0u);
  // The mutants reach both answers.
  EXPECT_GT(sampling, kMutants / 200);
  EXPECT_LT(sampling, kMutants / 2);
}

TEST(SqlFuzzTest, SessionAnswersEveryMutant) {
  // Every mutant runs, in a fresh session, against a small catalogue that
  // is rebuilt every 200 statements; each gets a reply, most of them
  // errors.
  sql::SessionSettings settings;
  settings.sampling.fixed_samples = 64;
  settings.sampling.num_threads = 1;
  settings.envelope.statement_timeout_ms = 200;
  std::unique_ptr<Database> db;
  const std::vector<std::string>& corpus = Corpus();
  Mutator m(777);
  size_t ok = 0;
  constexpr size_t kMutants = 20000;
  for (size_t i = 0; i < kMutants; ++i) {
    if (i % 200 == 0) {
      db = std::make_unique<Database>(3);
      sql::Session setup(db.get(), settings);
      for (const char* stmt :
           {"CREATE TABLE t (a, b)",
            "INSERT INTO t VALUES (1, Normal(0, 1)), (2, Poisson(3))",
            "CREATE TABLE m (tag, v)",
            "INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', 4)",
            "CREATE TABLE orders (k, cust, price, qty)",
            "INSERT INTO orders VALUES (1, 'c1', Normal(80, 5), Poisson(3)), "
            "(2, 'c2', Normal(90, 6), Poisson(4))",
            "CREATE VARIABLE demand AS Poisson(140)"}) {
        ASSERT_TRUE(setup.Execute(stmt).ok()) << stmt;
      }
    }
    const std::string& base = corpus[m.Below(corpus.size())];
    const std::string& donor = corpus[m.Below(corpus.size())];
    const std::string mutant = i % 4 == 0 ? TokenSplice(base, donor, &m)
                                          : m.Mutate(base, donor);
    sql::Session session(db.get(), settings);
    const sql::SqlResult r = session.Execute(mutant);
    ASSERT_TRUE(r.ok() || !r.error.message.empty()) << mutant;
    ok += r.ok();
  }
  EXPECT_GT(ok, kMutants / 100);
}

TEST(WireFuzzTest, DecodeSurvivesMutatedPayloads) {
  // One reply of each kind: ACK, TBL, CTB and ERR.
  Database db(2);
  sql::Session session(&db);
  std::vector<std::string> payloads;
  for (const char* stmt :
       {"CREATE TABLE t (tag, v)",
        "INSERT INTO t VALUES ('a\tb', Normal(10, 1)), ('c\\nd', 4)",
        "SELECT tag, expectation(v) AS ev, conf() FROM t WHERE v > 0",
        "SELECT tag, v FROM t WHERE v > 3", "SELECT nope FROM nowhere"}) {
    payloads.push_back(server::EncodeResponse(session.Execute(stmt), 17));
    ASSERT_TRUE(server::DecodeResponse(payloads.back()).ok()) << stmt;
  }
  Mutator m(4242);
  size_t decoded = 0;
  constexpr size_t kMutants = 20000;
  for (size_t i = 0; i < kMutants; ++i) {
    const std::string& base = payloads[m.Below(payloads.size())];
    const std::string& donor = payloads[m.Below(payloads.size())];
    auto response = server::DecodeResponse(m.Mutate(base, donor));
    if (!response.ok()) continue;
    ++decoded;
    // Whatever decodes is consistent with its own header.
    for (const auto& row : response->rows) {
      EXPECT_EQ(row.size(),
                response->columns.size() +
                    (response->kind == server::WireResponse::Kind::kCTable));
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, kMutants);
}

TEST(WireFuzzTest, DecodeRejectsCountsThatWrap) {
  // 1 + ncols + nrows wraps to the line count: the counts must not be
  // trusted past the lines that are there.
  EXPECT_FALSE(
      server::DecodeResponse("TBL 0 1 18446744073709551615").ok());
  EXPECT_FALSE(
      server::DecodeResponse("CTB 0 18446744073709551615 1").ok());
}

}  // namespace
}  // namespace pip
