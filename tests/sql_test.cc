#include "src/sql/session.h"

#include <gtest/gtest.h>

#include "src/common/special_math.h"
#include "src/sql/lexer.h"

namespace pip {
namespace sql {
namespace {

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenizesMixedStatement) {
  auto tokens =
      Tokenize("SELECT a, b*2 FROM t WHERE x >= 7.5 AND name = 'joe'")
          .value();
  // SELECT a , b * 2 FROM t WHERE x >= 7.5 AND name = 'joe' <end>
  EXPECT_EQ(tokens.size(), 17u);
  EXPECT_TRUE(tokens[0].Is("SELECT"));
  EXPECT_EQ(tokens[4].kind, TokenKind::kSymbol);
  EXPECT_EQ(tokens[5].number, 2.0);
  EXPECT_EQ(tokens[10].text, ">=");
  EXPECT_EQ(tokens[15].kind, TokenKind::kString);
  EXPECT_EQ(tokens[15].text, "joe");
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select SeLeCt SELECT").value();
  for (size_t i = 0; i < 3; ++i) EXPECT_TRUE(tokens[i].Is("SELECT"));
}

TEST(LexerTest, EscapedQuotes) {
  auto tokens = Tokenize("'it''s'").value();
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(LexerTest, ScientificNotation) {
  auto tokens = Tokenize("1.5e-3").value();
  EXPECT_NEAR(tokens[0].number, 0.0015, 1e-12);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a @ b").ok());
}

// ---------------------------------------------------------------------------
// Session: DDL + DML.
// ---------------------------------------------------------------------------

class SqlSessionTest : public ::testing::Test {
 protected:
  SqlSessionTest() : db_(909), session_(&db_) {
    SamplingOptions* opts = session_.mutable_options();
    opts->fixed_samples = 20000;
  }

  SqlResult Run(const std::string& stmt) {
    SqlResult r = session_.Execute(stmt);
    PIP_CHECK_MSG(r.ok(), r.ToString());
    return r;
  }

  Database db_;
  Session session_;
};

TEST_F(SqlSessionTest, CreateInsertSelectRoundTrip) {
  Run("CREATE TABLE t (a, b)");
  Run("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  SqlResult r = Run("SELECT * FROM t");
  EXPECT_EQ(r.kind, SqlResult::Kind::kCTable);
  EXPECT_EQ(r.ctable.num_rows(), 2u);
}

TEST_F(SqlSessionTest, CreateDuplicateTableFails) {
  Run("CREATE TABLE t (a)");
  EXPECT_FALSE(session_.Execute("CREATE TABLE t (a)").ok());
}

TEST_F(SqlSessionTest, InsertIntoMissingTableFails) {
  EXPECT_FALSE(session_.Execute("INSERT INTO nope VALUES (1)").ok());
}

TEST_F(SqlSessionTest, InsertArityMismatchFails) {
  Run("CREATE TABLE t (a, b)");
  EXPECT_FALSE(session_.Execute("INSERT INTO t VALUES (1)").ok());
}

TEST_F(SqlSessionTest, DistributionConstructorAllocatesVariable) {
  Run("CREATE TABLE m (v)");
  Run("INSERT INTO m VALUES (Normal(10, 2))");
  SqlResult r = Run("SELECT * FROM m");
  ASSERT_EQ(r.ctable.num_rows(), 1u);
  EXPECT_FALSE(r.ctable.row(0).cells[0]->IsConstant());
  EXPECT_EQ(db_.pool()->num_variables(), 1u);
}

TEST_F(SqlSessionTest, UnknownDistributionRejected) {
  Run("CREATE TABLE m (v)");
  EXPECT_FALSE(session_.Execute("INSERT INTO m VALUES (Zeta(2))").ok());
}

TEST_F(SqlSessionTest, DistributionParamsMustBeConstant) {
  Run("CREATE TABLE m (v)");
  EXPECT_FALSE(
      session_.Execute("INSERT INTO m VALUES (Normal(v, 1))").ok());
}

// ---------------------------------------------------------------------------
// Session: which variable a name or a constructor stands for.
// ---------------------------------------------------------------------------

VarSet VarsOf(const ExprPtr& e) {
  VarSet vars;
  e->CollectVariables(&vars);
  return vars;
}

TEST_F(SqlSessionTest, TargetConstructorIsOneVariableSharedByEveryRow) {
  Run("CREATE TABLE t (a)");
  Run("INSERT INTO t VALUES (1), (2)");
  SqlResult r = Run("SELECT a + Normal(0, 1) AS b FROM t");
  ASSERT_EQ(r.ctable.num_rows(), 2u);
  EXPECT_EQ(db_.pool()->num_variables(), 1u);
  const VarSet first = VarsOf(r.ctable.row(0).cells[0]);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(VarsOf(r.ctable.row(1).cells[0]), first);
  // A second run of the statement is a second variable.
  SqlResult again = Run("SELECT a + Normal(0, 1) AS b FROM t");
  EXPECT_EQ(db_.pool()->num_variables(), 2u);
  EXPECT_NE(VarsOf(again.ctable.row(0).cells[0]), first);
}

TEST_F(SqlSessionTest, EachInsertConstructorIsItsOwnVariable) {
  Run("CREATE TABLE t (a, b)");
  Run("INSERT INTO t VALUES (Normal(0, 1), Normal(0, 1) + 1), "
      "(Normal(0, 1), 2)");
  EXPECT_EQ(db_.pool()->num_variables(), 3u);
  SqlResult r = Run("SELECT * FROM t");
  ASSERT_EQ(r.ctable.num_rows(), 2u);
  const VarSet a0 = VarsOf(r.ctable.row(0).cells[0]);
  const VarSet b0 = VarsOf(r.ctable.row(0).cells[1]);
  const VarSet a1 = VarsOf(r.ctable.row(1).cells[0]);
  ASSERT_EQ(a0.size(), 1u);
  ASSERT_EQ(b0.size(), 1u);
  ASSERT_EQ(a1.size(), 1u);
  // Left to right, row by row.
  EXPECT_LT(*a0.begin(), *b0.begin());
  EXPECT_LT(*b0.begin(), *a1.begin());
}

TEST_F(SqlSessionTest, BareNamedVariableTargetIsAnonymous) {
  Run("CREATE VARIABLE d AS Poisson(3)");
  Run("CREATE TABLE t (a)");
  Run("INSERT INTO t VALUES (1)");
  SqlResult r = Run("SELECT d, a, d * 2 FROM t");
  EXPECT_EQ(r.ctable.schema().columns(),
            (std::vector<std::string>{"col1", "a", "col2"}));
  EXPECT_EQ(db_.pool()->num_variables(), 1u);
}

TEST_F(SqlSessionTest, TargetConstructorsComeBeforeWhereConstructors) {
  Run("CREATE TABLE t (a)");
  Run("INSERT INTO t VALUES (1)");
  SqlResult r = Run(
      "SELECT a + Uniform(0, 1) AS x, Exponential(2) AS y FROM t "
      "WHERE a < Normal(5, 1)");
  ASSERT_EQ(r.ctable.num_rows(), 1u);
  const VarSet x = VarsOf(r.ctable.row(0).cells[0]);
  const VarSet y = VarsOf(r.ctable.row(0).cells[1]);
  const VarSet where = r.ctable.row(0).condition.Variables();
  ASSERT_EQ(x.size(), 1u);
  ASSERT_EQ(y.size(), 1u);
  ASSERT_EQ(where.size(), 1u);
  EXPECT_LT(*x.begin(), *y.begin());
  EXPECT_LT(*y.begin(), *where.begin());
  EXPECT_EQ(db_.pool()->Info(where.begin()->var_id).value()->class_name,
            "Normal");
}

TEST_F(SqlSessionTest, FailedStatementsAllocateNothing) {
  Run("CREATE TABLE t (v)");
  // A parse error after two constructors, and a constructor target over a
  // missing table: neither statement runs, so neither allocates.
  EXPECT_EQ(
      session_.Execute("INSERT INTO t VALUES (Normal(0, 1)), (Poisson(3)")
          .error.code,
      WireErrorCode::kParse);
  EXPECT_EQ(session_.Execute("SELECT Uniform(0, 1) FROM nope").error.code,
            WireErrorCode::kNotFound);
  // Nor do INSERTs that fail their checks: an unknown name, a row that
  // does not fit the table.
  EXPECT_EQ(session_.Execute("INSERT INTO t VALUES (Normal(0, 1)), (zzz)")
                .error.code,
            WireErrorCode::kNotFound);
  EXPECT_EQ(session_.Execute("INSERT INTO t VALUES (Normal(0, 1)), (1, 2)")
                .error.code,
            WireErrorCode::kInvalidArg);
  EXPECT_EQ(db_.pool()->num_variables(), 0u);

  // The next INSERT reads the cells, and the draws, of a session that
  // never ran the failed statements.
  Run("INSERT INTO t VALUES (Normal(5, 1))");
  Database fresh_db(909);
  Session fresh(&fresh_db);
  *fresh.mutable_options() = *session_.mutable_options();
  for (const char* stmt :
       {"CREATE TABLE t (v)", "INSERT INTO t VALUES (Normal(5, 1))"}) {
    ASSERT_TRUE(fresh.Execute(stmt).ok()) << stmt;
  }
  for (const char* stmt :
       {"SELECT * FROM t", "SELECT expectation(v) FROM t WHERE v > 5.5"}) {
    EXPECT_EQ(Run(stmt).ToString(), fresh.Execute(stmt).ToString()) << stmt;
  }
}

TEST_F(SqlSessionTest, ParseErrorsComeBeforeCatalogueErrors) {
  Run("CREATE TABLE t (a)");
  Run("INSERT INTO t VALUES (1)");
  for (const char* bad :
       {"INSERT INTO nope VALUES (1", "SELECT expected_sum(a), a FROM nope",
        "INSERT INTO t VALUES (Normal(zzz, 1))",
        "INSERT INTO t VALUES (Normal(Normal(0, 1), 1))"}) {
    SqlResult r = session_.Execute(bad);
    EXPECT_EQ(r.error.code, WireErrorCode::kParse) << bad << ": "
                                                   << r.ToString();
  }
  EXPECT_EQ(session_.Execute("SELECT expected_sum(a), a FROM nope").ToString(),
            "ERROR PARSE: SQL parse error at position 35: cannot mix "
            "table-wide aggregates with per-row targets");
  EXPECT_EQ(session_.Execute("INSERT INTO t VALUES (Normal(zzz, 1))")
                .ToString(),
            "ERROR PARSE: SQL parse error at position 36: distribution "
            "parameters must be constants");
  EXPECT_EQ(db_.pool()->num_variables(), 0u);
}

TEST_F(SqlSessionTest, ExpectationNeedsAnArgument) {
  Run("CREATE TABLE t (a)");
  Run("INSERT INTO t VALUES (Normal(0, 1))");
  EXPECT_EQ(session_.Execute("SELECT expectation() FROM t").error.code,
            WireErrorCode::kParse);
  EXPECT_FALSE(StatementMaySample("SELECT expectation() FROM t"));
}

// ---------------------------------------------------------------------------
// Session: symbolic SELECT.
// ---------------------------------------------------------------------------

TEST_F(SqlSessionTest, WhereSplitsDeterministicAndProbabilistic) {
  Run("CREATE TABLE orders (cust, price)");
  Run("INSERT INTO orders VALUES ('Joe', Normal(100, 10)), "
      "('Bob', Normal(250, 20))");
  SqlResult r =
      Run("SELECT price FROM orders WHERE cust = 'Joe' AND price > 90");
  ASSERT_EQ(r.ctable.num_rows(), 1u);           // Bob filtered eagerly.
  EXPECT_EQ(r.ctable.row(0).condition.size(), 1u);  // price > 90 deferred.
}

TEST_F(SqlSessionTest, SelectArithmeticTargetsAndAliases) {
  Run("CREATE TABLE t (a, b)");
  Run("INSERT INTO t VALUES (3, 4)");
  SqlResult r = Run("SELECT a + b AS total, a * 2, sqrt(b) FROM t");
  EXPECT_EQ(r.ctable.schema().name(0), "total");
  EXPECT_EQ(r.ctable.row(0).cells[0]->value(), Value(7.0));
  EXPECT_EQ(r.ctable.row(0).cells[1]->value(), Value(6.0));
  EXPECT_EQ(r.ctable.row(0).cells[2]->value(), Value(2.0));
}

TEST_F(SqlSessionTest, CrossProductFrom) {
  Run("CREATE TABLE l (a)");
  Run("CREATE TABLE r (b)");
  Run("INSERT INTO l VALUES (1), (2)");
  Run("INSERT INTO r VALUES (10), (20)");
  SqlResult res = Run("SELECT a, b FROM l, r WHERE a * 10 = b");
  EXPECT_EQ(res.ctable.num_rows(), 2u);
}

// FROM folds its tables into one product in FROM order: a right-hand
// column whose name is taken gets its table's name as a prefix, and the
// first missing table is the one the error names.
TEST_F(SqlSessionTest, ThreeTableFromPrefixesCollidingColumns) {
  Run("CREATE TABLE l (k, a)");
  Run("CREATE TABLE r (k, b)");
  Run("CREATE TABLE s (k, c)");
  Run("INSERT INTO l VALUES (1, 10), (2, 20)");
  Run("INSERT INTO r VALUES (1, 100), (2, 200)");
  Run("INSERT INTO s VALUES (1, 1000), (3, 3000)");

  SqlResult all = Run("SELECT * FROM l, r, s");
  EXPECT_EQ(all.ctable.schema().columns(),
            (std::vector<std::string>{"k", "a", "r.k", "b", "s.k", "c"}));
  EXPECT_EQ(all.ctable.num_rows(), 8u);

  SqlResult joined = Run("SELECT * FROM l, r, s WHERE k = r.k AND r.k = s.k");
  ASSERT_EQ(joined.ctable.num_rows(), 1u);
  std::vector<Value> cells;
  for (const auto& cell : joined.ctable.row(0).cells) {
    cells.push_back(cell->value());
  }
  EXPECT_EQ(cells, (std::vector<Value>{Value(1.0), Value(10.0), Value(1.0),
                                       Value(100.0), Value(1.0),
                                       Value(1000.0)}));

  SqlResult picked = Run("SELECT a, s.k, c FROM l, r, s WHERE b = 200");
  EXPECT_EQ(picked.ctable.schema().columns(),
            (std::vector<std::string>{"a", "s.k", "c"}));
  EXPECT_EQ(picked.ctable.num_rows(), 4u);

  for (const auto& [stmt, first_missing] :
       std::vector<std::pair<std::string, std::string>>{
           {"SELECT * FROM l, nope1, r, nope2", "nope1"},
           {"SELECT * FROM nope2, l, nope1", "nope2"}}) {
    SqlResult err = session_.Execute(stmt);
    ASSERT_FALSE(err.ok()) << stmt;
    EXPECT_EQ(err.error.code, WireErrorCode::kNotFound) << stmt;
    EXPECT_EQ(err.error.message, "no table named '" + first_missing + "'")
        << stmt;
  }
}

// ---------------------------------------------------------------------------
// Session: WHERE over deterministic cells. Atoms whose two sides are
// constant cells are decided by Value::Compare before any row is copied;
// these pin the answers that decision gives.
// ---------------------------------------------------------------------------

class SqlWhereTest : public SqlSessionTest {
 protected:
  // t(k, cust, price, tag): k is an int cell 0..19 (SQL literals are
  // doubles), cust 'c<k>', price a Normal variable, tag NULL on odd k and
  // 'x' on even k.
  void SetUp() override {
    CTable t(Schema({"k", "cust", "price", "tag"}));
    for (int64_t k = 0; k < 20; ++k) {
      VarRef price = db_.CreateVariable("Normal", {100.0, 10.0}).value();
      ASSERT_TRUE(t.Append({Expr::ConstantInt(k),
                            Expr::String("c" + std::to_string(k)),
                            Expr::Var(price),
                            Expr::Constant(k % 2 ? Value() : Value("x"))})
                      .ok());
    }
    ASSERT_TRUE(db_.RegisterCTable("t", std::move(t)).ok());
    table_ = db_.GetTable("t").value();
  }

  /// The k of each row of a symbolic result, in order; every kept row
  /// carries its catalogue cells, and only the symbolic atoms as its
  /// condition.
  std::vector<int64_t> Keys(const SqlResult& r) {
    std::vector<int64_t> keys;
    for (const auto& row : r.ctable.rows()) {
      const int64_t k = row.cells[0]->value().int_value();
      const CTableRow& source = table_->row(static_cast<size_t>(k));
      for (size_t c = 0; c < row.cells.size(); ++c) {
        EXPECT_EQ(row.cells[c].get(), source.cells[c].get()) << "k=" << k;
      }
      keys.push_back(k);
    }
    return keys;
  }

  std::shared_ptr<const CTable> table_;
};

TEST_F(SqlWhereTest, DoubleLiteralMatchesIntCell) {
  SqlResult r = Run("SELECT * FROM t WHERE k = 17.0");
  EXPECT_EQ(Keys(r), std::vector<int64_t>({17}));
  EXPECT_TRUE(r.ctable.row(0).condition.IsTrue());
  EXPECT_EQ(Keys(Run("SELECT * FROM t WHERE 3 >= k")),
            std::vector<int64_t>({0, 1, 2, 3}));
  EXPECT_TRUE(Keys(Run("SELECT * FROM t WHERE k = 17.5")).empty());
}

TEST_F(SqlWhereTest, StringEquality) {
  EXPECT_EQ(Keys(Run("SELECT * FROM t WHERE cust = 'c5'")),
            std::vector<int64_t>({5}));
  // Strings order after every number: no cust is below 0.
  EXPECT_TRUE(Keys(Run("SELECT * FROM t WHERE cust < 0")).empty());
}

TEST_F(SqlWhereTest, NotEqualKeepsOrder) {
  std::vector<int64_t> want;
  for (int64_t k = 0; k < 20; ++k) {
    if (k != 3) want.push_back(k);
  }
  EXPECT_EQ(Keys(Run("SELECT * FROM t WHERE k != 3")), want);
}

TEST_F(SqlWhereTest, NullCellsCompareByTypeTag) {
  // NULL orders below every number and equals NULL; 'x' orders above.
  std::vector<int64_t> odd, all;
  for (int64_t k = 0; k < 20; ++k) {
    if (k % 2) odd.push_back(k);
    all.push_back(k);
  }
  EXPECT_EQ(Keys(Run("SELECT * FROM t WHERE tag < 1")), odd);
  EXPECT_EQ(Keys(Run("SELECT * FROM t WHERE tag = tag")), all);
  EXPECT_EQ(Keys(Run("SELECT * FROM t WHERE tag != 'x' AND k < 5")),
            std::vector<int64_t>({1, 3}));
}

TEST_F(SqlWhereTest, ConstantAtomsOnBothSides) {
  EXPECT_EQ(Run("SELECT * FROM t WHERE 1 = 1").ctable.num_rows(), 20u);
  EXPECT_EQ(Run("SELECT * FROM t WHERE 1 = 2").ctable.num_rows(), 0u);
}

TEST_F(SqlWhereTest, RandomColumnStillBindsIntoTheCondition) {
  SqlResult r = Run("SELECT * FROM t WHERE k < 2 AND k < price");
  EXPECT_EQ(Keys(r), std::vector<int64_t>({0, 1}));
  for (const auto& row : r.ctable.rows()) {
    ASSERT_EQ(row.condition.size(), 1u);
    const ConstraintAtom& atom = row.condition.atoms()[0];
    EXPECT_EQ(atom.op(), CmpOp::kLt);
    EXPECT_EQ(atom.lhs().get(), row.cells[0].get());
    EXPECT_EQ(atom.rhs().get(), row.cells[2].get());
  }
}

TEST_F(SqlWhereTest, UnknownColumnErrorText) {
  SqlResult r = session_.Execute("SELECT * FROM t WHERE k = 1 AND nope = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, WireErrorCode::kNotFound);
  EXPECT_EQ(r.error.message,
            "no column named 'nope' in (k, cust, price, tag)");
  // Once an earlier atom has dropped every row, nothing binds the name.
  EXPECT_EQ(Run("SELECT * FROM t WHERE k > 99 AND nope = 1").ctable.num_rows(),
            0u);
}

// ---------------------------------------------------------------------------
// Session: probability-removing operators.
// ---------------------------------------------------------------------------

TEST_F(SqlSessionTest, ExpectedSumAggregates) {
  Run("CREATE TABLE m (v)");
  Run("INSERT INTO m VALUES (Normal(10, 2)), (Normal(30, 5)), (2)");
  SqlResult r = Run("SELECT expected_sum(v) FROM m");
  ASSERT_EQ(r.kind, SqlResult::Kind::kTable);
  ASSERT_EQ(r.table.num_rows(), 1u);
  EXPECT_NEAR(r.table.row(0)[0].double_value(), 42.0, 0.5);
}

TEST_F(SqlSessionTest, SelectiveExpectedSumUsesConditions) {
  // The paper's headline query shape, end to end through SQL.
  Run("CREATE TABLE orders (cust, price, days)");
  Run("INSERT INTO orders VALUES ('Joe', Normal(100, 10), Normal(5, 1))");
  SqlResult r =
      Run("SELECT expected_sum(price) FROM orders WHERE days >= 7");
  double expected = 100.0 * (1.0 - NormalCdf(2.0));
  EXPECT_NEAR(r.table.row(0)[0].double_value(), expected, 0.2);
}

TEST_F(SqlSessionTest, ShowDistributionsListsRegistry) {
  SqlResult r = Run("SHOW DISTRIBUTIONS");
  ASSERT_EQ(r.kind, SqlResult::Kind::kTable);
  EXPECT_EQ(r.table.schema().columns(),
            (std::vector<std::string>{"distribution"}));
  std::vector<std::string> expected = DistributionRegistry::Global().Names();
  ASSERT_EQ(r.table.num_rows(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.table.row(i)[0].string_value(), expected[i]);
  }
  // The builtin library is pre-seeded, so the listing is never empty.
  EXPECT_GE(expected.size(), 10u);
}

TEST_F(SqlSessionTest, ShowTopics) {
  EXPECT_FALSE(session_.Execute("SHOW").ok());
  EXPECT_FALSE(session_.Execute("SHOW NONSENSE").ok());

  Run("CREATE TABLE zeta (a)");
  Run("CREATE TABLE alpha (a)");
  SqlResult tables = Run("SHOW TABLES");
  ASSERT_EQ(tables.table.num_rows(), 2u);
  // Sorted by name regardless of creation order.
  EXPECT_EQ(tables.table.row(0)[0], Value("alpha"));
  EXPECT_EQ(tables.table.row(1)[0], Value("zeta"));

  SqlResult knobs = Run("SHOW KNOBS");
  EXPECT_EQ(knobs.table.schema().size(), 3u);
  bool saw_epsilon = false;
  for (const Row& row : knobs.table.rows()) {
    if (row[0] == Value("EPSILON")) saw_epsilon = true;
  }
  EXPECT_TRUE(saw_epsilon);
}

TEST_F(SqlSessionTest, ShowPoolReportsSchedulerCounters) {
  // Drive a fanned-out batch through the shared pool, then read the
  // scheduler counters back over SQL. The two-variable target keeps the
  // rows on the sampling path (one variable would take quadrature and
  // open no region).
  auto pool_metrics = [&] {
    SqlResult r = Run("SHOW POOL");
    EXPECT_EQ(r.kind, SqlResult::Kind::kTable);
    EXPECT_EQ(r.table.schema().columns(),
              (std::vector<std::string>{"metric", "value"}));
    std::vector<std::pair<std::string, double>> metrics;
    for (const Row& row : r.table.rows()) {
      metrics.emplace_back(row[0].string_value(), row[1].double_value());
    }
    return metrics;
  };
  Run("CREATE TABLE pool_t (v, w)");
  Run("INSERT INTO pool_t VALUES (Normal(10, 2), Normal(3, 1)), "
      "(Normal(20, 3), Normal(4, 1))");
  Run("SET num_threads = 4");
  Run("SET fixed_samples = 200");
  Run("SET index_enabled = 0");
  const auto before = pool_metrics();
  Run("SELECT expected_sum(v * w) FROM pool_t WHERE v > 5");
  const auto after = pool_metrics();

  std::vector<std::string> names;
  for (const auto& [name, value] : after) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "threads", "regions", "inline_regions", "worker_tasks",
                       "nested_tasks", "join_waits", "join_wait_micros"}));
  ASSERT_EQ(before.size(), after.size());
  EXPECT_GE(after[0].second, 1.0);                     // threads
  EXPECT_GE(after[1].second - before[1].second, 1.0);  // regions

  // POOL joined the SHOW topic list (and the error names it).
  SqlResult bad = session_.Execute("SHOW NONSENSE");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error.message.find("POOL"), std::string::npos);
}

TEST_F(SqlSessionTest, ShowKnobsReflectsSet) {
  Run("SET fixed_samples = 321");
  SqlResult knobs = Run("SHOW KNOBS");
  bool found = false;
  for (const Row& row : knobs.table.rows()) {
    if (row[0] == Value("FIXED_SAMPLES")) {
      EXPECT_EQ(row[1], Value("321"));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SqlSessionTest, CreateVariableNamedReuse) {
  Run("CREATE VARIABLE demand AS Poisson(140)");
  EXPECT_EQ(db_.pool()->num_variables(), 1u);

  // Reusing the name in two statements references the SAME variable (no
  // fresh allocation), unlike inline constructors.
  Run("CREATE TABLE p (label, units)");
  Run("INSERT INTO p VALUES ('a', demand), ('b', demand * 2)");
  EXPECT_EQ(db_.pool()->num_variables(), 1u);

  SqlResult vars = Run("SHOW VARIABLES");
  ASSERT_EQ(vars.table.num_rows(), 1u);
  EXPECT_EQ(vars.table.row(0)[0], Value("demand"));
  EXPECT_EQ(vars.table.row(0)[1], Value("Poisson"));

  // Duplicate names and bad constructors are rejected.
  EXPECT_FALSE(session_.Execute("CREATE VARIABLE demand AS Normal(0, 1)").ok());
  EXPECT_FALSE(session_.Execute("CREATE VARIABLE v2 AS NoSuchDist(1)").ok());
  // The failed CREATE VARIABLE must not leak a reserved name.
  Run("CREATE VARIABLE v2 AS Normal(0, 1)");
}

TEST_F(SqlSessionTest, ExpectedCountStar) {
  Run("CREATE TABLE m (v)");
  Run("INSERT INTO m VALUES (Uniform(0, 1)), (Uniform(0, 1))");
  SqlResult r = Run("SELECT expected_count(*) FROM m WHERE v < 0.25");
  EXPECT_NEAR(r.table.row(0)[0].double_value(), 0.5, 1e-9);  // Exact CDF.
}

TEST_F(SqlSessionTest, MultipleAggregatesInOneSelect) {
  Run("CREATE TABLE m (v)");
  Run("INSERT INTO m VALUES (Uniform(0, 10)), (4)");
  SqlResult r = Run(
      "SELECT expected_sum(v) AS s, expected_count(*) AS n, "
      "expected_avg(v) AS a FROM m");
  EXPECT_EQ(r.table.schema().columns(),
            (std::vector<std::string>{"s", "n", "a"}));
  EXPECT_NEAR(r.table.row(0)[0].double_value(), 9.0, 0.2);
  EXPECT_NEAR(r.table.row(0)[1].double_value(), 2.0, 1e-9);
  EXPECT_NEAR(r.table.row(0)[2].double_value(), 4.5, 0.1);
}

TEST_F(SqlSessionTest, ExpectedMaxAggregate) {
  Run("CREATE TABLE m (v)");
  Run("INSERT INTO m VALUES (5), (9)");
  SqlResult r = Run("SELECT expected_max(v) FROM m");
  EXPECT_NEAR(r.table.row(0)[0].double_value(), 9.0, 1e-9);
}

TEST_F(SqlSessionTest, PerRowExpectationAndConf) {
  Run("CREATE TABLE m (tag, v)");
  Run("INSERT INTO m VALUES ('a', Normal(10, 1)), ('b', Normal(20, 1))");
  SqlResult r =
      Run("SELECT tag, expectation(v) AS ev, conf() FROM m WHERE v > 0");
  ASSERT_EQ(r.kind, SqlResult::Kind::kTable);
  ASSERT_EQ(r.table.num_rows(), 2u);
  EXPECT_NEAR(r.table.Get(0, "E[ev]").value().double_value(), 10.0, 0.2);
  EXPECT_NEAR(r.table.Get(1, "E[ev]").value().double_value(), 20.0, 0.2);
  EXPECT_NEAR(r.table.Get(0, "conf").value().double_value(), 1.0, 1e-6);
}

TEST_F(SqlSessionTest, InfiniteBoundIsABound) {
  // 1e999 lexes as +inf. No lattice value lies beyond +inf or below -inf,
  // so these rows carry probability 0, as for 1e300 and as for
  // continuous laws.
  Run("CREATE TABLE t (id, q)");
  Run("INSERT INTO t VALUES (1, Poisson(4))");
  for (const char* where : {"q > 1e999", "q < -1e999", "q >= 1e999",
                            "q > 1e300"}) {
    SCOPED_TRACE(where);
    const std::string from = std::string(" FROM t WHERE ") + where;
    // A probability-0 row leaves the per-row results.
    EXPECT_EQ(Run("SELECT id, conf()" + from).table.num_rows(), 0u);
    EXPECT_EQ(Run("SELECT id, expectation(q), conf()" + from)
                  .table.num_rows(),
              0u);
    EXPECT_EQ(Run("SELECT expected_count(*)" + from).table.row(0)[0],
              Value(0.0));
  }
}

TEST_F(SqlSessionTest, MixingTableWideAndPerRowRejected) {
  Run("CREATE TABLE m (v)");
  Run("INSERT INTO m VALUES (1)");
  EXPECT_FALSE(
      session_.Execute("SELECT expected_sum(v), conf() FROM m").ok());
  EXPECT_FALSE(session_.Execute("SELECT expected_sum(v), v FROM m").ok());
}

TEST_F(SqlSessionTest, ParseErrorsCarryParseCode) {
  for (const char* bad :
       {"SELECT", "SELECT FROM t", "CREATE TABLE", "INSERT INTO",
        "SELECT a FROM t WHERE", "DELETE FROM t", "SELECT a FROM t extra"}) {
    auto r = session_.Execute(bad);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.error.code, WireErrorCode::kParse) << bad;
  }
}

TEST_F(SqlSessionTest, ErrorCodesByCategory) {
  Run("CREATE TABLE t (a)");
  // NOT_FOUND: missing table.
  EXPECT_EQ(session_.Execute("INSERT INTO nope VALUES (1)").error.code,
            WireErrorCode::kNotFound);
  // INVALID_ARG: well-formed statement with invalid content.
  EXPECT_EQ(session_.Execute("SET epsilon = 7").error.code,
            WireErrorCode::kInvalidArg);
  EXPECT_EQ(session_.Execute("CREATE TABLE t (a)").error.code,
            WireErrorCode::kInvalidArg);  // AlreadyExists maps here.
  // CAPABILITY: recognized SQL the engine declines.
  EXPECT_EQ(session_.Execute("SELECT DISTINCT a FROM t").error.code,
            WireErrorCode::kCapability);
  EXPECT_EQ(session_.Execute("SELECT a FROM t GROUP BY a").error.code,
            WireErrorCode::kCapability);
  EXPECT_EQ(session_.Execute("SELECT a FROM t ORDER BY a").error.code,
            WireErrorCode::kCapability);
  // Messages render with the same code names the wire uses.
  SqlResult err = session_.Execute("SELECT a FROM t LIMIT 5");
  EXPECT_NE(err.ToString().find("ERROR CAPABILITY:"), std::string::npos);
}

TEST_F(SqlSessionTest, ResultColumnMetadata) {
  Run("CREATE TABLE m (label, v)");
  Run("INSERT INTO m VALUES ('a', Uniform(0, 1)), ('b', 2)");
  SqlResult sym = Run("SELECT * FROM m");
  ASSERT_EQ(sym.columns.size(), 2u);
  EXPECT_EQ(sym.columns[0].name, "label");
  EXPECT_EQ(sym.columns[0].kind, ColumnKind::kText);
  EXPECT_EQ(sym.columns[1].kind, ColumnKind::kSymbolic);

  SqlResult det = Run("SELECT expected_sum(v) AS s FROM m");
  ASSERT_EQ(det.columns.size(), 1u);
  EXPECT_EQ(det.columns[0].name, "s");
  EXPECT_EQ(det.columns[0].kind, ColumnKind::kNumeric);
}

TEST_F(SqlSessionTest, StatementMaySampleClassification) {
  EXPECT_TRUE(StatementMaySample("SELECT expected_sum(v) FROM t"));
  EXPECT_TRUE(StatementMaySample("SELECT expectation(v), conf() FROM t"));
  EXPECT_TRUE(StatementMaySample("select EXPECTED_MAX(v) from t"));
  EXPECT_FALSE(StatementMaySample("SELECT v FROM t"));
  EXPECT_FALSE(StatementMaySample("INSERT INTO t VALUES (Normal(0, 1))"));
  // String literals cannot fake a match (lexer-accurate scan).
  EXPECT_FALSE(StatementMaySample("INSERT INTO t VALUES ('conf()')"));
  // Unparseable text classifies as non-sampling.
  EXPECT_FALSE(StatementMaySample("'unterminated"));
}

TEST_F(SqlSessionTest, ClassifiersReadTheParse) {
  // Text the parser rejects neither samples nor weighs anything, however
  // much it looks like a sampling statement.
  Run("CREATE TABLE t (a)");
  Run("INSERT INTO t VALUES (Normal(0, 1)), (2)");
  const SamplingOptions& options = *session_.mutable_options();
  for (const char* bad :
       {"SELECT aconf() FROM t", "SELECT expected_sum(a) FROM",
        "SELECT expected_sum(a), a FROM t", "SELECT conf(*) FROM t",
        "SELECT expected_sum(a) FROM t WHERE"}) {
    EXPECT_FALSE(StatementMaySample(bad)) << bad;
    EXPECT_EQ(EstimateSampleVolume(db_, bad, options), 0u) << bad;
    EXPECT_EQ(session_.Execute(bad).error.code, WireErrorCode::kParse) << bad;
  }
  EXPECT_EQ(EstimateSampleVolume(db_, "SELECT expected_sum(a) FROM t", options),
            2 * options.fixed_samples);
  // Classifying allocates nothing.
  EXPECT_EQ(db_.pool()->num_variables(), 1u);
  EXPECT_TRUE(
      StatementMaySample("SELECT expected_sum(a + Normal(0, 1)) FROM t"));
  EXPECT_EQ(db_.pool()->num_variables(), 1u);
}

TEST_F(SqlSessionTest, TrailingSemicolonAccepted) {
  Run("CREATE TABLE t (a);");
  Run("INSERT INTO t VALUES (1);");
  SqlResult r = Run("SELECT * FROM t;");
  EXPECT_EQ(r.ctable.num_rows(), 1u);
}

TEST_F(SqlSessionTest, ResultToStringRenders) {
  Run("CREATE TABLE t (a)");
  Run("INSERT INTO t VALUES (Exponential(2))");
  EXPECT_FALSE(Run("SELECT * FROM t").ToString().empty());
  EXPECT_FALSE(Run("SELECT expected_sum(a) FROM t").ToString().empty());
}

}  // namespace
}  // namespace sql
}  // namespace pip
