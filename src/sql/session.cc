#include "src/sql/session.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <sstream>

#include "src/common/failpoints.h"
#include "src/common/thread_pool.h"
#include "src/sql/knobs.h"
#include "src/sql/lexer.h"

namespace pip {
namespace sql {

namespace {

using CE = ColExpr;

/// A function with special meaning in target position: its upper-case
/// name (also the target's default name), whether it is table-wide
/// (expected_*) or per-row, and for table-wide ones which aggregate.
enum class AggKind { kTableWide, kExpectation, kConf };
struct AggName {
  const char* name;
  AggKind kind;
  GroupAggregate aggregate;
};

constexpr AggName kAggNames[] = {
    {"EXPECTED_SUM", AggKind::kTableWide, GroupAggregate::kExpectedSum},
    {"EXPECTED_COUNT", AggKind::kTableWide, GroupAggregate::kExpectedCount},
    {"EXPECTED_AVG", AggKind::kTableWide, GroupAggregate::kExpectedAvg},
    {"EXPECTED_MAX", AggKind::kTableWide, GroupAggregate::kExpectedMax},
    {"EXPECTATION", AggKind::kExpectation, GroupAggregate::kExpectedSum},
    {"CONF", AggKind::kConf, GroupAggregate::kExpectedSum},
};

/// A scalar function usable inside expressions, with its arity.
struct ScalarFunc {
  const char* name;
  FuncKind func;
  size_t arity;
};

constexpr ScalarFunc kScalarFuncs[] = {
    {"EXP", FuncKind::kExp, 1},  {"LOG", FuncKind::kLog, 1},
    {"SQRT", FuncKind::kSqrt, 1}, {"ABS", FuncKind::kAbs, 1},
    {"MIN", FuncKind::kMin, 2},  {"MAX", FuncKind::kMax, 2},
    {"POW", FuncKind::kPow, 2},
};

constexpr std::pair<const char*, CmpOp> kCmpOps[] = {
    {"<", CmpOp::kLt},  {"<=", CmpOp::kLe}, {">", CmpOp::kGt},
    {">=", CmpOp::kGe}, {"=", CmpOp::kEq},  {"<>", CmpOp::kNe},
    {"!=", CmpOp::kNe},
};

constexpr const char* kShowTopics[] = {
    "DISTRIBUTIONS", "FAILPOINTS", "INDEX", "KNOBS", "POOL", "TABLES",
    "VARIABLES"};

/// The entry of `table` whose name the identifier `t` spells, or null.
template <typename Entry, size_t N>
const Entry* Lookup(const Entry (&table)[N], const Token& t) {
  for (const Entry& entry : table) {
    if (t.Is(entry.name)) return &entry;
  }
  return nullptr;
}

/// Per-row Monte Carlo draw estimate: the pinned count in fixed mode, the
/// adaptive floor otherwise (the stopping rule draws at least that many).
size_t PerRowDraws(const SamplingOptions& options) {
  size_t per_row = options.fixed_samples > 0 ? options.fixed_samples
                                             : options.min_samples;
  return std::max<size_t>(per_row, 1);
}

/// One statement's STATEMENT_TIMEOUT_MS deadline (timeout 0 = none).
/// Sampling worker threads poll it through cancel_check, hence the
/// atomic; Restart moves it when the statement leaves the admission
/// queue, because the timeout bounds execution, not the wait.
class Deadline {
 public:
  explicit Deadline(uint64_t timeout_ms)
      : timeout_ns_(static_cast<int64_t>(std::min(timeout_ms, kMaxMs)) *
                    1000000) {
    Restart();
  }

  bool armed() const { return timeout_ns_ > 0; }
  void Restart() {
    at_ns_.store(NowNs() + timeout_ns_, std::memory_order_relaxed);
  }
  bool Expired() const {
    return armed() && NowNs() >= at_ns_.load(std::memory_order_relaxed);
  }

 private:
  /// Longer timeouts (~146 years) are clamped so the nanosecond
  /// arithmetic cannot overflow.
  static constexpr uint64_t kMaxMs =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max() / 2) /
      1000000;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  const int64_t timeout_ns_;
  std::atomic<int64_t> at_ns_{0};
};

/// Column-kind classification of one deterministic value.
ColumnKind KindOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return ColumnKind::kNull;
    case ValueType::kBool:
      return ColumnKind::kBool;
    case ValueType::kInt:
    case ValueType::kDouble:
      return ColumnKind::kNumeric;
    case ValueType::kString:
      return ColumnKind::kText;
  }
  return ColumnKind::kMixed;
}

ColumnKind KindOf(const ExprPtr& cell) {
  return cell->IsConstant() ? KindOf(cell->value()) : ColumnKind::kSymbolic;
}

const Row& CellsOf(const Row& row) { return row; }
const std::vector<ExprPtr>& CellsOf(const CTableRow& row) { return row.cells; }

/// Folds a cell kind into a column's running kind (NULL cells defer to
/// the other cells; disagreement goes to kMixed; symbolic dominates).
ColumnKind MergeKind(ColumnKind column, ColumnKind cell) {
  if (column == ColumnKind::kSymbolic || cell == ColumnKind::kSymbolic) {
    return ColumnKind::kSymbolic;
  }
  if (column == ColumnKind::kNull) return cell;
  if (cell == ColumnKind::kNull) return column;
  return column == cell ? column : ColumnKind::kMixed;
}

/// Result metadata of a Table or a CTable: each column's name and kind.
template <typename T>
std::vector<SqlColumn> ColumnsOf(const T& t) {
  std::vector<SqlColumn> cols(t.schema().size());
  for (size_t c = 0; c < cols.size(); ++c) {
    cols[c].name = t.schema().name(c);
    for (const auto& row : t.rows()) {
      cols[c].kind = MergeKind(cols[c].kind, KindOf(CellsOf(row)[c]));
    }
  }
  return cols;
}

/// One SELECT target as written. Its alias is the AS alias or aggregate
/// name, else empty until the expression resolves.
struct Target {
  const AggName* agg = nullptr;  // Null for a plain expression.
  ColExprPtr expr;               // Null for expected_count(*) / conf().
  std::string alias;
};

/// \brief One parsed statement: its text, with no name looked up and no
/// variable allocated. A bare name is a column reference and a
/// constructor a ColExpr::Distribution leaf until the statement runs.
struct Statement {
  enum class Kind {
    kCreateTable, kCreateVariable, kInsert, kSelect, kSet, kShow
  };
  explicit Statement(Kind k) : kind(k) {}
  Kind kind;
  /// The table (CREATE TABLE, INSERT), variable (CREATE VARIABLE), knob
  /// (SET) or topic (SHOW).
  std::string name;
  std::vector<std::string> names;  // CREATE TABLE's columns, FROM's tables.
  ColExprPtr variable;             // CREATE VARIABLE's Distribution leaf.
  std::vector<std::vector<ColExprPtr>> rows;  // INSERT.
  bool select_star = false;
  std::vector<Target> targets;
  ColPredicate where;
  bool table_wide = false, per_row = false;  // Which aggregates it holds.
  double value = 0;                          // SET.

  bool MaySample() const { return table_wide || per_row; }
};

/// Recursive-descent parser for one statement. It reads the tokens and
/// the distribution registry (to check constructors), nothing else.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Statement> ParseStatement() {
    if (Peek().Is("CREATE")) {
      return Peek(1).Is("VARIABLE") ? ParseCreateVariable() : ParseCreateTable();
    }
    if (Peek().Is("INSERT")) return ParseInsert();
    if (Peek().Is("SELECT")) return ParseSelect();
    if (Peek().Is("SET")) return ParseSet();
    if (Peek().Is("SHOW")) return ParseShow();
    return Error("expected CREATE, INSERT, SELECT, SET or SHOW");
  }

 private:
  // -- Token plumbing ---------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  Status Error(const std::string& message) const {
    return Status::ParseError("SQL parse error at position " +
                              std::to_string(Peek().position) + ": " +
                              message);
  }

  /// Recognized-but-unsupported SQL constructs get the CAPABILITY wire
  /// code (distinct from PARSE: the statement is legal SQL the engine
  /// declines, so clients can branch on it).
  Status Capability(const std::string& feature) const {
    return Status::Unimplemented(feature + " is not supported");
  }

  Status ExpectKeyword(std::string_view upper) {
    if (!Peek().Is(upper)) return Error("expected " + std::string(upper));
    Advance();
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view s) {
    if (!Peek().IsSymbol(s)) return Error("expected '" + std::string(s) + "'");
    Advance();
    return Status::OK();
  }

  StatusOr<std::string> ExpectIdent() {
    if (Peek().kind != TokenKind::kIdent) return Error("expected identifier");
    return Advance().text;
  }

  Status ExpectStatementEnd() {
    if (Peek().IsSymbol(";")) Advance();
    if (Peek().kind != TokenKind::kEnd) return Error("trailing input");
    return Status::OK();
  }

  // -- Expressions -------------------------------------------------------

  StatusOr<ColExprPtr> ParseExpr() { return ParseAddSub(); }

  StatusOr<ColExprPtr> ParseAddSub() {
    PIP_ASSIGN_OR_RETURN(ColExprPtr left, ParseMulDiv());
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      bool add = Advance().text == "+";
      PIP_ASSIGN_OR_RETURN(ColExprPtr right, ParseMulDiv());
      left = add ? CE::Add(left, right) : CE::Sub(left, right);
    }
    return left;
  }

  StatusOr<ColExprPtr> ParseMulDiv() {
    PIP_ASSIGN_OR_RETURN(ColExprPtr left, ParseUnary());
    while (Peek().IsSymbol("*") || Peek().IsSymbol("/")) {
      bool mul = Advance().text == "*";
      PIP_ASSIGN_OR_RETURN(ColExprPtr right, ParseUnary());
      left = mul ? CE::Mul(left, right) : CE::Div(left, right);
    }
    return left;
  }

  StatusOr<ColExprPtr> ParseUnary() {
    if (Peek().IsSymbol("-")) {
      Advance();
      PIP_ASSIGN_OR_RETURN(ColExprPtr inner, ParseUnary());
      return CE::Neg(inner);
    }
    return ParsePrimary();
  }

  StatusOr<ColExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kNumber) {
      Advance();
      return CE::Literal(Value(t.number));
    }
    if (t.kind == TokenKind::kString) {
      Advance();
      return CE::Literal(Value(t.text));
    }
    if (t.IsSymbol("(")) {
      Advance();
      PIP_ASSIGN_OR_RETURN(ColExprPtr inner, ParseExpr());
      PIP_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    if (t.kind == TokenKind::kIdent) {
      if (Peek(1).IsSymbol("(")) return ParseCall();
      std::string name = Advance().text;
      // Dotted column reference (table.column).
      if (Peek().IsSymbol(".")) {
        Advance();
        PIP_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        return CE::Column(name + "." + col);
      }
      // A bare name: a named variable or a column, decided on execution.
      return CE::Column(name);
    }
    return Error("expected expression");
  }

  /// Parses "(expr, ...)" — the argument list of any call.
  StatusOr<std::vector<ColExprPtr>> ParseArgList() {
    PIP_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<ColExprPtr> args;
    if (!Peek().IsSymbol(")")) {
      while (true) {
        PIP_ASSIGN_OR_RETURN(ColExprPtr arg, ParseExpr());
        args.push_back(std::move(arg));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
    }
    PIP_RETURN_IF_ERROR(ExpectSymbol(")"));
    return args;
  }

  /// The Distribution leaf `name(args)`: the class must be registered and
  /// every argument a numeric constant. `validate` also checks the
  /// parameters against the class, so that allocating it cannot fail.
  StatusOr<ColExprPtr> DistributionLeaf(const std::string& name,
                                        const std::vector<ColExprPtr>& args,
                                        bool validate) {
    auto dist = DistributionRegistry::Global().Lookup(name);
    if (!dist.ok()) {
      return Error("unknown function or distribution '" + name + "'");
    }
    std::vector<double> params;
    params.reserve(args.size());
    for (const auto& arg : args) {
      if (arg->kind() == CE::Kind::kLiteral) {
        PIP_ASSIGN_OR_RETURN(double v, arg->literal().AsDouble());
        params.push_back(v);
        continue;
      }
      // A column, a variable's name or a constructor does not bind here.
      StatusOr<ExprPtr> bound = arg->Bind(Schema(), {});
      if (!bound.ok() || !bound.value()->IsConstant()) {
        return Error("distribution parameters must be constants");
      }
      PIP_ASSIGN_OR_RETURN(double v, bound.value()->value().AsDouble());
      params.push_back(v);
    }
    if (validate) PIP_RETURN_IF_ERROR(dist.value()->ValidateParams(params));
    return CE::Distribution(name, std::move(params));
  }

  /// A call in expression position: a scalar function or a distribution
  /// constructor — the paper's CREATE_VARIABLE inlined into values and
  /// targets, one fresh variable per occurrence when the statement runs.
  StatusOr<ColExprPtr> ParseCall() {
    const Token& head = Advance();
    PIP_ASSIGN_OR_RETURN(std::vector<ColExprPtr> args, ParseArgList());
    if (const ScalarFunc* func = Lookup(kScalarFuncs, head)) {
      if (args.size() != func->arity) {
        return Error(head.text + " expects " + std::to_string(func->arity) +
                     " argument(s)");
      }
      return func->arity == 1 ? CE::Func(func->func, args[0])
                              : CE::Func(func->func, args[0], args[1]);
    }
    return DistributionLeaf(head.text, args, /*validate=*/true);
  }

  StatusOr<ColPredicate> ParseWhere() {
    ColPredicate pred;
    while (true) {
      PIP_ASSIGN_OR_RETURN(ColExprPtr lhs, ParseExpr());
      const auto* op = std::find_if(
          std::begin(kCmpOps), std::end(kCmpOps),
          [&](const auto& entry) { return Peek().IsSymbol(entry.first); });
      if (op == std::end(kCmpOps)) return Error("expected comparison operator");
      Advance();
      PIP_ASSIGN_OR_RETURN(ColExprPtr rhs, ParseExpr());
      pred.And(std::move(lhs), op->second, std::move(rhs));
      if (!Peek().Is("AND")) break;
      Advance();
    }
    return pred;
  }

  // -- Statements ---------------------------------------------------------

  /// SET knob = value.
  StatusOr<Statement> ParseSet() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("SET"));
    Statement s{Statement::Kind::kSet};
    PIP_ASSIGN_OR_RETURN(s.name, ExpectIdent());
    PIP_RETURN_IF_ERROR(ExpectSymbol("="));
    const bool negative = Peek().IsSymbol("-");
    if (negative) Advance();
    if (Peek().kind != TokenKind::kNumber) return Error("expected a number");
    s.value = negative ? -Advance().number : Advance().number;
    PIP_RETURN_IF_ERROR(ExpectStatementEnd());
    return s;
  }

  /// SHOW <topic>.
  StatusOr<Statement> ParseShow() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("SHOW"));
    for (const char* topic : kShowTopics) {
      if (!Peek().Is(topic)) continue;
      Advance();
      PIP_RETURN_IF_ERROR(ExpectStatementEnd());
      Statement s{Statement::Kind::kShow};
      s.name = topic;
      return s;
    }
    return Error(
        "expected DISTRIBUTIONS, FAILPOINTS, INDEX, KNOBS, POOL, TABLES or "
        "VARIABLES");
  }

  StatusOr<Statement> ParseCreateTable() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    PIP_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    Statement s{Statement::Kind::kCreateTable};
    PIP_ASSIGN_OR_RETURN(s.name, ExpectIdent());
    PIP_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      PIP_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      s.names.push_back(std::move(col));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    PIP_RETURN_IF_ERROR(ExpectSymbol(")"));
    PIP_RETURN_IF_ERROR(ExpectStatementEnd());
    return s;
  }

  /// CREATE VARIABLE name AS Dist(params): the paper's named
  /// CREATE_VARIABLE (§V-A).
  StatusOr<Statement> ParseCreateVariable() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    PIP_RETURN_IF_ERROR(ExpectKeyword("VARIABLE"));
    Statement s{Statement::Kind::kCreateVariable};
    PIP_ASSIGN_OR_RETURN(s.name, ExpectIdent());
    PIP_RETURN_IF_ERROR(ExpectKeyword("AS"));
    if (Peek().kind != TokenKind::kIdent) return Error("expected identifier");
    const Token& head = Advance();
    if (!Peek().IsSymbol("(")) return Error("expected '('");
    if (Lookup(kScalarFuncs, head)) {
      return Error("'" + head.text + "' is not a distribution");
    }
    PIP_ASSIGN_OR_RETURN(std::vector<ColExprPtr> args, ParseArgList());
    PIP_ASSIGN_OR_RETURN(s.variable,
                         DistributionLeaf(head.text, args, /*validate=*/false));
    PIP_RETURN_IF_ERROR(ExpectStatementEnd());
    return s;
  }

  StatusOr<Statement> ParseInsert() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    PIP_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    Statement s{Statement::Kind::kInsert};
    PIP_ASSIGN_OR_RETURN(s.name, ExpectIdent());
    PIP_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      PIP_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<ColExprPtr>& row = s.rows.emplace_back();
      row.reserve(s.rows.front().size());  // Rows are as wide as the first.
      while (true) {
        PIP_ASSIGN_OR_RETURN(ColExprPtr expr, ParseExpr());
        row.push_back(std::move(expr));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
      PIP_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    PIP_RETURN_IF_ERROR(ExpectStatementEnd());
    return s;
  }

  StatusOr<Target> ParseTarget() {
    Target target;
    // Aggregate / per-row operator heads.
    if (Peek(1).IsSymbol("(") && (target.agg = Lookup(kAggNames, Peek()))) {
      target.alias = target.agg->name;
      Advance();
      Advance();  // '('
      if (Peek().IsSymbol("*")) {
        if (target.agg->aggregate != GroupAggregate::kExpectedCount ||
            target.agg->kind != AggKind::kTableWide) {
          return Error("'*' argument only valid for expected_count");
        }
        Advance();
      } else if (!Peek().IsSymbol(")")) {
        PIP_ASSIGN_OR_RETURN(target.expr, ParseExpr());
      } else if (target.agg->kind == AggKind::kExpectation) {
        return Error("expectation expects an argument");
      }
      PIP_RETURN_IF_ERROR(ExpectSymbol(")"));
    } else {
      PIP_ASSIGN_OR_RETURN(target.expr, ParseExpr());
    }
    if (Peek().Is("AS")) {
      Advance();
      PIP_ASSIGN_OR_RETURN(target.alias, ExpectIdent());
    }
    return target;
  }

  StatusOr<Statement> ParseSelect() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    if (Peek().Is("DISTINCT")) return Capability("SELECT DISTINCT");
    Statement s{Statement::Kind::kSelect};
    bool plain = false;
    if (Peek().IsSymbol("*")) {
      Advance();
      s.select_star = true;
    } else {
      while (true) {
        PIP_ASSIGN_OR_RETURN(Target t, ParseTarget());
        (t.agg == nullptr ? plain
         : t.agg->kind == AggKind::kTableWide ? s.table_wide
                                              : s.per_row) = true;
        s.targets.push_back(std::move(t));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
    }

    PIP_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    while (true) {
      PIP_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
      s.names.push_back(std::move(name));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }

    if (Peek().Is("WHERE")) {
      Advance();
      PIP_ASSIGN_OR_RETURN(s.where, ParseWhere());
    }
    // Recognized SQL clauses beyond the supported subset get the
    // CAPABILITY category rather than a generic parse error.
    for (const char* clause :
         {"GROUP", "ORDER", "HAVING", "LIMIT", "UNION", "JOIN"}) {
      if (Peek().Is(clause)) return Capability(std::string(clause));
    }
    PIP_RETURN_IF_ERROR(ExpectStatementEnd());
    if (s.table_wide && (s.per_row || plain)) {
      return Error("cannot mix table-wide aggregates with per-row targets");
    }
    return s;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// Parses one statement. Lexer failures are parse errors too, whatever
/// internal category the tokenizer reported.
StatusOr<Statement> Parse(const std::string& text) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return Status::ParseError(tokens.status().message());
  return Parser(std::move(tokens).value()).ParseStatement();
}

/// A (metric, value) listing: SHOW INDEX and SHOW POOL.
StatusOr<SqlResult> MetricTable(
    std::initializer_list<std::pair<const char*, uint64_t>> rows) {
  Table table(Schema({"metric", "value"}));
  for (const auto& [metric, value] : rows) {
    PIP_RETURN_IF_ERROR(table.Append(
        {Value(std::string(metric)), Value(static_cast<double>(value))}));
  }
  return SqlResult::FromTable(std::move(table));
}

/// Runs parsed statements against one Database. Names resolve, and
/// constructors allocate their variables, only here, and only after the
/// statement's catalogue checks passed. `settings` are the session's live
/// settings, so SET persists; `admit` (may be empty) admits sampling
/// SELECTs.
class Executor {
 public:
  Executor(Database* db, SessionSettings* settings, AdmissionHook admit)
      : db_(db), settings_(settings), admit_(std::move(admit)) {}

  StatusOr<SqlResult> Run(Statement s) {
    switch (s.kind) {
      case Statement::Kind::kCreateTable:
        PIP_RETURN_IF_ERROR(
            db_->RegisterCTable(s.name, CTable(Schema(std::move(s.names)))));
        return SqlResult::Ack("CREATE TABLE " + s.name);
      case Statement::Kind::kCreateVariable:
        PIP_RETURN_IF_ERROR(db_->CreateNamedVariable(
            s.name, s.variable->column(), s.variable->params()).status());
        return SqlResult::Ack("CREATE VARIABLE " + s.name);
      case Statement::Kind::kInsert:
        return Insert(s);
      case Statement::Kind::kSelect:
        return Select(std::move(s));
      case Statement::Kind::kSet: {  // Through the knob registry.
        PIP_ASSIGN_OR_RETURN(const KnobDef* knob, FindKnob(s.name));
        PIP_RETURN_IF_ERROR(knob->set(settings_, s.value));
        return SqlResult::Ack("SET " + knob->name);
      }
      case Statement::Kind::kShow:
        return Show(s.name);
    }
    return Status::Internal("unknown statement kind");
  }

 private:
  /// `e` with its names resolved: a bare name that names a variable
  /// (CREATE VARIABLE) becomes that variable, and each Distribution leaf
  /// a fresh one, allocated leaf by leaf from left to right. Returns `e`
  /// itself when nothing in it changes.
  StatusOr<ColExprPtr> Resolve(const ColExprPtr& e) {
    if (e->kind() == CE::Kind::kDistribution) {
      PIP_ASSIGN_OR_RETURN(VarRef var,
                           db_->CreateVariable(e->column(), e->params()));
      return CE::Embed(Expr::Var(var));
    }
    if (e->kind() == CE::Kind::kColumn) {
      if (!db_->HasNamedVariable(e->column())) return e;
      PIP_ASSIGN_OR_RETURN(VarRef var, db_->GetNamedVariable(e->column()));
      return CE::Embed(Expr::Var(var));
    }
    if (e->children().empty()) return e;  // A literal or an embed.
    std::vector<ColExprPtr> kids;
    bool changed = false;
    for (const ColExprPtr& child : e->children()) {
      PIP_ASSIGN_OR_RETURN(ColExprPtr kid, Resolve(child));
      changed |= kid.get() != child.get();
      kids.push_back(std::move(kid));
    }
    if (!changed) return e;
    switch (e->kind()) {
      case CE::Kind::kAdd:
        return CE::Add(kids[0], kids[1]);
      case CE::Kind::kSub:
        return CE::Sub(kids[0], kids[1]);
      case CE::Kind::kMul:
        return CE::Mul(kids[0], kids[1]);
      case CE::Kind::kDiv:
        return CE::Div(kids[0], kids[1]);
      case CE::Kind::kNeg:
        return CE::Neg(kids[0]);
      default:
        return kids.size() == 1 ? CE::Func(e->func(), kids[0])
                                : CE::Func(e->func(), kids[0], kids[1]);
    }
  }

  StatusOr<SqlResult> Insert(const Statement& s) {
    PIP_ASSIGN_OR_RETURN(std::shared_ptr<const CTable> table,
                         db_->GetTable(s.name));
    // Nothing allocates until every bare name names a variable (values
    // reference no columns) and every row fits the table.
    for (const auto& row : s.rows) {
      for (const ColExprPtr& cell : row) {
        std::vector<std::string> names;
        cell->CollectColumns(&names);
        for (const std::string& name : names) {
          if (!db_->HasNamedVariable(name)) return Schema().IndexOf(name).status();
        }
      }
    }
    const Schema& schema = table->schema();
    for (const auto& row : s.rows) {
      if (row.size() != schema.size()) {
        return Status::InvalidArgument(
            "row arity " + std::to_string(row.size()) +
            " does not match schema " + schema.ToString());
      }
    }
    std::vector<CTableRow> rows(s.rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      rows[r].cells.reserve(s.rows[r].size());
      for (const ColExprPtr& cell : s.rows[r]) {
        PIP_ASSIGN_OR_RETURN(ColExprPtr resolved, Resolve(cell));
        ExprPtr bound = resolved->embedded();  // A literal's or an embed's.
        if (!bound) {
          PIP_ASSIGN_OR_RETURN(bound, resolved->Bind(Schema(), {}));
        }
        rows[r].cells.push_back(std::move(bound));
      }
    }
    // Atomic under the catalogue lock: concurrent INSERTs into one table
    // serialize instead of losing rows to a read-copy-update race.
    PIP_RETURN_IF_ERROR(db_->AppendRows(s.name, std::move(rows)));
    return SqlResult::Ack("INSERT " + std::to_string(s.rows.size()));
  }

  StatusOr<SqlResult> Select(Statement s) {
    // FROM: fetch each catalogue snapshot in FROM order (the first
    // missing table is the error) and fold them into one product, each
    // right-hand table's name prefixing its colliding columns. WHERE
    // reads a lone table's snapshot in place; without WHERE a lone table
    // is copied.
    PIP_ASSIGN_OR_RETURN(std::shared_ptr<const CTable> snapshot,
                         db_->GetTable(s.names[0]));
    const CTable* from = snapshot.get();
    CTable product;
    for (size_t i = 1; i < s.names.size(); ++i) {
      PIP_ASSIGN_OR_RETURN(std::shared_ptr<const CTable> rhs,
                           db_->GetTable(s.names[i]));
      PIP_ASSIGN_OR_RETURN(product, Product(*from, *rhs, s.names[i]));
      from = &product;
    }

    // Resolve the targets, then WHERE. A target's constructor is one
    // variable for the whole statement, shared by every row.
    std::vector<Target>& targets = s.targets;
    int anonymous_targets = 0;
    for (Target& t : targets) {
      if (t.expr != nullptr) {
        PIP_ASSIGN_OR_RETURN(t.expr, Resolve(t.expr));
      }
      if (!t.alias.empty()) continue;
      t.alias = t.expr->kind() == CE::Kind::kColumn
                    ? t.expr->column()
                    : "col" + std::to_string(++anonymous_targets);
    }
    ColPredicate predicate;
    for (const ColAtom& atom : s.where.atoms()) {
      PIP_ASSIGN_OR_RETURN(ColExprPtr lhs, Resolve(atom.lhs));
      PIP_ASSIGN_OR_RETURN(ColExprPtr rhs, Resolve(atom.rhs));
      predicate.And(std::move(lhs), atom.op, std::move(rhs));
    }

    CTable base;
    if (!predicate.empty()) {
      PIP_ASSIGN_OR_RETURN(base, pip::Select(*from, predicate));
    } else if (from == &product) {
      base = std::move(product);
    } else {
      base = *snapshot;
    }

    if (!s.MaySample()) {
      // Plain symbolic SELECT: nothing is drawn, so no engine and no
      // admission.
      if (s.select_star) {
        return SqlResult::FromCTable(std::move(base));
      }
      std::vector<NamedColExpr> cols;
      for (const auto& t : targets) cols.push_back({t.alias, t.expr});
      PIP_ASSIGN_OR_RETURN(CTable projected, Project(base, cols));
      return SqlResult::FromCTable(std::move(projected));
    }

    // Project each target's expression to its own column first. A
    // table-wide aggregate reads column agg<i>; per-row mode mixes
    // expectation(expr) / conf() with deterministic passthrough columns.
    std::vector<NamedColExpr> cols;
    AnalyzeSpec spec;
    spec.with_confidence = false;
    for (size_t i = 0; i < targets.size(); ++i) {
      const Target& t = targets[i];
      if (s.table_wide) {
        if (t.expr != nullptr) {
          cols.push_back({"agg" + std::to_string(i), t.expr});
        }
      } else if (t.agg != nullptr && t.agg->kind == AggKind::kConf) {
        spec.with_confidence = true;
      } else {
        cols.push_back({t.alias, t.expr});
        (t.agg != nullptr ? spec.expectation_columns
                          : spec.passthrough_columns)
            .push_back(t.alias);
      }
    }
    CTable projected = std::move(base);
    if (!cols.empty()) {
      // Conditions are preserved by Project; expected_count still works.
      PIP_ASSIGN_OR_RETURN(projected, Project(projected, cols));
    }

    // Plan before admit: triage every row's engine calls into exact, hit
    // or sampled (index_ops.h), then admit only the rows that will draw.
    // The hold lives until this statement returns.
    const SamplingOptions& options = settings_->sampling;
    SamplingEngine engine = db_->MakeEngine(options);
    auto admit = [&](size_t sampled_rows) -> StatusOr<std::shared_ptr<void>> {
      if (!admit_ || sampled_rows == 0) return std::shared_ptr<void>();
      return admit_(sampled_rows * PerRowDraws(options));
    };

    if (!s.table_wide) {
      PIP_ASSIGN_OR_RETURN(Prepared<Table> analyze,
                           PrepareAnalyze(projected, engine, spec));
      PIP_ASSIGN_OR_RETURN(std::shared_ptr<void> admitted,
                           admit(analyze.sampled_rows));
      PIP_ASSIGN_OR_RETURN(Table out, analyze.finish());
      return SqlResult::FromTable(std::move(out));
    }

    // Single-row deterministic aggregate result: every target is triaged
    // first, so the statement is admitted once for all of them.
    AggregateEvaluator agg(&engine);
    std::vector<Prepared<double>> prepared;
    size_t sampled_rows = 0;
    for (size_t i = 0; i < targets.size(); ++i) {
      PIP_ASSIGN_OR_RETURN(
          Prepared<double> p,
          agg.Prepare(targets[i].agg->aggregate, projected,
                      "agg" + std::to_string(i)));
      sampled_rows += p.sampled_rows;
      prepared.push_back(std::move(p));
    }
    PIP_ASSIGN_OR_RETURN(std::shared_ptr<void> admitted, admit(sampled_rows));
    std::vector<std::string> names;
    Row row;
    for (size_t i = 0; i < targets.size(); ++i) {
      names.push_back(targets[i].alias);
      PIP_ASSIGN_OR_RETURN(double value, prepared[i].finish());
      row.push_back(Value(value));
    }
    Table out(Schema(std::move(names)));
    PIP_RETURN_IF_ERROR(out.Append(std::move(row)));
    return SqlResult::FromTable(std::move(out));
  }

  /// SHOW <topic>: introspection listings, one deterministic table each.
  StatusOr<SqlResult> Show(const std::string& topic) {
    if (topic == "INDEX") {
      const ExpectationIndex::Stats stats = db_->result_index_stats();
      return MetricTable(
          {{"entries", stats.entries}, {"bytes", stats.bytes},
           {"memory_budget", stats.memory_budget}, {"hits", stats.hits},
           {"misses", stats.misses}, {"inserts", stats.inserts},
           {"evictions", stats.evictions},
           {"insert_failures", stats.insert_failures}});
    }
    if (topic == "POOL") {
      // Scheduler observability: the shared pool's counters (regions,
      // helper tasks, join waits; nested_tasks is always 0, one axis per
      // region), so saturation is measurable over the wire, not assumed.
      ThreadPool& pool = ThreadPool::Shared();
      const ThreadPool::SchedulerStats stats = pool.scheduler_stats();
      return MetricTable(
          {{"threads", pool.num_threads()}, {"regions", stats.regions},
           {"inline_regions", stats.inline_regions},
           {"worker_tasks", stats.worker_tasks},
           {"nested_tasks", stats.nested_tasks},
           {"join_waits", stats.join_waits},
           {"join_wait_micros", stats.join_wait_micros}});
    }
    Table table;
    if (topic == "DISTRIBUTIONS") {
      table = Table(Schema({"distribution"}));
      for (const std::string& name : DistributionRegistry::Global().Names()) {
        PIP_RETURN_IF_ERROR(table.Append({Value(name)}));
      }
    } else if (topic == "FAILPOINTS") {
      table = Table(Schema({"site", "action", "fires"}));
      for (const failpoints::SiteInfo& site : failpoints::ActiveSites()) {
        PIP_RETURN_IF_ERROR(
            table.Append({Value(site.site), Value(site.action),
                          Value(static_cast<double>(site.fires))}));
      }
    } else if (topic == "KNOBS") {
      table = Table(Schema({"knob", "value", "description"}));
      for (const KnobDef& knob : KnobRegistry()) {
        PIP_RETURN_IF_ERROR(table.Append({Value(knob.name),
                                          Value(knob.get(*settings_)),
                                          Value(knob.help)}));
      }
    } else if (topic == "TABLES") {
      table = Table(Schema({"table"}));
      for (const std::string& name : db_->TableNames()) {
        PIP_RETURN_IF_ERROR(table.Append({Value(name)}));
      }
    } else {  // VARIABLES
      table = Table(Schema({"variable", "distribution"}));
      for (const auto& [name, ref] : db_->NamedVariables()) {
        auto info = db_->pool()->Info(ref.var_id);
        PIP_RETURN_IF_ERROR(table.Append(
            {Value(name),
             Value(info.ok() ? info.value()->class_name : std::string("?"))}));
      }
    }
    return SqlResult::FromTable(std::move(table));
  }

  Database* db_;
  SessionSettings* settings_;
  AdmissionHook admit_;
};

}  // namespace

const char* WireErrorCodeName(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kNone:
      return "NONE";
    case WireErrorCode::kParse:
      return "PARSE";
    case WireErrorCode::kNotFound:
      return "NOT_FOUND";
    case WireErrorCode::kInvalidArg:
      return "INVALID_ARG";
    case WireErrorCode::kCapability:
      return "CAPABILITY";
    case WireErrorCode::kInternal:
      return "INTERNAL";
    case WireErrorCode::kTimeout:
      return "TIMEOUT";
    case WireErrorCode::kOverloaded:
      return "OVERLOADED";
  }
  return "INTERNAL";
}

StatusOr<WireErrorCode> WireErrorCodeFromName(const std::string& name) {
  for (WireErrorCode code :
       {WireErrorCode::kNone, WireErrorCode::kParse, WireErrorCode::kNotFound,
        WireErrorCode::kInvalidArg, WireErrorCode::kCapability,
        WireErrorCode::kInternal, WireErrorCode::kTimeout,
        WireErrorCode::kOverloaded}) {
    if (name == WireErrorCodeName(code)) return code;
  }
  return Status::NotFound("unknown wire error code '" + name + "'");
}

WireErrorCode WireErrorCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireErrorCode::kNone;
    case StatusCode::kParseError:
      return WireErrorCode::kParse;
    case StatusCode::kNotFound:
      return WireErrorCode::kNotFound;
    case StatusCode::kUnimplemented:
      return WireErrorCode::kCapability;
    case StatusCode::kInvalidArgument:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange:
    case StatusCode::kTypeMismatch:
    case StatusCode::kInconsistent:
      return WireErrorCode::kInvalidArg;
    case StatusCode::kTimeout:
      return WireErrorCode::kTimeout;
    case StatusCode::kOverloaded:
      return WireErrorCode::kOverloaded;
    case StatusCode::kInternal:
    // Cancelled never reaches a client on its own — a deadline-expired
    // cancellation is reclassified kTimeout by Session::Execute, a
    // disconnect cancellation has nobody left to respond to, and a
    // cancelled batch row is shadowed by the earlier row's real error —
    // so a surfaced one is an engine invariant violation.
    case StatusCode::kCancelled:
      return WireErrorCode::kInternal;
  }
  return WireErrorCode::kInternal;
}

const char* ColumnKindName(ColumnKind kind) {
  switch (kind) {
    case ColumnKind::kNull:
      return "null";
    case ColumnKind::kNumeric:
      return "num";
    case ColumnKind::kText:
      return "text";
    case ColumnKind::kBool:
      return "bool";
    case ColumnKind::kMixed:
      return "mixed";
    case ColumnKind::kSymbolic:
      return "sym";
  }
  return "mixed";
}

SqlResult SqlResult::Ack(std::string message) {
  SqlResult result;
  result.kind = Kind::kAck;
  result.message = std::move(message);
  return result;
}

SqlResult SqlResult::FromTable(Table t) {
  SqlResult result;
  result.kind = Kind::kTable;
  result.columns = ColumnsOf(t);
  result.table = std::move(t);
  return result;
}

SqlResult SqlResult::FromCTable(CTable t) {
  SqlResult result;
  result.kind = Kind::kCTable;
  result.columns = ColumnsOf(t);
  result.ctable = std::move(t);
  return result;
}

SqlResult SqlResult::FromStatus(const Status& status) {
  PIP_CHECK_MSG(!status.ok(), "error result from OK status");
  SqlResult result;
  result.kind = Kind::kError;
  result.error.code = WireErrorCodeFor(status);
  result.error.message = status.message();
  return result;
}

std::string SqlResult::ToString() const {
  switch (kind) {
    case Kind::kAck:
      return message;
    case Kind::kCTable:
      return ctable.ToString();
    case Kind::kTable:
      return table.ToString();
    case Kind::kError:
      return std::string("ERROR ") + WireErrorCodeName(error.code) + ": " +
             error.message;
  }
  return "";
}

bool StatementMaySample(const std::string& statement) {
  StatusOr<Statement> parsed = Parse(statement);
  return parsed.ok() && parsed->MaySample();
}

size_t EstimateSampleVolume(const Database& db, const std::string& statement,
                            const SamplingOptions& options) {
  StatusOr<Statement> parsed = Parse(statement);
  if (!parsed.ok() || !parsed->MaySample()) return 0;
  // Every FROM table contributes its current row count. Summing (rather
  // than multiplying cross joins) keeps the estimate cheap and stable; it
  // only has to rank statements against each other, not predict runtimes.
  size_t rows = 0;
  for (const std::string& name : parsed->names) {
    auto table = db.GetTable(name);
    if (table.ok()) rows += table.value()->rows().size();
  }
  return std::max<size_t>(rows, 1) * PerRowDraws(options);
}

SqlResult Session::Execute(const std::string& statement) {
  StatusOr<Statement> parsed = Parse(statement);
  if (!parsed.ok()) return SqlResult::FromStatus(parsed.status());
  // Statement envelope: compose the session's resident cancel hook with
  // the external one (the server's disconnect probe) and, when
  // STATEMENT_TIMEOUT_MS is set, a steady-clock deadline. The timeout
  // is read once at statement start, so a SET inside this statement
  // takes effect from the next statement on. Cancellation decides
  // whether the statement finishes, never what it computes: every chunk
  // that does fold is bit-identical to an uncancelled run.
  const uint64_t timeout_ms = settings_.envelope.statement_timeout_ms;
  const auto deadline = std::make_shared<Deadline>(timeout_ms);
  std::function<bool()>& cancel_check = settings_.sampling.cancel_check;
  const std::function<bool()> saved = cancel_check;
  const std::function<bool()> external = external_cancel_;
  if (external || deadline->armed()) {
    cancel_check = [saved, external, deadline] {
      if (saved && saved()) return true;
      if (external && external()) return true;
      return deadline->Expired();
    };
  }
  AdmissionHook admit;
  if (admission_) {
    admit = [this, deadline](size_t draws) -> StatusOr<std::shared_ptr<void>> {
      PIP_ASSIGN_OR_RETURN(std::shared_ptr<void> hold, admission_(draws));
      deadline->Restart();  // The deadline excludes the queue wait.
      return hold;
    };
  }
  auto result = Executor(db_, &settings_, std::move(admit))
                    .Run(std::move(parsed).value());
  cancel_check = saved;
  if (!result.ok()) {
    Status status = result.status();
    if (status.code() == StatusCode::kCancelled) {
      // The engine reports generic cancellation; the cause is only known
      // here. A disconnect outranks the deadline — there is no one left
      // to deliver ERR TIMEOUT to.
      if (external && external()) {
        status = Status::Cancelled("statement cancelled: client disconnected");
      } else if (deadline->Expired()) {
        status = Status::Timeout("statement exceeded STATEMENT_TIMEOUT_MS=" +
                                 std::to_string(timeout_ms));
      }
    }
    return SqlResult::FromStatus(status);
  }
  return std::move(result).value();
}

}  // namespace sql
}  // namespace pip
