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

/// Function names with special meaning in target position.
enum class AggKind {
  kNone,
  kTableWide,    // expected_sum / _count / _avg / _max.
  kExpectation,  // Per-row.
  kConf,         // Per-row.
};

/// A target-position function name: its kind, and for table-wide
/// aggregates which one.
struct AggName {
  AggKind kind = AggKind::kNone;
  GroupAggregate aggregate = GroupAggregate::kExpectedSum;
};

AggName AggNameFromUpper(const std::string& upper) {
  if (upper == "EXPECTED_SUM") {
    return {AggKind::kTableWide, GroupAggregate::kExpectedSum};
  }
  if (upper == "EXPECTED_COUNT") {
    return {AggKind::kTableWide, GroupAggregate::kExpectedCount};
  }
  if (upper == "EXPECTED_AVG") {
    return {AggKind::kTableWide, GroupAggregate::kExpectedAvg};
  }
  if (upper == "EXPECTED_MAX") {
    return {AggKind::kTableWide, GroupAggregate::kExpectedMax};
  }
  if (upper == "EXPECTATION") return {AggKind::kExpectation};
  if (upper == "CONF") return {AggKind::kConf};
  return {};
}

std::string ToUpper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
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

/// Scalar functions usable inside expressions.
std::optional<FuncKind> ScalarFunc(const std::string& upper) {
  if (upper == "EXP") return FuncKind::kExp;
  if (upper == "LOG") return FuncKind::kLog;
  if (upper == "SQRT") return FuncKind::kSqrt;
  if (upper == "ABS") return FuncKind::kAbs;
  if (upper == "MIN") return FuncKind::kMin;
  if (upper == "MAX") return FuncKind::kMax;
  if (upper == "POW") return FuncKind::kPow;
  return std::nullopt;
}

/// Column-kind classification of one deterministic value.
ColumnKind KindOfValue(const Value& v) {
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

std::vector<SqlColumn> ColumnsOf(const Table& t) {
  std::vector<SqlColumn> cols(t.schema().size());
  for (size_t c = 0; c < cols.size(); ++c) {
    cols[c].name = t.schema().name(c);
    for (const Row& row : t.rows()) {
      cols[c].kind = MergeKind(cols[c].kind, KindOfValue(row[c]));
    }
  }
  return cols;
}

std::vector<SqlColumn> ColumnsOf(const CTable& t) {
  std::vector<SqlColumn> cols(t.schema().size());
  for (size_t c = 0; c < cols.size(); ++c) {
    cols[c].name = t.schema().name(c);
    for (const CTableRow& row : t.rows()) {
      cols[c].kind = MergeKind(cols[c].kind,
                               row.cells[c]->IsConstant()
                                   ? KindOfValue(row.cells[c]->value())
                                   : ColumnKind::kSymbolic);
    }
  }
  return cols;
}

struct Target {
  AggName agg;
  ColExprPtr expr;  // Null for expected_count(*) / conf().
  std::string alias;
};

/// Recursive-descent parser for one statement.
class Parser {
 public:
  /// `settings` points at the session's live settings so SET persists
  /// across statements; `admit` (may be empty) admits sampling SELECTs.
  Parser(std::vector<Token> tokens, Database* db, SessionSettings* settings,
         AdmissionHook admit)
      : tokens_(std::move(tokens)),
        db_(db),
        settings_(settings),
        admit_(std::move(admit)) {}

  StatusOr<SqlResult> ParseStatement() {
    if (Peek().Is("CREATE")) return ParseCreate();
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

  Status ExpectKeyword(const std::string& upper) {
    if (!Peek().Is(upper)) return Error("expected " + upper);
    Advance();
    return Status::OK();
  }
  Status ExpectSymbol(const std::string& s) {
    if (!Peek().IsSymbol(s)) return Error("expected '" + s + "'");
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
      std::string name = Advance().text;
      if (Peek().IsSymbol("(")) return ParseCall(name);
      // Dotted column reference (table.column).
      if (Peek().IsSymbol(".")) {
        Advance();
        PIP_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        return CE::Column(name + "." + col);
      }
      // Named variables (CREATE VARIABLE) resolve before columns.
      if (db_->HasNamedVariable(name)) {
        PIP_ASSIGN_OR_RETURN(VarRef var, db_->GetNamedVariable(name));
        return CE::Embed(Expr::Var(var));
      }
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

  /// Evaluates distribution-constructor arguments to numeric constants,
  /// validating the class name against the registry first.
  StatusOr<std::vector<double>> ConstParams(
      const std::string& name, const std::vector<ColExprPtr>& args) {
    auto dist = DistributionRegistry::Global().Lookup(name);
    if (!dist.ok()) {
      return Error("unknown function or distribution '" + name + "'");
    }
    std::vector<double> params;
    params.reserve(args.size());
    for (const auto& arg : args) {
      PIP_ASSIGN_OR_RETURN(ExprPtr bound, arg->Bind(Schema(), {}));
      if (!bound->IsConstant()) {
        return Error("distribution parameters must be constants");
      }
      PIP_ASSIGN_OR_RETURN(double v, bound->value().AsDouble());
      params.push_back(v);
    }
    return params;
  }

  /// A call in expression position: a scalar function or a distribution
  /// constructor. Distribution constructors require constant arguments and
  /// allocate one fresh random variable per syntactic occurrence — the
  /// paper's CREATE_VARIABLE inlined into values/targets.
  StatusOr<ColExprPtr> ParseCall(const std::string& name) {
    PIP_ASSIGN_OR_RETURN(std::vector<ColExprPtr> args, ParseArgList());
    std::string upper = ToUpper(name);
    if (auto func = ScalarFunc(upper)) {
      size_t expected = (upper == "MIN" || upper == "MAX" || upper == "POW")
                            ? 2
                            : 1;
      if (args.size() != expected) {
        return Error(name + " expects " + std::to_string(expected) +
                     " argument(s)");
      }
      return expected == 1 ? CE::Func(*func, args[0])
                           : CE::Func(*func, args[0], args[1]);
    }
    PIP_ASSIGN_OR_RETURN(std::vector<double> params, ConstParams(name, args));
    PIP_ASSIGN_OR_RETURN(VarRef var,
                         db_->CreateVariable(name, std::move(params)));
    return CE::Embed(Expr::Var(var));
  }

  StatusOr<CmpOp> ParseCmpOp() {
    const Token& t = Peek();
    if (t.IsSymbol("<")) {
      Advance();
      return CmpOp::kLt;
    }
    if (t.IsSymbol("<=")) {
      Advance();
      return CmpOp::kLe;
    }
    if (t.IsSymbol(">")) {
      Advance();
      return CmpOp::kGt;
    }
    if (t.IsSymbol(">=")) {
      Advance();
      return CmpOp::kGe;
    }
    if (t.IsSymbol("=")) {
      Advance();
      return CmpOp::kEq;
    }
    if (t.IsSymbol("<>") || t.IsSymbol("!=")) {
      Advance();
      return CmpOp::kNe;
    }
    return Error("expected comparison operator");
  }

  StatusOr<ColPredicate> ParseWhere() {
    ColPredicate pred;
    while (true) {
      PIP_ASSIGN_OR_RETURN(ColExprPtr lhs, ParseExpr());
      PIP_ASSIGN_OR_RETURN(CmpOp op, ParseCmpOp());
      PIP_ASSIGN_OR_RETURN(ColExprPtr rhs, ParseExpr());
      pred.And(std::move(lhs), op, std::move(rhs));
      if (!Peek().Is("AND")) break;
      Advance();
    }
    return pred;
  }

  // -- Statements ---------------------------------------------------------

  /// SET knob = value: tunes the session's sampling options through the
  /// declarative knob registry (the paper's engine knobs surfaced at the
  /// SQL layer, PostgreSQL-GUC style).
  StatusOr<SqlResult> ParseSet() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("SET"));
    PIP_ASSIGN_OR_RETURN(std::string knob, ExpectIdent());
    PIP_RETURN_IF_ERROR(ExpectSymbol("="));
    bool negative = false;
    if (Peek().IsSymbol("-")) {
      Advance();
      negative = true;
    }
    if (Peek().kind != TokenKind::kNumber) return Error("expected a number");
    double value = Advance().number;
    if (negative) value = -value;
    PIP_RETURN_IF_ERROR(ExpectStatementEnd());
    PIP_RETURN_IF_ERROR(SetKnob(settings_, knob, value));
    return SqlResult::Ack("SET " + ToUpper(knob));
  }

  /// SHOW <topic>: introspection listings, one deterministic table each.
  StatusOr<SqlResult> ParseShow() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("SHOW"));
    if (Peek().Is("DISTRIBUTIONS")) {
      Advance();
      PIP_RETURN_IF_ERROR(ExpectStatementEnd());
      Table table(Schema({"distribution"}));
      for (const std::string& name : DistributionRegistry::Global().Names()) {
        PIP_RETURN_IF_ERROR(table.Append({Value(name)}));
      }
      return SqlResult::FromTable(std::move(table));
    }
    if (Peek().Is("FAILPOINTS")) {
      Advance();
      PIP_RETURN_IF_ERROR(ExpectStatementEnd());
      Table table(Schema({"site", "action", "fires"}));
      for (const failpoints::SiteInfo& site : failpoints::ActiveSites()) {
        PIP_RETURN_IF_ERROR(
            table.Append({Value(site.site), Value(site.action),
                          Value(static_cast<double>(site.fires))}));
      }
      return SqlResult::FromTable(std::move(table));
    }
    if (Peek().Is("KNOBS")) {
      Advance();
      PIP_RETURN_IF_ERROR(ExpectStatementEnd());
      Table table(Schema({"knob", "value", "description"}));
      for (const KnobDef& knob : KnobRegistry()) {
        PIP_RETURN_IF_ERROR(table.Append({Value(knob.name),
                                          Value(knob.get(*settings_)),
                                          Value(knob.help)}));
      }
      return SqlResult::FromTable(std::move(table));
    }
    if (Peek().Is("INDEX")) {
      Advance();
      PIP_RETURN_IF_ERROR(ExpectStatementEnd());
      const ExpectationIndex::Stats stats = db_->result_index_stats();
      Table table(Schema({"metric", "value"}));
      const std::pair<const char*, uint64_t> rows[] = {
          {"entries", stats.entries},
          {"bytes", stats.bytes},
          {"memory_budget", stats.memory_budget},
          {"hits", stats.hits},
          {"misses", stats.misses},
          {"inserts", stats.inserts},
          {"evictions", stats.evictions},
          {"insert_failures", stats.insert_failures},
      };
      for (const auto& [metric, value] : rows) {
        PIP_RETURN_IF_ERROR(table.Append(
            {Value(std::string(metric)), Value(static_cast<double>(value))}));
      }
      return SqlResult::FromTable(std::move(table));
    }
    if (Peek().Is("POOL")) {
      Advance();
      PIP_RETURN_IF_ERROR(ExpectStatementEnd());
      // Scheduler observability: the shared pool's counters (regions,
      // helper tasks, join waits; nested_tasks is always 0, one axis per
      // region), so saturation is measurable over the wire, not assumed.
      ThreadPool& pool = ThreadPool::Shared();
      const ThreadPool::SchedulerStats stats = pool.scheduler_stats();
      Table table(Schema({"metric", "value"}));
      const std::pair<const char*, uint64_t> rows[] = {
          {"threads", pool.num_threads()},
          {"regions", stats.regions},
          {"inline_regions", stats.inline_regions},
          {"worker_tasks", stats.worker_tasks},
          {"nested_tasks", stats.nested_tasks},
          {"join_waits", stats.join_waits},
          {"join_wait_micros", stats.join_wait_micros},
      };
      for (const auto& [metric, value] : rows) {
        PIP_RETURN_IF_ERROR(table.Append(
            {Value(std::string(metric)), Value(static_cast<double>(value))}));
      }
      return SqlResult::FromTable(std::move(table));
    }
    if (Peek().Is("TABLES")) {
      Advance();
      PIP_RETURN_IF_ERROR(ExpectStatementEnd());
      Table table(Schema({"table"}));
      for (const std::string& name : db_->TableNames()) {
        PIP_RETURN_IF_ERROR(table.Append({Value(name)}));
      }
      return SqlResult::FromTable(std::move(table));
    }
    if (Peek().Is("VARIABLES")) {
      Advance();
      PIP_RETURN_IF_ERROR(ExpectStatementEnd());
      Table table(Schema({"variable", "distribution"}));
      for (const auto& [name, ref] : db_->NamedVariables()) {
        auto info = db_->pool()->Info(ref.var_id);
        PIP_RETURN_IF_ERROR(table.Append(
            {Value(name),
             Value(info.ok() ? info.value()->class_name : std::string("?"))}));
      }
      return SqlResult::FromTable(std::move(table));
    }
    return Error(
        "expected DISTRIBUTIONS, FAILPOINTS, INDEX, KNOBS, POOL, TABLES or "
        "VARIABLES");
  }

  StatusOr<SqlResult> ParseCreate() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    if (Peek().Is("VARIABLE")) return ParseCreateVariable();
    return ParseCreateTable();
  }

  StatusOr<SqlResult> ParseCreateTable() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    PIP_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    PIP_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<std::string> columns;
    while (true) {
      PIP_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      columns.push_back(std::move(col));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    PIP_RETURN_IF_ERROR(ExpectSymbol(")"));
    PIP_RETURN_IF_ERROR(ExpectStatementEnd());
    PIP_RETURN_IF_ERROR(
        db_->RegisterCTable(name, CTable(Schema(std::move(columns)))));
    return SqlResult::Ack("CREATE TABLE " + name);
  }

  /// CREATE VARIABLE name AS Dist(params): the paper's named
  /// CREATE_VARIABLE (§V-A). The variable lives in the Database and is
  /// usable by name in any later INSERT/SELECT expression of any
  /// session.
  StatusOr<SqlResult> ParseCreateVariable() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("VARIABLE"));
    PIP_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    PIP_RETURN_IF_ERROR(ExpectKeyword("AS"));
    PIP_ASSIGN_OR_RETURN(std::string class_name, ExpectIdent());
    if (!Peek().IsSymbol("(")) return Error("expected '('");
    if (ScalarFunc(ToUpper(class_name))) {
      return Error("'" + class_name + "' is not a distribution");
    }
    PIP_ASSIGN_OR_RETURN(std::vector<ColExprPtr> args, ParseArgList());
    PIP_ASSIGN_OR_RETURN(std::vector<double> params,
                         ConstParams(class_name, args));
    PIP_RETURN_IF_ERROR(ExpectStatementEnd());
    PIP_RETURN_IF_ERROR(
        db_->CreateNamedVariable(name, class_name, std::move(params))
            .status());
    return SqlResult::Ack("CREATE VARIABLE " + name);
  }

  StatusOr<SqlResult> ParseInsert() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    PIP_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    PIP_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    PIP_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    if (!db_->HasTable(name)) {
      return Status::NotFound("no table named '" + name + "'");
    }

    std::vector<CTableRow> rows;
    while (true) {
      PIP_RETURN_IF_ERROR(ExpectSymbol("("));
      CTableRow row;
      while (true) {
        PIP_ASSIGN_OR_RETURN(ColExprPtr expr, ParseExpr());
        // INSERT expressions cannot reference columns.
        PIP_ASSIGN_OR_RETURN(ExprPtr bound, expr->Bind(Schema(), {}));
        row.cells.push_back(std::move(bound));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
      PIP_RETURN_IF_ERROR(ExpectSymbol(")"));
      rows.push_back(std::move(row));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    PIP_RETURN_IF_ERROR(ExpectStatementEnd());
    size_t inserted = rows.size();
    // Atomic under the catalogue lock: concurrent INSERTs into one table
    // serialize instead of losing rows to a read-copy-update race.
    PIP_RETURN_IF_ERROR(db_->AppendRows(name, std::move(rows)));
    return SqlResult::Ack("INSERT " + std::to_string(inserted));
  }

  StatusOr<Target> ParseTarget() {
    Target target;
    // Aggregate / per-row operator heads.
    if (Peek().kind == TokenKind::kIdent && Peek(1).IsSymbol("(")) {
      AggName agg = AggNameFromUpper(ToUpper(Peek().text));
      if (agg.kind != AggKind::kNone) {
        target.agg = agg;
        target.alias = ToUpper(Peek().text);
        Advance();
        Advance();  // '('
        if (Peek().IsSymbol("*")) {
          if (agg.kind != AggKind::kTableWide ||
              agg.aggregate != GroupAggregate::kExpectedCount) {
            return Error("'*' argument only valid for expected_count");
          }
          Advance();
        } else if (!Peek().IsSymbol(")")) {
          PIP_ASSIGN_OR_RETURN(target.expr, ParseExpr());
        }
        PIP_RETURN_IF_ERROR(ExpectSymbol(")"));
        if (Peek().Is("AS")) {
          Advance();
          PIP_ASSIGN_OR_RETURN(target.alias, ExpectIdent());
        }
        return target;
      }
    }
    PIP_ASSIGN_OR_RETURN(target.expr, ParseExpr());
    if (Peek().Is("AS")) {
      Advance();
      PIP_ASSIGN_OR_RETURN(target.alias, ExpectIdent());
    } else if (target.expr->kind() == CE::Kind::kColumn) {
      target.alias = target.expr->column();
    } else {
      target.alias = "col" + std::to_string(++anonymous_targets_);
    }
    return target;
  }

  StatusOr<SqlResult> ParseSelect() {
    PIP_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    if (Peek().Is("DISTINCT")) return Capability("SELECT DISTINCT");
    std::vector<Target> targets;
    bool select_star = false;
    if (Peek().IsSymbol("*")) {
      Advance();
      select_star = true;
    } else {
      while (true) {
        PIP_ASSIGN_OR_RETURN(Target t, ParseTarget());
        targets.push_back(std::move(t));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
    }

    PIP_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    std::vector<std::string> tables;
    while (true) {
      PIP_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
      tables.push_back(std::move(name));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }

    ColPredicate predicate;
    if (Peek().Is("WHERE")) {
      Advance();
      PIP_ASSIGN_OR_RETURN(predicate, ParseWhere());
    }
    // Recognized SQL clauses beyond the supported subset get the
    // CAPABILITY category rather than a generic parse error.
    for (const char* clause :
         {"GROUP", "ORDER", "HAVING", "LIMIT", "UNION", "JOIN"}) {
      if (Peek().Is(clause)) return Capability(std::string(clause));
    }
    PIP_RETURN_IF_ERROR(ExpectStatementEnd());

    // FROM: fetch each catalogue snapshot in FROM order (the first
    // missing table is the error) and fold them into one product, each
    // right-hand table's name prefixing its colliding columns. WHERE
    // reads a lone table's snapshot in place; without WHERE a lone table
    // is copied.
    PIP_ASSIGN_OR_RETURN(std::shared_ptr<const CTable> snapshot,
                         db_->GetTable(tables[0]));
    const CTable* from = snapshot.get();
    CTable product;
    for (size_t i = 1; i < tables.size(); ++i) {
      PIP_ASSIGN_OR_RETURN(std::shared_ptr<const CTable> rhs,
                           db_->GetTable(tables[i]));
      PIP_ASSIGN_OR_RETURN(product, Product(*from, *rhs, tables[i]));
      from = &product;
    }
    CTable base;
    if (!predicate.empty()) {
      PIP_ASSIGN_OR_RETURN(base, Select(*from, predicate));
    } else if (from == &product) {
      base = std::move(product);
    } else {
      base = *snapshot;
    }

    // Classify the target list.
    bool any_table_wide = false, any_per_row = false, any_plain = false;
    for (const auto& t : targets) {
      if (t.agg.kind == AggKind::kTableWide) {
        any_table_wide = true;
      } else if (t.agg.kind != AggKind::kNone) {
        any_per_row = true;
      } else {
        any_plain = true;
      }
    }
    if (any_table_wide && (any_per_row || any_plain)) {
      return Error(
          "cannot mix table-wide aggregates with per-row targets");
    }

    if (select_star || (!any_table_wide && !any_per_row)) {
      // Plain symbolic SELECT: nothing is drawn, so no engine and no
      // admission.
      if (select_star) {
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
      if (any_table_wide) {
        if (t.expr != nullptr) {
          cols.push_back({"agg" + std::to_string(i), t.expr});
        }
      } else if (t.agg.kind == AggKind::kConf) {
        spec.with_confidence = true;
      } else {
        cols.push_back({t.alias, t.expr});
        (t.agg.kind == AggKind::kExpectation ? spec.expectation_columns
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

    if (!any_table_wide) {
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
          agg.Prepare(targets[i].agg.aggregate, projected,
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

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Database* db_;
  SessionSettings* settings_;
  AdmissionHook admit_;
  int anonymous_targets_ = 0;
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
  auto tokens = Tokenize(statement);
  if (!tokens.ok()) return false;
  const std::vector<Token>& ts = tokens.value();
  for (size_t i = 0; i + 1 < ts.size(); ++i) {
    if (ts[i].kind != TokenKind::kIdent || !ts[i + 1].IsSymbol("(")) continue;
    std::string upper = ToUpper(ts[i].text);
    if (AggNameFromUpper(upper).kind != AggKind::kNone || upper == "ACONF") {
      return true;
    }
  }
  return false;
}

size_t EstimateSampleVolume(const Database& db, const std::string& statement,
                            const SamplingOptions& options) {
  if (!StatementMaySample(statement)) return 0;
  auto tokens = Tokenize(statement);
  if (!tokens.ok()) return 0;
  const std::vector<Token>& ts = tokens.value();
  // Lexical FROM scan: every table named after a FROM contributes its
  // current row count. Summing (rather than multiplying cross joins)
  // keeps the estimate cheap and stable; it only has to rank statements
  // against each other, not predict runtimes.
  size_t rows = 0;
  for (size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].kind != TokenKind::kIdent || ToUpper(ts[i].text) != "FROM") {
      continue;
    }
    size_t j = i + 1;
    while (j < ts.size() && ts[j].kind == TokenKind::kIdent) {
      auto table = db.GetTable(ts[j].text);
      if (table.ok()) rows += table.value()->rows().size();
      if (j + 1 < ts.size() && ts[j + 1].IsSymbol(",")) {
        j += 2;
      } else {
        break;
      }
    }
    i = j;
  }
  if (rows == 0) rows = 1;
  return rows * PerRowDraws(options);
}

SqlResult Session::Execute(const std::string& statement) {
  auto tokens = Tokenize(statement);
  if (!tokens.ok()) {
    // Lexer failures are parse errors on the wire, whatever internal
    // category the tokenizer reported.
    return SqlResult::FromStatus(
        Status::ParseError(tokens.status().message()));
  }
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
    const std::function<bool()> prior = saved;
    cancel_check = [prior, external, deadline] {
      if (prior && prior()) return true;
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
  Parser parser(std::move(tokens).value(), db_, &settings_, std::move(admit));
  auto result = parser.ParseStatement();
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
