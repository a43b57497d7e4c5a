/// \file session.h
/// \brief A SQL front-end for PIP, mirroring the paper's §V interface.
///
/// The paper exposes PIP through extended PostgreSQL SQL: CREATE VARIABLE
/// allocates random variables, overloaded operators let them mix freely
/// with constants in targets and WHERE clauses, and probability-removing
/// functions (expectation, conf, expected_sum, ...) terminate the symbolic
/// phase. This module provides the same surface on the in-memory engine:
///
///   CREATE TABLE orders (cust, ship_to, price);
///   INSERT INTO orders VALUES ('Joe', 'NY', Normal(120, 20));
///   SELECT price FROM orders WHERE cust = 'Joe';          -- c-table out
///   SELECT expected_sum(price), conf() FROM orders
///     WHERE ship_days >= 7;                               -- deterministic
///
/// Distribution constructors (any registered class name used as a function
/// in an INSERT or SELECT expression) allocate one fresh variable per
/// occurrence, when the statement runs — the paper's CREATE_VARIABLE
/// inlined into expressions. A SELECT target's variable is shared by every
/// row. The explicit named form is also supported:
///
///   CREATE VARIABLE demand AS Poisson(140);
///   INSERT INTO products VALUES ('widget', 19.99, demand * 2);
///
/// Named variables are session-independent (they live in the Database)
/// and resolve before column names in expressions. Supported statements:
///
///   CREATE TABLE name (col [, col]*)
///   CREATE VARIABLE name AS Dist(params)
///   INSERT INTO name VALUES (expr, ...) [, (expr, ...)]*
///   SELECT targets FROM name [, name]* [WHERE conjunction]
///   SET knob = value        -- session sampling knobs (see knobs.h)
///   SHOW DISTRIBUTIONS | FAILPOINTS | INDEX | KNOBS | POOL | TABLES
///     | VARIABLES
///
/// SET tunes the session's SamplingOptions and statement envelope
/// (STATEMENT_TIMEOUT_MS, ADMISSION_TIMEOUT_MS) through the declarative knob
/// registry (src/sql/knobs.h) — the same registry behind `SHOW KNOBS`
/// and the pip-server `--set NAME=VALUE` startup flags. New sessions
/// inherit the database's default_options(), so deployments can pin e.g.
/// a thread budget once at the Database level. NUM_THREADS caps both
/// parallel axes at once (see README "Threading model").
///
/// Targets: expressions with optional `AS alias`, or the aggregates
/// expected_sum(expr) / expected_count(*) / expected_avg(expr) /
/// expected_max(expr) / expectation(expr) / conf(). A SELECT containing an
/// aggregate returns a single-row deterministic Table; `expectation` and
/// `conf` are per-row operators returning one deterministic row per input
/// row; a plain SELECT returns the symbolic CTable.
///
/// Execute() parses a statement whole before running it: parse errors (a
/// constructor's bad parameters among them) come before catalogue errors,
/// and nothing allocates until the tables exist (and an INSERT's names
/// and row widths check out). Names then resolve left to right: SELECT
/// targets, then WHERE; INSERT rows in order. The SqlResult is a tagged,
/// wire-ready response; on error it carries a machine-readable
/// WireErrorCode plus the message, so clients never parse prose.

#ifndef PIP_SQL_SESSION_H_
#define PIP_SQL_SESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/query.h"
#include "src/sampling/aggregates.h"
#include "src/sql/knobs.h"

namespace pip {
namespace sql {

/// \brief Stable machine-readable error categories of the client API.
///
/// This is the error surface clients program against; the server wire
/// codec and SqlResult::ToString() render exactly these names. Status
/// categories map onto it via WireErrorCodeFor.
enum class WireErrorCode {
  kNone = 0,    ///< Not an error.
  kParse,       ///< Statement text rejected by the parser.
  kNotFound,    ///< Named entity (table, variable, knob, column) missing.
  kInvalidArg,  ///< Well-formed statement with invalid content.
  kCapability,  ///< Recognized construct the engine does not support.
  kInternal,    ///< Engine-side invariant failure.
  kTimeout,     ///< Statement deadline (STATEMENT_TIMEOUT_MS) expired.
  kOverloaded,  ///< Admission control shed the statement; retry later
                ///< (with backoff) — nothing about the statement itself
                ///< is wrong, so this is distinct from INTERNAL.
};

/// Wire name, e.g. "PARSE", "NOT_FOUND". Stable across releases.
const char* WireErrorCodeName(WireErrorCode code);

/// Inverse of WireErrorCodeName; NotFound for unknown names.
StatusOr<WireErrorCode> WireErrorCodeFromName(const std::string& name);

/// Collapses a Status into the wire error category.
WireErrorCode WireErrorCodeFor(const Status& status);

/// \brief Column kind tags in result metadata.
enum class ColumnKind {
  kNull = 0,  ///< All cells NULL (or no rows).
  kNumeric,   ///< Int/double cells.
  kText,      ///< String cells.
  kBool,      ///< Boolean cells.
  kMixed,     ///< Heterogeneous deterministic cells.
  kSymbolic,  ///< At least one probabilistic (equation) cell.
};

const char* ColumnKindName(ColumnKind kind);

/// \brief One column of a result: name plus kind tag.
struct SqlColumn {
  std::string name;
  ColumnKind kind = ColumnKind::kNull;
};

/// \brief Machine-readable error payload of a failed statement.
struct SqlError {
  WireErrorCode code = WireErrorCode::kNone;
  std::string message;
};

/// \brief Wire-ready result of executing one statement.
///
/// A tagged union: acknowledgement (DDL/DML), deterministic table,
/// symbolic c-table, or error. Table-shaped results carry structured
/// column metadata so clients can consume them without sniffing cells.
struct SqlResult {
  enum class Kind {
    kAck,       ///< DDL/DML acknowledgement (see `message`).
    kTable,     ///< Deterministic (probability-removed) result.
    kCTable,    ///< Symbolic query result.
    kError,     ///< Failed statement (see `error`).
  };
  Kind kind = Kind::kAck;
  std::string message;              ///< Ack text, e.g. "INSERT 3".
  std::vector<SqlColumn> columns;   ///< Metadata for kTable/kCTable.
  Table table;
  CTable ctable;
  SqlError error;

  bool ok() const { return kind != Kind::kError; }

  static SqlResult Ack(std::string message);
  static SqlResult FromTable(Table t);
  static SqlResult FromCTable(CTable t);
  /// Error result from a non-OK status.
  static SqlResult FromStatus(const Status& status);

  /// Human rendering; errors render "ERROR <CODE>: <message>" using the
  /// same WireErrorCodeName the server codec emits.
  std::string ToString() const;
};

/// True when `statement` parses as a SELECT with a probability-removing
/// target (expected_*, expectation, conf) and so may run Monte Carlo
/// sampling; false for anything else, text that does not parse included.
/// Parsing touches no Database. The server admits through
/// Session::set_admission instead; pipbench's replay times this.
bool StatementMaySample(const std::string& statement);

/// Estimated Monte Carlo draws of `statement` on `db`'s catalogue: the row
/// counts of its FROM tables (at least 1) x the per-row draws of `options`
/// (fixed_samples when pinned, else min_samples); 0 unless
/// StatementMaySample. It ignores WHERE, so it overestimates selective
/// statements; the server weighs the rows that will draw instead.
size_t EstimateSampleVolume(const Database& db, const std::string& statement,
                            const SamplingOptions& options);

/// Admission hook of a Session (see Session::set_admission). Receives the
/// statement's Monte Carlo draw volume and returns an opaque hold that
/// the session keeps until the statement returns, or the status that
/// fails the statement instead.
using AdmissionHook =
    std::function<StatusOr<std::shared_ptr<void>>(size_t draws)>;

/// \brief Stateful SQL session against one Database.
///
/// Sessions are cheap; the server creates one per connection. Each
/// session owns private SessionSettings (sampling options seeded from the
/// database defaults, plus the statement envelope) so SET is
/// connection-local, while data, named variables, the thread pool, and
/// the plan cache are shared through the Database.
///
/// A SELECT's symbolic phase calls the c-table algebra (algebra.h)
/// directly. The session holds the catalogue snapshots
/// (Database::GetTable) while the statement runs: FROM folds them into
/// one Product in FROM order, WHERE is one Select (over a lone table's
/// snapshot in place), and the targets are one Project. The result
/// operators of query.h then remove the probability.
class Session {
 public:
  /// Inherits the database's default sampling options and an envelope
  /// with no timeouts.
  explicit Session(Database* db)
      : db_(db), settings_{db->default_options(), {}} {}
  Session(Database* db, SessionSettings settings)
      : db_(db), settings_(std::move(settings)) {}

  /// Parses and executes one statement (trailing ';' optional). Always
  /// returns a result; failures are tagged Kind::kError.
  SqlResult Execute(const std::string& statement);

  /// Installs a statement-independent cancellation hook — the server
  /// wires its peer-liveness probe here so an abandoned statement stops
  /// at the next chunk barrier. Execute composes it (with the
  /// STATEMENT_TIMEOUT_MS deadline) into the sampling cancel_check for
  /// every statement. May be polled from sampling worker threads, so the
  /// hook must be thread-safe; pass an empty function to clear.
  void set_external_cancel(std::function<bool()> cancel) {
    external_cancel_ = std::move(cancel);
  }

  /// Installs admission control — the server wires its AdmissionGate
  /// here. Execute calls the hook at most once per SELECT, after the
  /// symbolic phase produced the rows that survive WHERE and their engine
  /// calls were triaged (index_ops.h), and before the first draw. The
  /// draw volume it passes is the rows that will sample x per-row draws
  /// (FIXED_SAMPLES when pinned, else MIN_SAMPLES). Rows answered in
  /// closed form or from the expectation index weigh nothing, so a
  /// statement without a sampled row never calls it; neither do
  /// symbolic SELECTs, DDL and DML. STATEMENT_TIMEOUT_MS restarts when
  /// the hook returns, so the deadline bounds execution, not the queue
  /// wait. Runs on the thread calling Execute; pass an empty function to
  /// clear.
  void set_admission(AdmissionHook hook) { admission_ = std::move(hook); }

  SamplingOptions* mutable_options() { return &settings_.sampling; }
  /// The statement envelope (STATEMENT_TIMEOUT_MS, ADMISSION_TIMEOUT_MS).
  const StatementEnvelope& envelope() const { return settings_.envelope; }
  Database* database() { return db_; }

 private:
  Database* db_;
  SessionSettings settings_;
  std::function<bool()> external_cancel_;
  AdmissionHook admission_;
};

}  // namespace sql
}  // namespace pip

#endif  // PIP_SQL_SESSION_H_
