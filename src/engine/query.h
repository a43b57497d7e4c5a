/// \file query.h
/// \brief Composable logical query plans over c-tables.
///
/// The fluent builder mirrors the deterministic-SQL illusion of §V-A: users
/// write filters and targets over columns without distinguishing constants
/// from random variables; the executor performs the paper's rewriting
/// automatically — decidable predicate atoms filter rows, probabilistic
/// atoms migrate into the row conditions (the CTYPE columns of the Postgres
/// implementation), and conditions are threaded through every operator.

#ifndef PIP_ENGINE_QUERY_H_
#define PIP_ENGINE_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ctable/algebra.h"
#include "src/engine/database.h"
#include "src/sampling/index_ops.h"

namespace pip {

/// \brief A lazily-executed relational query plan.
class Query {
 public:
  /// Leaf: scan a registered table by name.
  static Query Scan(std::string table_name);
  /// Leaf: inline c-table (e.g. freshly built data).
  static Query Values(CTable table);

  /// WHERE: conjunction of column-level comparisons. Probabilistic atoms
  /// become row conditions; deterministic atoms filter eagerly.
  Query Where(ColPredicate predicate) const;
  /// SELECT: generalized projection (targets may be arithmetic over
  /// columns and embedded random-variable equations).
  Query SelectCols(std::vector<NamedColExpr> targets) const;
  /// Cross product.
  Query CrossJoin(Query right, std::string rhs_prefix = "r") const;
  /// Theta join (product + where).
  Query JoinOn(Query right, ColPredicate predicate,
               std::string rhs_prefix = "r") const;
  /// Bag union.
  Query UnionAll(Query right) const;
  /// Duplicate coalescing (bag-encoded disjunction preserving).
  Query DistinctRows() const;
  /// Bag difference (Fig. 1 semantics).
  Query Except(Query right) const;
  /// Repair-key style explosion of finite discrete variables.
  Query Explode() const;

  /// Executes the plan against `db`, producing the symbolic result.
  StatusOr<CTable> Execute(const Database& db) const;

  /// Plan rendering for debugging/EXPLAIN.
  std::string ToString() const;

  /// Plan node; public for the executor, not for construction by users.
  struct Node;

 private:
  using NodePtr = std::shared_ptr<const Node>;

  explicit Query(NodePtr node) : node_(std::move(node)) {}

  NodePtr node_;
};

// ---------------------------------------------------------------------------
// Statistical result operators (the probability-removing functions).
// ---------------------------------------------------------------------------

/// \brief Per-row analysis of a probabilistic query result.
///
/// Maps each row of the c-table to deterministic outputs: the conditional
/// expectation of each requested column, plus (optionally) the row's
/// confidence. This is PIP's `expectation()` / `conf()` applied row-wise
/// (per-row sampling semantics, §IV-B).
struct AnalyzeSpec {
  /// Columns whose per-row conditional expectation is wanted.
  std::vector<std::string> expectation_columns;
  /// Emit a "conf" column with P[row condition].
  bool with_confidence = true;
  /// Columns to pass through verbatim (must be deterministic cells).
  std::vector<std::string> passthrough_columns;
};

/// Converts a c-table into a deterministic table per `spec`. Rows whose
/// condition is unsatisfiable are dropped (their confidence is 0).
/// Equivalent to PrepareAnalyze, then its `finish`.
StatusOr<Table> Analyze(const CTable& table, const SamplingEngine& engine,
                        const AnalyzeSpec& spec);

/// Analyze stopped at its admission point (index_ops.h): every row's
/// engine calls are triaged into exact, hit or sampled, and
/// `sampled_rows` counts the rows that will draw. The SQL session admits
/// that many rows between the two halves. `table` and `engine` must
/// outlive `finish`.
StatusOr<Prepared<Table>> PrepareAnalyze(const CTable& table,
                                         const SamplingEngine& engine,
                                         const AnalyzeSpec& spec);

/// aconf() over a whole table: groups rows by identical data cells and
/// computes the joint probability of each group's disjunction of
/// conditions. Output schema: data columns + "aconf".
StatusOr<Table> AnalyzeJointConfidence(const CTable& table,
                                       const SamplingEngine& engine);

}  // namespace pip

#endif  // PIP_ENGINE_QUERY_H_
