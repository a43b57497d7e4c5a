/// \file query.h
/// \brief The result operators that end a query: per-row expectation and
/// confidence (Analyze) and aconf() over bag-encoded disjunctions.
///
/// A query runs in two phases. The symbolic phase is the c-table
/// algebra of Fig. 1 (src/ctable/algebra.h), called directly on catalogue
/// snapshots (Database::GetTable): decidable predicate atoms filter rows,
/// probabilistic atoms migrate into the row conditions (the CTYPE columns
/// of the Postgres implementation), and conditions are threaded through
/// every operator. The operators here are the second phase: they remove
/// the probability from a symbolic result, sampling only what has no
/// closed form. This header includes both the catalogue and the algebra,
/// so one include serves a whole query.

#ifndef PIP_ENGINE_QUERY_H_
#define PIP_ENGINE_QUERY_H_

#include <string>
#include <vector>

#include "src/ctable/algebra.h"
#include "src/engine/database.h"
#include "src/sampling/index_ops.h"

namespace pip {

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
