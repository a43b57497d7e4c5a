/// \file index_ops.h
/// \brief The expectation index's integration layer: indexed drop-in
/// wrappers around the SamplingEngine's probability-removing calls.
///
/// This is the seam between the planner cache and the Monte Carlo
/// engine: query operators (Analyze, aconf, expected aggregates) route
/// per-row engine calls through these wrappers. On a hit the cached
/// result is returned without sampling — bit-identical to recomputation
/// because the draw scheme is a pure function of (seed, var, sample,
/// attempt) and the exact result key (shape_key.h) pins everything that
/// feeds it. On a miss the normal engine path runs and the result
/// backfills the index. The key is the whole identity of an entry: the
/// source table only decides whether the index is consulted at all.
/// Rows of catalogue snapshots (CTable::table_id() != 0, including
/// their selections, projections and groups) use it; rows of ad-hoc
/// tables (joins, unions, inline values) and fully deterministic calls
/// bypass it, as does any engine without an attached index.

#ifndef PIP_SAMPLING_INDEX_OPS_H_
#define PIP_SAMPLING_INDEX_OPS_H_

#include <vector>

#include "src/ctable/ctable.h"
#include "src/index/expectation_index.h"
#include "src/sampling/expectation.h"

namespace pip {

/// engine.Expectation through the index: hit → cached replay, miss →
/// compute and backfill. `source` is the table the row belongs to.
StatusOr<ExpectationResult> IndexedExpectation(const SamplingEngine& engine,
                                               const CTable& source,
                                               const ExprPtr& expr,
                                               const Condition& condition,
                                               bool compute_probability);

/// engine.Confidence through the index.
StatusOr<ExpectationResult> IndexedConfidence(const SamplingEngine& engine,
                                              const CTable& source,
                                              const Condition& condition);

/// engine.JointConfidence through the index. The ordered disjunct list
/// is part of the key.
StatusOr<double> IndexedJointConfidence(const SamplingEngine& engine,
                                        const CTable& source,
                                        const std::vector<Condition>& disjuncts);

}  // namespace pip

#endif  // PIP_SAMPLING_INDEX_OPS_H_
