/// \file index_ops.h
/// \brief Plan before admit: the per-statement triage that sorts every
/// row's engine calls into exact, hit or sampled before any row draws.
///
/// Batch operators (Analyze, the expected_* row sweep) make one or more
/// probability-removing engine calls per row. RowTriage decides, for
/// each call, how it is answered:
///   * exact: the call is answered in closed form
///     (SamplingEngine::ClosedForm: deterministic, or no variables in the
///     target and every group's strategy kExactCdf). The
///     triage computes it on the spot through the same engine call, so
///     its bits are the engine's. It builds no key and never touches the
///     expectation index: recomputing it costs microseconds, and closed
///     forms keyed by ever-new constants would only evict sampled
///     results.
///   * hit: the exact result key (shape_key.h) is built once and found
///     in the index. The value is copied into the call's slot, so an
///     eviction later in the statement cannot turn it back into a miss.
///     A hit is bit-identical to recomputation: equal keys imply equal
///     draws.
///   * sample: everything else. The key travels with the call; Run
///     samples it after admission and backfills the index under that
///     same key, so each call makes one key build and one lookup.
///     Numeric-integration (quadrature) results are sampled calls by
///     this rule: they stay indexed, because a hit costs a few
///     microseconds where recomputing costs tens.
/// Only rows of catalogue snapshots (CTable::table_id() != 0, including
/// their selections, projections and groups) use the index, and only
/// when the engine has one attached and index_enabled is set. The key
/// alone identifies an entry; the source table only decides whether the
/// index is consulted. Every other call that is not exact samples
/// without a key.
///
/// Admission weighs the rows that sample and nothing else: a statement
/// whose calls are all exact or hits never reaches the gate. Callers
/// get the split through Prepared: the batch operator triages, the
/// caller admits `sampled_rows`, then `finish` samples and folds.
///
/// A row stops at its first sampled call during triage. Its later calls
/// are triaged when the row runs, because whether they are made at all
/// depends on the sampled result: a row whose call comes back
/// unsatisfiable is dropped, as in a serial row loop. An error in a
/// closed-form call ends the triage at its row; Run reports it after
/// sampling only the rows before it, so the first error in row order
/// surfaces.

#ifndef PIP_SAMPLING_INDEX_OPS_H_
#define PIP_SAMPLING_INDEX_OPS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/ctable/ctable.h"
#include "src/index/expectation_index.h"
#include "src/sampling/expectation.h"

namespace pip {

/// One engine call of one row: E[*expr | *condition], with P[condition]
/// when `compute_probability`, or conf(*condition) when `expr` is null.
/// The pointers reference the row's cells and must outlive the triage.
struct RowCall {
  const ExprPtr* expr = nullptr;
  const Condition* condition = nullptr;
  bool compute_probability = false;
};

/// \brief The triaged engine calls of one batch operator's rows.
class RowTriage {
 public:
  /// Call `call` (< calls_per_row) of row `row`, in serial-loop order.
  using CallOf = std::function<RowCall(size_t row, size_t call)>;

  /// Triages calls [0, calls_per_row) of rows [0, num_rows) of `source`
  /// on `engine`, on the calling thread: exact calls are computed and
  /// hits copied now; nothing draws.
  RowTriage(SamplingEngine engine, const CTable& source, size_t num_rows,
            size_t calls_per_row, CallOf call_of);

  /// Calls answered in closed form, and from the index, by the triage.
  size_t exact() const { return Count(Kind::kExact); }
  size_t hits() const { return Count(Kind::kHit); }
  /// Rows that will draw when Run: what admission weighs.
  size_t sampled_rows() const;

  /// Samples the rows that need it (row-parallel, after admission) and
  /// backfills the index under the keys the triage built. Returns the
  /// first error in row order, the triage's included. Call once.
  Status Run();

  /// After an OK Run: how many of row `row`'s calls were made. Fewer
  /// than calls_per_row when the last one dropped the row.
  size_t answered(size_t row) const { return rows_[row].answered; }
  /// True when a call came back unsatisfiable (see the file comment).
  bool dropped(size_t row) const { return rows_[row].dropped; }
  /// The result of call `call` < answered(row) of row `row`.
  const ExpectationResult& result(size_t row, size_t call) const {
    return slots_[row * per_row_ + call].result;
  }

 private:
  enum class Kind : uint8_t { kPending, kExact, kHit, kSample };

  struct Slot {
    RowCall call;
    Kind kind = Kind::kPending;
    std::string key;  ///< Backfill key of an indexed sampled call.
    ExpectationResult result;
  };
  struct RowState {
    uint32_t answered = 0;
    bool dropped = false;
  };

  /// Answers row `row`'s calls from its first unanswered one until the
  /// row ends. Without `sample` it stops at the first call that draws.
  Status Advance(const SamplingEngine& engine, size_t row, bool sample);
  /// Sorts one call: computes it when exact, copies a hit, else keys it.
  Status Classify(const SamplingEngine& engine, Slot* slot) const;
  bool Pending(size_t row) const;
  size_t Count(Kind kind) const;

  const SamplingEngine engine_;
  ExpectationIndex* index_;  ///< Null when the index does not apply.
  /// ExactResultKeyHead of engine_, built once for every key.
  const std::string key_head_;
  const size_t per_row_;
  const CallOf call_of_;
  std::vector<Slot> slots_;
  std::vector<RowState> rows_;
  /// Rows before the first triage error; the only ones Run samples.
  size_t limit_;
  Status error_;
};

/// A batch operator stopped at its admission point: its rows are
/// triaged and none has drawn. `sampled_rows` is what admission weighs;
/// `finish` samples those rows, backfills the index and folds the
/// answer. The operator's table and engine must outlive `finish`.
template <typename T>
struct Prepared {
  size_t sampled_rows = 0;
  std::function<StatusOr<T>()> finish;
};

}  // namespace pip

#endif  // PIP_SAMPLING_INDEX_OPS_H_
