/// \file row_parallel.h
/// \brief The shared row-axis chunk driver: fans independent per-row
/// work across the pool with deterministic, row-ordered semantics.
///
/// PIP's batch operators (Analyze, aconf(), the expected_* aggregates,
/// grouped aggregation) evaluate many independent rows, each of which is
/// itself a parallel sampling computation. A region runs one parallel
/// axis (see thread_pool.h), so ParallelRows picks the axis from the
/// input: with at least as many rows as the width, rows fan out and each
/// row body runs its engine calls inline; with fewer rows (or width 1)
/// the row loop runs serially and each row's sample region gets the
/// whole width.
///
/// Determinism contract: the body writes each row's outputs to
/// pre-sized per-row slots, callers fold emitted rows in row order, and
/// per-row engine results are bit-identical at every thread count — so
/// a row-parallel batch is byte-identical to the serial row loop.
/// Errors follow the same rule: statuses land in per-row slots and the
/// first error in ROW order (not completion order) is surfaced, exactly
/// the error a serial loop would have returned. Rows strictly after the
/// earliest known failing row may be skipped — a serial loop never
/// reaches them, and their outputs are discarded anyway.
///
/// Mid-body cancellation: the skip check before a row body fires only
/// once, when the row is acquired — a long row body dispatched just
/// before an earlier row recorded its failure used to run to
/// completion anyway. Every body receives a `const RowBatchContext&` and
/// can poll `ctx.Cancelled()` (typically by wiring it into
/// `SamplingEngine::WithCancelCheck`, which polls at chunk-fold
/// barriers) and bail early with any status: a
/// cancelled row's status slot is only reachable when an earlier row
/// already failed, so the earlier row's error is what surfaces and the
/// abort never changes what a caller observes.

#ifndef PIP_COMMON_ROW_PARALLEL_H_
#define PIP_COMMON_ROW_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"

namespace pip {

/// Per-row view of a ParallelRows batch's failure state, handed to
/// every row body. Copyable and cheap; valid for the duration
/// of the body call it was passed to.
class RowBatchContext {
 public:
  /// Serial-path / standalone context: never cancelled.
  RowBatchContext() : first_error_(nullptr), row_(0) {}
  RowBatchContext(const std::atomic<size_t>* first_error, size_t row)
      : first_error_(first_error), row_(row) {}

  /// True once a row strictly before this one has recorded a failure:
  /// this row's output will be discarded, so the body should stop as
  /// soon as convenient. Monotonic (never goes back to false) and safe
  /// to poll from any thread the body fans out to.
  bool Cancelled() const {
    return first_error_ != nullptr &&
           first_error_->load(std::memory_order_relaxed) < row_;
  }

 private:
  const std::atomic<size_t>* first_error_;
  size_t row_;
};

/// Runs `body(row, const RowBatchContext&)` for every row in
/// [0, num_rows); body returns the row's Status and writes its outputs
/// to per-row slots the caller pre-sized. Returns the first non-OK
/// status in row order. `num_threads` follows the engine convention
/// (0 = hardware concurrency); see ThreadPool::Width.
template <typename Body>
Status ParallelRows(size_t num_rows, size_t num_threads, const Body& body) {
  if (num_rows == 0) return Status::OK();
  const size_t workers = ThreadPool::Width(num_threads);
  if (workers <= 1 || num_rows < workers) {
    // Serial row loop: each row's engine calls may fan out, so the
    // sample axis gets the width. Never-cancelled context: a serial loop
    // stops at the first error by itself.
    const RowBatchContext ctx;
    for (size_t row = 0; row < num_rows; ++row) {
      PIP_RETURN_IF_ERROR(body(row, ctx));
    }
    return Status::OK();
  }

  std::vector<Status> statuses(num_rows, Status::OK());
  // Earliest row known to have failed; rows strictly after it are
  // skipped (a serial loop would never have run them, and the caller
  // discards every slot once an error surfaces). The skip check here
  // only covers rows not yet started — rows already inside `body` see
  // the same flag live through their RowBatchContext.
  std::atomic<size_t> first_error{num_rows};
  ThreadPool::Shared().ParallelFor(num_rows, workers, [&](size_t row) {
    if (first_error.load(std::memory_order_relaxed) < row) return;
    Status s = body(row, RowBatchContext(&first_error, row));
    if (!s.ok()) {
      statuses[row] = std::move(s);
      size_t cur = first_error.load(std::memory_order_relaxed);
      while (row < cur && !first_error.compare_exchange_weak(
                              cur, row, std::memory_order_relaxed)) {
      }
    }
  });
  for (size_t row = 0; row < num_rows; ++row) {
    PIP_RETURN_IF_ERROR(statuses[row]);
  }
  return Status::OK();
}

}  // namespace pip

#endif  // PIP_COMMON_ROW_PARALLEL_H_
