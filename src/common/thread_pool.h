/// \file thread_pool.h
/// \brief A small FIFO thread pool and a deterministic caller-runs
/// parallel-for, used by the sampling engine.
///
/// Determinism contract (see README "Threading model"): parallel callers
/// never let scheduling decide *what* is computed — only *when*. Work is
/// split into a chunk schedule that is a pure function of the problem
/// size, each chunk's result is written to its own slot, and reductions
/// fold slots in chunk-index order. Which thread executes which chunk is
/// irrelevant to the result, so `num_threads` is a throughput knob, not a
/// semantics knob.
///
/// One parallel axis per region: a ParallelFor inside a chunk body runs
/// inline, and Width() reads 1 there. ParallelRows (row_parallel.h) picks
/// rows or samples up front. A degraded (single-chunk or width-1) loop is
/// not a region: its body can still fan out.
///
/// Caller-runs join: the caller drains chunks beside the helpers it
/// queued, then waits once for the chunks that helpers claimed. A helper
/// still queued has claimed none and is not waited for, so a region
/// completes even when every worker is busy.

#ifndef PIP_COMMON_THREAD_POOL_H_
#define PIP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pip {

/// \brief A fixed-size pool of workers sharing one FIFO task queue.
///
/// The pool is shared process-wide via Shared() so that every
/// SamplingEngine call reuses the same threads instead of paying thread
/// start-up per query. Destruction runs every queued task, then joins.
class ThreadPool {
 public:
  /// Snapshot of the per-pool scheduler counters (monotonic totals since
  /// pool construction or the last ResetStats()). Observability only:
  /// the counters never feed back into scheduling decisions.
  struct SchedulerStats {
    uint64_t regions = 0;         ///< ParallelFor calls that fanned out.
    uint64_t inline_regions = 0;  ///< ParallelFor calls degraded inline.
    uint64_t worker_tasks = 0;    ///< Tasks executed by the workers.
    /// Always 0: a region's bodies never start another region (see the
    /// file comment). Kept because pipbench reports it.
    uint64_t nested_tasks = 0;
    /// Always 0: one shared queue leaves nothing to steal. Kept because
    /// pipbench reports it.
    uint64_t steals = 0;
    uint64_t join_waits = 0;  ///< Regions whose caller blocked on chunks
                              ///< still running elsewhere.
    uint64_t join_wait_micros = 0;  ///< Total time spent in those waits.
  };

  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues one task at the back of the queue. Never blocks on work.
  void Submit(std::function<void()> task);

  /// The process-wide pool, sized to the hardware concurrency. Created on
  /// first use.
  static ThreadPool& Shared();

  /// Resolves a `num_threads` option value: 0 means "hardware
  /// concurrency", anything else is taken literally.
  static size_t ResolveThreads(size_t requested);

  /// The width a region started on the calling thread may use for a
  /// `num_threads` option value: 1 inside a region's chunk body (a
  /// ParallelFor there runs inline), else ResolveThreads(num_threads).
  static size_t Width(size_t num_threads);

  /// Runs `fn(chunk_index)` for every chunk_index in [0, num_chunks),
  /// using up to `max_workers` concurrent executors: the calling thread
  /// plus at most one queued helper per pool worker. Blocks until every
  /// chunk has run. Chunk-to-thread assignment is dynamic, so chunks must
  /// be independent (write to disjoint slots, fold afterwards). Runs
  /// inline, in chunk order, inside a region's chunk body, when
  /// `max_workers` <= 1, or when there is one chunk.
  void ParallelFor(size_t num_chunks, size_t max_workers,
                   const std::function<void(size_t)>& fn);

  /// Convenience: ParallelFor over the shared pool with `num_threads`
  /// resolved via ResolveThreads.
  static void For(size_t num_chunks, size_t num_threads,
                  const std::function<void(size_t)>& fn);

  /// Reads the scheduler counters. Individual counters are read with
  /// relaxed atomics: totals are exact once the pool is quiescent,
  /// momentarily approximate while tasks are in flight.
  SchedulerStats scheduler_stats() const;

  /// Zeroes the scheduler counters (benches take deltas; tests isolate).
  void ResetStats();

 private:
  struct Counters {
    std::atomic<uint64_t> regions{0};
    std::atomic<uint64_t> inline_regions{0};
    std::atomic<uint64_t> worker_tasks{0};
    std::atomic<uint64_t> join_waits{0};
    std::atomic<uint64_t> join_wait_micros{0};
  };
  struct RegionState;

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  ///< Guarded by mu_.
  bool stop_ = false;                        ///< Guarded by mu_.
  Counters counters_;
  std::vector<std::thread> threads_;  ///< Last: workers use the above.
};

/// Number of chunks of size `chunk` covering `n` items (0 for n == 0).
inline size_t NumChunks(size_t n, size_t chunk) {
  return chunk == 0 ? 0 : (n + chunk - 1) / chunk;
}

}  // namespace pip

#endif  // PIP_COMMON_THREAD_POOL_H_
