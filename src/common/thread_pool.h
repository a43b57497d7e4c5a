/// \file thread_pool.h
/// \brief A small work-stealing thread pool and a deterministic
/// parallel-for with join-stealing, used by the sampling engine.
///
/// Determinism contract (see README "Threading model"): parallel callers
/// never let scheduling decide *what* is computed — only *when*. Work is
/// split into a chunk schedule that is a pure function of the problem
/// size, each chunk's result is written to its own slot, and reductions
/// fold slots in chunk-index order. Which worker executes which chunk is
/// irrelevant to the result, so `num_threads` is a throughput knob, not a
/// semantics knob.
///
/// One parallel axis per region: a region's chunk bodies never start
/// another fanned-out region. A ParallelFor called from inside a chunk
/// body runs inline, and Width() reads 1 there. Callers with two axes
/// pick one up front: ParallelRows (row_parallel.h) fans rows out when
/// there are at least as many rows as the width, and otherwise runs the
/// rows serially so each row's sample region gets the whole width. A
/// degraded (single-chunk or width-1) loop is not a region: its body can
/// still fan out.
///
/// Join-stealing: a thread waiting in ParallelFor for its region's
/// helpers does not block — it drains pending pool tasks (its own
/// worker's queue first, then steals from the others) until the region
/// completes. Concurrent sessions open regions on the same pool, so a
/// joiner can find other regions' helpers queued; running them keeps
/// every queued task executable while any thread waits on any region.
///
/// Both mechanisms are semantics-free by the determinism contract: they
/// decide how *wide* a region runs and which thread runs a chunk, never
/// which chunks fold into the result.

#ifndef PIP_COMMON_THREAD_POOL_H_
#define PIP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pip {

/// \brief A fixed-size pool of workers with per-worker deques and work
/// stealing.
///
/// Tasks submitted via Submit() land on a worker's local deque
/// (round-robin); an idle worker first drains its own deque, then steals
/// from the other workers' tails. The pool is shared process-wide via
/// Shared() so that every SamplingEngine call reuses the same threads
/// instead of paying thread start-up per query.
class ThreadPool {
 public:
  /// Snapshot of the per-pool scheduler counters (monotonic totals since
  /// pool construction or the last ResetStats()). Observability only:
  /// the counters never feed back into scheduling decisions.
  struct SchedulerStats {
    uint64_t regions = 0;         ///< ParallelFor calls that fanned out.
    uint64_t inline_regions = 0;  ///< ParallelFor calls degraded inline.
    uint64_t worker_tasks = 0;    ///< Tasks executed by the worker loop.
    uint64_t joiner_tasks = 0;    ///< Tasks executed by threads waiting
                                  ///< in a ParallelFor join.
    /// Always 0: a region's bodies never start another region (see the
    /// file comment). Kept because pipbench reports it.
    uint64_t nested_tasks = 0;
    uint64_t steals = 0;          ///< Tasks taken from another worker's
                                  ///< deque (or any deque, for threads
                                  ///< without one).
    uint64_t join_waits = 0;      ///< Timed waits in joins after finding
                                  ///< no runnable task anywhere.
    uint64_t join_wait_micros = 0;  ///< Total time spent in those waits.
  };

  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues one task. Never blocks.
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
  /// using up to `max_workers` concurrent executors (the calling thread
  /// participates, so at most max_workers - 1 pool tasks are enqueued).
  /// Blocks until every chunk has run. Chunk-to-worker assignment is
  /// dynamic; callers must make each chunk's work independent of the
  /// others (write to disjoint slots, fold afterwards).
  ///
  /// Runs inline, on the calling thread and in chunk order, when the
  /// caller is inside a region's chunk body, when `max_workers` <= 1, or
  /// when there is one chunk. Otherwise the region fans out, and while
  /// its helpers are outstanding the caller join-steals: it executes
  /// pending pool tasks (its own region's chunks drain first via the
  /// shared chunk counter) rather than blocking.
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
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> queue;
  };
  struct Counters {
    std::atomic<uint64_t> regions{0};
    std::atomic<uint64_t> inline_regions{0};
    std::atomic<uint64_t> worker_tasks{0};
    std::atomic<uint64_t> joiner_tasks{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> join_waits{0};
    std::atomic<uint64_t> join_wait_micros{0};
  };
  struct RegionState;

  void WorkerLoop(size_t index);
  /// Pops and runs one pending task: the calling worker's own queue
  /// front first (if the caller is a pool worker), then the other
  /// queues' backs. `as_joiner` selects which executed-task counter the
  /// run is charged to. Returns false if every queue was empty.
  bool RunOneTask(bool as_joiner);
  /// Join-stealing wait: runs pending tasks until the region's helper
  /// count reaches zero, falling back to a short timed wait only when
  /// every queue is empty.
  void JoinRegion(RegionState& state);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<size_t> next_worker_{0};
  /// Tasks submitted but not yet picked up; guards the idle wait.
  std::atomic<size_t> pending_{0};
  std::atomic<bool> stop_{false};
  Counters counters_;
};

/// Number of chunks of size `chunk` covering `n` items (0 for n == 0).
inline size_t NumChunks(size_t n, size_t chunk) {
  return chunk == 0 ? 0 : (n + chunk - 1) / chunk;
}

}  // namespace pip

#endif  // PIP_COMMON_THREAD_POOL_H_
