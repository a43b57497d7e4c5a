#include "src/common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "src/common/failpoints.h"

namespace pip {

namespace {

/// True while this thread runs a region's chunk bodies (see header): a
/// ParallelFor started there runs inline.
thread_local bool t_in_region = false;

}  // namespace

/// One fanned-out region, shared by its caller and its queued helpers. A
/// helper can start after the caller has returned (every chunk was
/// claimed before it ran), so it holds this state rather than the
/// caller's stack, and touches `fn` only for a chunk it claimed.
struct ThreadPool::RegionState {
  RegionState(size_t n, const std::function<void(size_t)>& f)
      : num_chunks(n), fn(f) {}

  /// Claims and runs chunks until none is left. Returns true if this call
  /// finished the region's last chunk.
  bool Drain() {
    t_in_region = true;
    size_t ran = 0;
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < num_chunks; i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
      ++ran;
    }
    t_in_region = false;
    if (ran == 0) return false;
    std::lock_guard<std::mutex> lock(mu);
    finished += ran;
    return finished == num_chunks;
  }

  const size_t num_chunks;
  const std::function<void(size_t)>& fn;
  std::atomic<size_t> next{0};  ///< Next unclaimed chunk.
  std::mutex mu;
  size_t finished = 0;  ///< Chunks run to completion. Guarded by mu.
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Stopping, and every task has run.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    counters_.worker_tasks.fetch_add(1, std::memory_order_relaxed);
    // Chaos site: dispatch latency. Stalls are invisible to results —
    // chunk schedules and fold order never depend on timing.
    (void)PIP_FAILPOINT("pool.task");
    task();
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(ResolveThreads(0));
  return *pool;
}

size_t ThreadPool::ResolveThreads(size_t requested) {
  if (requested != 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

size_t ThreadPool::Width(size_t num_threads) {
  return t_in_region ? 1 : ResolveThreads(num_threads);
}

void ThreadPool::ParallelFor(size_t num_chunks, size_t max_workers,
                             const std::function<void(size_t)>& fn) {
  if (num_chunks == 0) return;
  if (t_in_region || max_workers <= 1 || num_chunks == 1) {
    // One parallel axis per region: a region's body runs its loops
    // inline. A degraded loop is not a region, so its body keeps the
    // right to fan out (a one-row batch still shards its samples).
    counters_.inline_regions.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < num_chunks; ++i) fn(i);
    return;
  }
  counters_.regions.fetch_add(1, std::memory_order_relaxed);

  auto state = std::make_shared<RegionState>(num_chunks, fn);
  const size_t helpers =
      std::min({max_workers, num_chunks, num_threads() + 1}) - 1;
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state] {
      if (state->Drain()) state->done_cv.notify_one();
    });
  }

  // Caller-runs: progress even when every worker is busy. Then wait, once,
  // for the chunks that helpers claimed; a helper still queued has claimed
  // none, so it is not waited for.
  if (state->Drain()) return;
  const auto wait_start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock,
                        [&] { return state->finished == num_chunks; });
  }
  counters_.join_waits.fetch_add(1, std::memory_order_relaxed);
  counters_.join_wait_micros.fetch_add(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wait_start)
          .count(),
      std::memory_order_relaxed);
}

void ThreadPool::For(size_t num_chunks, size_t num_threads,
                     const std::function<void(size_t)>& fn) {
  Shared().ParallelFor(num_chunks, ResolveThreads(num_threads), fn);
}

ThreadPool::SchedulerStats ThreadPool::scheduler_stats() const {
  SchedulerStats s;
  s.regions = counters_.regions.load(std::memory_order_relaxed);
  s.inline_regions = counters_.inline_regions.load(std::memory_order_relaxed);
  s.worker_tasks = counters_.worker_tasks.load(std::memory_order_relaxed);
  s.join_waits = counters_.join_waits.load(std::memory_order_relaxed);
  s.join_wait_micros =
      counters_.join_wait_micros.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::ResetStats() {
  counters_.regions.store(0, std::memory_order_relaxed);
  counters_.inline_regions.store(0, std::memory_order_relaxed);
  counters_.worker_tasks.store(0, std::memory_order_relaxed);
  counters_.join_waits.store(0, std::memory_order_relaxed);
  counters_.join_wait_micros.store(0, std::memory_order_relaxed);
}

}  // namespace pip
