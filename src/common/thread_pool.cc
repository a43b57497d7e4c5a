#include "src/common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "src/common/failpoints.h"

namespace pip {

namespace {

/// True while this thread runs a region's chunk bodies (see header): a
/// ParallelFor started there runs inline.
thread_local bool t_in_region = false;

/// Which pool owns this thread (nullptr for external threads) and the
/// worker index within it. Lets a joining worker drain its own deque
/// front before stealing. Pool-qualified because private pools exist in
/// tests: a private pool's worker touching the shared pool must scan as
/// an external thread, not index the wrong worker array.
thread_local const void* t_worker_pool = nullptr;
thread_local size_t t_worker_index = SIZE_MAX;

}  // namespace

struct ThreadPool::RegionState {
  std::atomic<size_t> next{0};
  std::atomic<size_t> outstanding{0};
  std::mutex mu;
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Publish stop_ under idle_mu_: a worker that just evaluated the
    // wait predicate but has not blocked yet would otherwise miss this
    // notify forever (lost wakeup -> join() hangs).
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t w = next_worker_.fetch_add(1, std::memory_order_relaxed) %
             workers_.size();
  {
    // The increment shares the queue's critical section with the push
    // (and the decrements in RunOneTask share the pop's), so pending_
    // can never under-count and wrap — a wrap would leave idle workers
    // busy-spinning on a phantom task count.
    std::lock_guard<std::mutex> lock(workers_[w]->mu);
    workers_[w]->queue.push_back(std::move(task));
    pending_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // Fence: a worker between its wait-predicate check and blocking
    // holds idle_mu_; taking it here means any worker that proceeds to
    // block does so after this increment is visible, so the notify
    // below cannot be lost.
    std::lock_guard<std::mutex> lock(idle_mu_);
  }
  idle_cv_.notify_one();
}

bool ThreadPool::RunOneTask(bool as_joiner) {
  const size_t self = (t_worker_pool == this) ? t_worker_index : SIZE_MAX;
  std::function<void()> task;
  bool stolen = false;
  // Own queue first (front) when this thread is a pool worker, then take
  // from the other queues' backs. A joining external thread has no own
  // queue, so every task it runs counts as a steal.
  if (self != SIZE_MAX) {
    std::lock_guard<std::mutex> lock(workers_[self]->mu);
    if (!workers_[self]->queue.empty()) {
      task = std::move(workers_[self]->queue.front());
      workers_[self]->queue.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (!task) {
    const size_t n = workers_.size();
    for (size_t off = 0; off < n && !task; ++off) {
      const size_t victim = (self == SIZE_MAX) ? off : (self + 1 + off) % n;
      if (victim == self) continue;
      std::lock_guard<std::mutex> lock(workers_[victim]->mu);
      if (!workers_[victim]->queue.empty()) {
        task = std::move(workers_[victim]->queue.back());
        workers_[victim]->queue.pop_back();
        pending_.fetch_sub(1, std::memory_order_relaxed);
        stolen = true;
      }
    }
  }
  if (!task) return false;
  (as_joiner ? counters_.joiner_tasks : counters_.worker_tasks)
      .fetch_add(1, std::memory_order_relaxed);
  if (stolen) counters_.steals.fetch_add(1, std::memory_order_relaxed);
  // Chaos site: dispatch latency. Stalls are invisible to results —
  // chunk schedules and fold order never depend on timing.
  (void)PIP_FAILPOINT("pool.task");
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t index) {
  t_worker_pool = this;
  t_worker_index = index;
  while (!stop_.load(std::memory_order_acquire)) {
    if (RunOneTask(/*as_joiner=*/false)) continue;
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_relaxed) > 0;
    });
  }
}

void ThreadPool::JoinRegion(RegionState& state) {
  while (state.outstanding.load(std::memory_order_acquire) != 0) {
    // Join-stealing: run any pending pool task instead of blocking. The
    // joiner's own region's chunks drain first by construction — its
    // drain call below ParallelFor already emptied the shared chunk
    // counter before we got here — so what remains runnable is other
    // regions' work (concurrent sessions share the pool), which a queued
    // task can always find an executor for while any thread is joining.
    if (RunOneTask(/*as_joiner=*/true)) continue;
    // Every queue is empty: the region's remaining helpers are executing
    // on other threads. Wait timed, not open-ended — a task Submitted
    // after the scan above is announced on idle_cv_ (to workers), not on
    // this region's done_cv, so the joiner re-scans periodically.
    const auto wait_start = std::chrono::steady_clock::now();
    {
      std::unique_lock<std::mutex> lock(state.mu);
      if (state.outstanding.load(std::memory_order_acquire) == 0) break;
      counters_.join_waits.fetch_add(1, std::memory_order_relaxed);
      state.done_cv.wait_for(lock, std::chrono::microseconds(200));
    }
    const auto waited = std::chrono::steady_clock::now() - wait_start;
    counters_.join_wait_micros.fetch_add(
        std::chrono::duration_cast<std::chrono::microseconds>(waited).count(),
        std::memory_order_relaxed);
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

  auto state = std::make_shared<RegionState>();
  auto drain = [state, &fn, num_chunks] {
    t_in_region = true;
    for (size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
         i < num_chunks;
         i = state->next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
    t_in_region = false;
  };

  const size_t helpers = std::min(max_workers, num_chunks) - 1;
  state->outstanding.store(helpers, std::memory_order_relaxed);
  for (size_t h = 0; h < helpers; ++h) {
    // Helpers capture only the shared state and the chunk closure; the
    // caller outlives them because JoinRegion does not return until
    // `outstanding` hits zero.
    Submit([state, drain] {
      drain();
      if (state->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->done_cv.notify_all();
      }
    });
  }

  drain();  // Caller-runs: progress even when the pool is saturated.
  JoinRegion(*state);
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
  s.joiner_tasks = counters_.joiner_tasks.load(std::memory_order_relaxed);
  s.steals = counters_.steals.load(std::memory_order_relaxed);
  s.join_waits = counters_.join_waits.load(std::memory_order_relaxed);
  s.join_wait_micros =
      counters_.join_wait_micros.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::ResetStats() {
  counters_.regions.store(0, std::memory_order_relaxed);
  counters_.inline_regions.store(0, std::memory_order_relaxed);
  counters_.worker_tasks.store(0, std::memory_order_relaxed);
  counters_.joiner_tasks.store(0, std::memory_order_relaxed);
  counters_.steals.store(0, std::memory_order_relaxed);
  counters_.join_waits.store(0, std::memory_order_relaxed);
  counters_.join_wait_micros.store(0, std::memory_order_relaxed);
}

}  // namespace pip
