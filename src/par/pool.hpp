#pragma once
// Thread pool behind par::parallelFor, shared by the characterization sweeps
// and the levelized STA delay calculator.
//
// Design constraints (and how they are met):
//   * Deterministic results regardless of thread count -> the pool never
//     decides *where* a result goes, only *when* a task runs; callers
//     (par::parallelFor) pre-size result slots and key every task by its
//     loop index, so placement and reduction order are fixed at submit time.
//   * One load balancer -> every task is a parallelFor helper that takes
//     loop indices from its loop's shared counter, so an uneven task mix
//     (one slow transient among hundreds of fast ones) rebalances there;
//     the pool itself is one FIFO queue under the mutex its workers wait on.
//   * Nested parallelism must not deadlock -> a worker thread that reaches
//     another parallel region runs that region's loop alone, with no
//     helpers (see parallelFor's guard); ThreadPool::onWorkerThread()
//     exposes the check.
//
// The process-global pool is created lazily on first parallel use and grown
// on demand up to kMaxThreads; a loop with threads <= 1 (the library
// default) runs on its caller alone and never touches it.

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prox::par {

/// Hard cap on pool size; requests beyond it are clamped.
inline constexpr int kMaxThreads = 64;

/// The process-default worker count: the setDefaultThreadCount() override if
/// one was installed, else the PROX_THREADS environment variable, else
/// std::thread::hardware_concurrency() (at least 1).
int defaultThreadCount();

/// Installs a process-wide default (CLI --threads plumbs through this).
/// @p threads <= 0 removes the override.
void setDefaultThreadCount(int threads);

class ThreadPool {
 public:
  /// Starts @p threads workers (clamped to [1, kMaxThreads]).
  explicit ThreadPool(int threads);

  /// Drains the queue: tasks submitted but not yet run are executed before
  /// the workers exit, so joining is always clean.
  ~ThreadPool();

  int threadCount() const;

  /// Grows the pool to at least @p threads workers (clamped to kMaxThreads).
  void ensureWorkers(int threads);

  /// Appends @p task to the queue and wakes one worker.  Tasks must not
  /// throw (parallelFor catches at the task boundary before submitting).
  void submit(std::function<void()> task);

  /// True when the calling thread is a worker of *any* ThreadPool -- the
  /// nested-parallelism guard used by parallelFor to run the caller's loop
  /// alone instead of submitting (a worker blocking on its own pool's queue
  /// would deadlock).
  static bool onWorkerThread() noexcept;

  /// The lazily-created process-global pool, grown to at least @p threads.
  static ThreadPool& global(int threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  void workerLoop(int self);

  mutable std::mutex mu_;  // guards tasks_, stopping_ and workers_
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace prox::par
