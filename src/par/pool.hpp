#pragma once
// Work-stealing thread pool shared by the characterization sweeps and the
// levelized STA delay calculator.
//
// Design constraints (and how they are met):
//   * Deterministic results regardless of thread count -> the pool never
//     decides *where* a result goes, only *when* a task runs; callers
//     (par::parallelFor) pre-size result slots and key every task by its
//     loop index, so placement and reduction order are fixed at submit time.
//   * No idle convoys -> each worker owns a deque (push/pop at the back);
//     an out-of-work worker steals from the front of a sibling's deque, so
//     an uneven task mix (one slow transient among hundreds of fast ones)
//     rebalances without a central queue bottleneck.
//   * Nested parallelism must not deadlock -> a worker thread that reaches
//     another parallel region runs that region's loop alone, with no
//     helpers (see parallelFor's guard); ThreadPool::onWorkerThread()
//     exposes the check.
//
// The process-global pool is created lazily on first parallel use and grown
// on demand up to kMaxThreads; a loop with threads <= 1 (the library
// default) runs on its caller alone and never touches it.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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

  /// Drains nothing: outstanding tasks submitted but not yet run are
  /// executed before the workers exit, so joining is always clean.
  ~ThreadPool();

  int threadCount() const noexcept;

  /// Grows the pool to at least @p threads workers (clamped to kMaxThreads).
  void ensureWorkers(int threads);

  /// Enqueues @p task onto the least-recently-fed worker deque.  Tasks must
  /// not throw (parallelFor catches at the task boundary before submitting).
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
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void workerLoop(int self);
  bool runOneTask(int self);

  // Fixed-capacity slot array so workers can scan victims without racing a
  // reallocation; [0, workerCount_) entries are live.
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<int> workerCount_{0};
  std::atomic<std::uint64_t> nextQueue_{0};  // round-robin submit cursor
  std::atomic<std::size_t> pending_{0};      // tasks enqueued, not yet taken

  std::mutex mu_;  // guards cv_ sleep/wake and worker creation
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace prox::par
