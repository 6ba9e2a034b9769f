#include "par/pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace prox::par {
namespace {

std::atomic<int> g_defaultOverride{0};

// Set while the calling thread is inside ThreadPool::workerLoop.
thread_local bool t_onWorker = false;

int envThreadCount() {
  const char* env = std::getenv("PROX_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || parsed <= 0) return 0;
  return static_cast<int>(std::min<long>(parsed, kMaxThreads));
}

int clampThreads(int threads) {
  return std::clamp(threads, 1, kMaxThreads);
}

}  // namespace

int defaultThreadCount() {
  const int override = g_defaultOverride.load(std::memory_order_relaxed);
  if (override > 0) return clampThreads(override);
  const int env = envThreadCount();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return clampThreads(hw == 0 ? 1 : static_cast<int>(hw));
}

void setDefaultThreadCount(int threads) {
  g_defaultOverride.store(threads > 0 ? clampThreads(threads) : 0,
                          std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int threads) { ensureWorkers(threads); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

int ThreadPool::threadCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::ensureWorkers(int threads) {
  const auto target = static_cast<std::size_t>(clampThreads(threads));
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < target) {
    const int self = static_cast<int>(workers_.size());
    workers_.emplace_back([this, self] { workerLoop(self); });
    PROX_OBS_COUNT("par.pool.workers_started", 1);
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    // Enqueue under the mutex the workers' wait predicate reads, so a worker
    // between its empty-queue check and its wait cannot miss this task.
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    PROX_OBS_TRACE_COUNTER("par.pool.queue_depth", tasks_.size());
  }
  PROX_OBS_COUNT("par.pool.tasks_submitted", 1);
  cv_.notify_one();
}

bool ThreadPool::onWorkerThread() noexcept { return t_onWorker; }

ThreadPool& ThreadPool::global(int threads) {
  // Leaked deliberately: worker threads may still be parked in cv_.wait at
  // process exit, and joining them from a static destructor races other
  // teardown.  The OS reclaims everything.
  static ThreadPool* pool = new ThreadPool(threads);
  pool->ensureWorkers(threads);
  return *pool;
}

void ThreadPool::workerLoop(int self) {
  t_onWorker = true;
  PROX_OBS_THREAD_NAME("pool-worker-" + std::to_string(self));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (tasks_.empty()) {
      // Only an empty queue ends a stopping worker, so ~ThreadPool leaves no
      // submitted task unexecuted.  The obs thread-cache reaper folds this
      // thread's counters into the retired tally when the thread exits.
      if (stopping_) return;
      // The idle span brackets the wait so a trace shows each worker's
      // utilization gaps next to its par.task spans.
      PROX_OBS_SPAN("par.pool.idle");
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      continue;
    }
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    PROX_OBS_TRACE_COUNTER("par.pool.queue_depth", tasks_.size());
    lock.unlock();
    {
      PROX_OBS_SPAN("par.task");
      task();
    }
    PROX_OBS_COUNT("par.pool.tasks_run", 1);
    lock.lock();
  }
}

}  // namespace prox::par
