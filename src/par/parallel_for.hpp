#pragma once
// Deterministic parallel loop over an index range.
//
// The determinism contract (DESIGN.md §5): parallelFor(n, fn) produces
// results that are bit-identical to `for (i = 0; i < n; ++i) fn(i)`
// regardless of thread count, because
//   * fn(i) writes only to slot i of caller-pre-sized storage -- placement
//     is decided by the index, never by which worker ran the task;
//   * every invocation runs under support::TaskScope(i), so fault-injection
//     plans keyed by task index fire in the same task at any thread count;
//   * the loop is fail-fast and re-raises the *lowest-index* failure (its
//     original type preserved via exception_ptr), the first throw a serial
//     loop would surface.
//
// One task loop serves every thread count: the calling thread always runs
// it as worker 0, and threads-1 pool helpers join as workers
// 1..threads-1.  Every worker takes the next index from one shared counter,
// the loop's only load balancing.  With threads <= 1 (the library default),
// a single index, or a nested call from inside a pool worker (a worker
// blocking on tasks only it could run would deadlock the pool), the caller's
// loop runs alone and the pool is never touched.  fn may take the worker
// index as a second argument, for per-worker scratch that must not change
// any result.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <type_traits>

#include "par/pool.hpp"
#include "support/cancel.hpp"
#include "support/fault_injection.hpp"

namespace prox::par {

struct ParallelOptions {
  /// Worker count: 1 = the caller alone, 0 = defaultThreadCount().
  int threads = 0;
  /// Cooperative cancellation: when set, the loop stops issuing new indices
  /// once the token trips, installs the token as every task's thread-local
  /// CancelScope (so poll points deep inside the task observe it), and --
  /// after in-flight tasks drain -- throws the token's typed DiagnosticError
  /// (Cancelled / DeadlineExceeded).  Cancellation outranks a task failure:
  /// a cancelled run's partial results are discarded by callers, so its
  /// failures are moot.
  const support::CancelToken* cancel = nullptr;
};

namespace detail {

/// The ProcessCrash fault site: a task-keyed plan armed against "par.task"
/// kills the process (as SIGKILL would) the moment the matching task index
/// starts, at any thread count -- the deterministic stand-in for an
/// operator's `kill -9` in checkpoint/resume tests and the CI kill-resume
/// job.  Inline in the task wrapper so every parallel region is covered.
inline void maybeCrashAtTask() {
  if (PROX_FAULT_POINT("par.task", ProcessCrash)) {
    support::crashProcessForFaultInjection();
  }
}

}  // namespace detail

/// Runs fn(i) -- or fn(i, worker), worker in [0, min(threads, kMaxThreads))
/// -- for i in [0, n), possibly in parallel.  fn must confine its writes to
/// per-index storage (or per-worker scratch); it may throw.  After a failure
/// no new index is issued, but a worker still runs the index it took, and
/// indices go out in increasing order, so every index below the lowest
/// failure runs, as in a serial loop, and that failure is re-raised.  Which
/// higher indices ran before the stop is timing-dependent, so callers
/// discard partial results on failure.  When opt.cancel trips, the loop
/// stops issuing indices, drains in-flight tasks, then throws the token's
/// typed DiagnosticError (Cancelled / DeadlineExceeded).
template <typename Fn>
void parallelFor(std::size_t n, Fn&& fn, const ParallelOptions& opt = {}) {
  if (n == 0) return;

  const int threads = std::min<int>(
      opt.threads == 0 ? defaultThreadCount() : opt.threads, kMaxThreads);
  const int helpers =
      threads <= 1 || n == 1 || ThreadPool::onWorkerThread() ? 0 : threads - 1;
  const support::CancelToken* const cancel = opt.cancel;

  // The loop state lives on the caller's stack: the caller returns only
  // after every runner's last touch of it, the decrement under mu.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;  // guards active, failure and failureIndex
  std::condition_variable done;
  int active = helpers + 1;
  std::exception_ptr failure;
  std::size_t failureIndex = n;

  auto runner = [&](int worker) {
    support::CancelScope cancelScope(cancel);
    while (!failed.load(std::memory_order_acquire) &&
           !(cancel != nullptr && cancel->cancelRequested())) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      support::TaskScope scope(static_cast<long long>(i));
      detail::maybeCrashAtTask();
      try {
        if constexpr (std::is_invocable_v<Fn&, std::size_t, int>) {
          fn(i, worker);
        } else {
          fn(i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < failureIndex) {
          failureIndex = i;
          failure = std::current_exception();
        }
        failed.store(true, std::memory_order_release);
        break;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    if (--active == 0) done.notify_all();
  };

  // The caller participates as worker 0, so even a pool saturated by other
  // work cannot stall this loop (the caller's runner drains it).
  if (helpers > 0) {
    ThreadPool& pool = ThreadPool::global(helpers);
    for (int w = 1; w <= helpers; ++w) {
      pool.submit([&runner, w] { runner(w); });
    }
  }
  runner(0);
  {
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&active] { return active == 0; });
  }

  // Cancellation is reported only after every in-flight task has drained,
  // so the caller's per-index storage is quiescent when the throw unwinds.
  if (cancel != nullptr) cancel->throwIfCancelled("par.parallel_for");
  if (failure) std::rethrow_exception(failure);
}

}  // namespace prox::par
