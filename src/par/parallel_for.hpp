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
//   * exceptions are captured per task and the *lowest-index* failure is
//     re-raised (its original type preserved via exception_ptr), matching
//     the first throw a serial loop would surface.
//
// One task loop serves every thread count: the calling thread always runs
// it as worker 0, and pool helpers join as workers 1..threads-1.  With
// threads <= 1 (the library default), a single index, or a nested call from
// inside a pool worker (a worker blocking on tasks only it could run would
// deadlock the pool), the caller's loop runs alone and the pool is never
// touched.  fn may take the worker index as a second argument, for
// per-worker scratch that must not change any result.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <type_traits>
#include <vector>

#include "par/pool.hpp"
#include "support/cancel.hpp"
#include "support/diagnostic.hpp"
#include "support/fault_injection.hpp"

namespace prox::par {

struct ParallelOptions {
  /// Worker count: 1 = the caller alone, 0 = defaultThreadCount().
  int threads = 0;
  /// Indices handed to a worker per grab.  1 (the default) gives the best
  /// load balance for uneven tasks like characterization transients.
  std::size_t chunk = 1;
  /// Stop issuing new indices after the first failure (matching a serial
  /// loop's abort-on-throw).  A worker still runs every index it took,
  /// except those after its own failure, so every index below the lowest
  /// failure runs and that failure is the one re-raised.  Which higher
  /// indices ran before the stop is timing-dependent, so use this only on
  /// paths whose partial results are discarded on failure.
  bool failFast = false;
  /// Cooperative cancellation: when set, the loop stops issuing new indices
  /// once the token trips, installs the token as every task's thread-local
  /// CancelScope (so poll points deep inside the task observe it), and --
  /// after in-flight tasks drain -- parallelFor/parallelForCollect throw the
  /// token's typed DiagnosticError (Cancelled / DeadlineExceeded).
  /// Cancellation outranks collected task failures: a cancelled run's
  /// partial results are discarded by callers, so its failures are moot.
  const support::CancelToken* cancel = nullptr;
};

/// One failed loop iteration: the index it ran as, the original exception
/// (type preserved), and a typed rendering for diagnostic logs.
struct TaskFailure {
  std::size_t index = 0;
  std::exception_ptr exception;
  support::Diagnostic diagnostic;
};

namespace detail {

inline support::Diagnostic describeFailure(std::size_t index,
                                           const std::exception_ptr& ep) {
  support::Diagnostic diag;
  diag.site = "par.parallel_for";
  diag.pin = -1;
  try {
    std::rethrow_exception(ep);
  } catch (const support::DiagnosticError& e) {
    diag = e.diagnostic();
  } catch (const std::exception& e) {
    diag = support::makeDiagnostic(support::StatusCode::Internal, e.what())
               .withSite("par.parallel_for");
  } catch (...) {
    diag = support::makeDiagnostic(support::StatusCode::Internal,
                                   "non-std exception from parallel task")
               .withSite("par.parallel_for");
  }
  diag.message += " (task " + std::to_string(index) + ")";
  return diag;
}

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
/// -- for i in [0, n), possibly in parallel, and returns every failure
/// sorted by index (empty on full success).  fn must confine its writes to
/// per-index storage (or per-worker scratch); it may throw.  When opt.cancel
/// trips, the loop stops issuing indices, drains in-flight tasks, then
/// throws the token's typed DiagnosticError (Cancelled / DeadlineExceeded).
template <typename Fn>
std::vector<TaskFailure> parallelForCollect(std::size_t n, Fn&& fn,
                                            const ParallelOptions& opt = {}) {
  if (n == 0) return {};

  const int threads = std::min<int>(
      opt.threads == 0 ? defaultThreadCount() : opt.threads, kMaxThreads);
  const int helpers =
      threads <= 1 || n == 1 || ThreadPool::onWorkerThread() ? 0 : threads - 1;
  // A caller running alone takes the whole range in one grab.
  const std::size_t chunk =
      helpers == 0 ? n : std::max<std::size_t>(opt.chunk, 1);

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<int> active{0};
    std::atomic<bool> stop{false};
    std::mutex mu;  // guards failures and done signalling
    std::condition_variable done;
    std::vector<TaskFailure> failures;
  };
  auto shared = std::make_shared<Shared>();

  const bool failFast = opt.failFast;
  const support::CancelToken* const cancel = opt.cancel;
  auto runner = [shared, n, chunk, failFast, cancel, &fn](int worker) {
    support::CancelScope cancelScope(cancel);
    const auto cancelled = [cancel] {
      return cancel != nullptr && cancel->cancelRequested();
    };
    while (!cancelled() &&
           !(failFast && shared->stop.load(std::memory_order_acquire))) {
      const std::size_t begin =
          shared->next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(begin + chunk, n);
      // A taken index runs even after another worker's failure: indices go
      // out in increasing order, so every index below the lowest failure
      // runs, as in a serial loop.
      for (std::size_t i = begin; i < end && !cancelled(); ++i) {
        support::TaskScope scope(static_cast<long long>(i));
        detail::maybeCrashAtTask();
        try {
          if constexpr (std::is_invocable_v<Fn&, std::size_t, int>) {
            fn(i, worker);
          } else {
            fn(i);
          }
        } catch (...) {
          shared->stop.store(true, std::memory_order_release);
          {
            std::lock_guard<std::mutex> lock(shared->mu);
            shared->failures.push_back(
                {i, std::current_exception(),
                 detail::describeFailure(i, std::current_exception())});
          }
          if (failFast) break;
        }
      }
    }
    if (shared->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->done.notify_all();
    }
  };

  // The caller participates as worker 0, so even a pool saturated by other
  // work cannot stall this loop (the caller's runner drains it).
  shared->active.store(helpers + 1, std::memory_order_release);
  if (helpers > 0) {
    ThreadPool& pool = ThreadPool::global(threads);
    for (int w = 1; w <= helpers; ++w) {
      pool.submit([runner, w] { runner(w); });
    }
  }
  runner(0);
  {
    std::unique_lock<std::mutex> lock(shared->mu);
    shared->done.wait(lock, [&shared] {
      return shared->active.load(std::memory_order_acquire) == 0;
    });
  }

  // Cancellation is reported only after every in-flight task has drained,
  // so the caller's per-index storage is quiescent when the throw unwinds.
  if (cancel != nullptr) cancel->throwIfCancelled("par.parallel_for");

  std::vector<TaskFailure> failures = std::move(shared->failures);
  // Failure order must not depend on the interleaving.
  std::sort(failures.begin(), failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.index < b.index;
            });
  return failures;
}

/// parallelForCollect, but re-raises the lowest-index failure with its
/// original exception type -- the same exception a serial `for` loop over
/// fn(0..n) would have surfaced first.
template <typename Fn>
void parallelFor(std::size_t n, Fn&& fn, const ParallelOptions& opt = {}) {
  auto failures = parallelForCollect(n, std::forward<Fn>(fn), opt);
  if (!failures.empty()) std::rethrow_exception(failures.front().exception);
}

}  // namespace prox::par
