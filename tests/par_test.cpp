// Unit tests for the parallel execution layer (src/par/): thread-pool
// lifecycle, parallelFor coverage and slot placement, exception capture and
// re-raise semantics, the nested-submit deadlock guard, and the TaskScope
// marker that keys fault plans by task index.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "par/parallel_for.hpp"
#include "par/pool.hpp"
#include "support/cancel.hpp"
#include "support/diagnostic.hpp"
#include "support/fault_injection.hpp"

namespace {

using namespace prox;
using par::ThreadPool;

// -- pool lifecycle ----------------------------------------------------------

TEST(ThreadPool, ConstructAndDestructCleanly) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4);
}

TEST(ThreadPool, ClampsThreadCount) {
  ThreadPool tiny(0);
  EXPECT_EQ(tiny.threadCount(), 1);
  ThreadPool huge(par::kMaxThreads + 100);
  EXPECT_EQ(huge.threadCount(), par::kMaxThreads);
}

TEST(ThreadPool, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(2);
  pool.ensureWorkers(6);
  EXPECT_EQ(pool.threadCount(), 6);
  pool.ensureWorkers(3);
  EXPECT_EQ(pool.threadCount(), 6);
  pool.ensureWorkers(par::kMaxThreads + 5);
  EXPECT_EQ(pool.threadCount(), par::kMaxThreads);
}

TEST(ThreadPool, DestructorRunsEveryOutstandingTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool must not drop queued tasks
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, SubmittedTasksRunOnWorkerThreads) {
  std::atomic<bool> onWorker{false};
  std::atomic<bool> done{false};
  EXPECT_FALSE(ThreadPool::onWorkerThread());
  {
    ThreadPool pool(2);
    pool.submit([&] {
      onWorker.store(ThreadPool::onWorkerThread());
      done.store(true);
    });
    while (!done.load()) std::this_thread::yield();
  }
  EXPECT_TRUE(onWorker.load());
  EXPECT_FALSE(ThreadPool::onWorkerThread());
}

TEST(ThreadPool, EverySubmittedTaskRunsWhileItsSubmitterWaits) {
  // A one-worker pool parks between tasks, so every submit must wake it: a
  // wakeup lost between the worker's empty-queue check and its wait would
  // strand the task while its submitter waits on it.  Declared before the
  // pool, so a stranded task drained by ~ThreadPool still finds them alive.
  std::mutex mu;
  std::condition_variable ranCv;
  int ran = 0;
  ThreadPool pool(1);
  for (int i = 0; i < 20000; ++i) {
    pool.submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ++ran;
      ranCv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(ranCv.wait_for(lock, std::chrono::seconds(10),
                               [&] { return ran == i + 1; }))
        << "task " << i << " did not run within 10 s";
  }
}

TEST(ThreadPool, GlobalPoolGrowsOnDemand) {
  ThreadPool& a = ThreadPool::global(2);
  const int before = a.threadCount();
  ThreadPool& b = ThreadPool::global(before + 1);
  EXPECT_EQ(&a, &b);
  EXPECT_GE(b.threadCount(), before + 1);
}

// -- default thread count ----------------------------------------------------

TEST(DefaultThreadCount, OverrideWinsAndResets) {
  const int natural = par::defaultThreadCount();
  EXPECT_GE(natural, 1);
  par::setDefaultThreadCount(7);
  EXPECT_EQ(par::defaultThreadCount(), 7);
  par::setDefaultThreadCount(par::kMaxThreads + 50);
  EXPECT_EQ(par::defaultThreadCount(), par::kMaxThreads);
  par::setDefaultThreadCount(0);  // remove the override
  EXPECT_EQ(par::defaultThreadCount(), natural);
}

// -- parallelFor coverage ----------------------------------------------------

void checkCoversEveryIndexOnce(int threads, std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  par::parallelFor(
      n, [&](std::size_t i) { hits[i].fetch_add(1); },
      {.threads = threads});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
  }
}

TEST(ParallelFor, EmptyRangeNeverInvokes) {
  for (int threads : {1, 4}) {
    bool invoked = false;
    par::parallelFor(
        0, [&](std::size_t) { invoked = true; }, {.threads = threads});
    EXPECT_FALSE(invoked);
  }
}

TEST(ParallelFor, SingleItemRunsInline) {
  std::size_t seen = 99;
  bool onWorker = true;
  par::parallelFor(
      1,
      [&](std::size_t i) {
        seen = i;
        onWorker = ThreadPool::onWorkerThread();
      },
      {.threads = 8});
  EXPECT_EQ(seen, 0u);
  EXPECT_FALSE(onWorker);  // n == 1 short-circuits to the calling thread
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  checkCoversEveryIndexOnce(1, 257);
  checkCoversEveryIndexOnce(2, 257);
  checkCoversEveryIndexOnce(8, 257);  // items >> threads
  checkCoversEveryIndexOnce(8, 3);    // threads > items
}

TEST(ParallelFor, SlotPlacementMatchesSerial) {
  const std::size_t n = 512;
  std::vector<double> serial(n), parallel(n);
  auto body = [](std::size_t i) { return std::sqrt(static_cast<double>(i)); };
  par::parallelFor(
      n, [&](std::size_t i) { serial[i] = body(i); }, {.threads = 1});
  par::parallelFor(
      n, [&](std::size_t i) { parallel[i] = body(i); }, {.threads = 8});
  EXPECT_EQ(serial, parallel);  // bit-identical, not just approximately
}

// -- exception propagation ---------------------------------------------------

TEST(ParallelFor, PreservesOriginalExceptionType) {
  for (int threads : {1, 4}) {
    EXPECT_THROW(
        par::parallelFor(
            10,
            [](std::size_t i) {
              if (i == 5) throw std::invalid_argument("boom");
            },
            {.threads = threads}),
        std::invalid_argument);
  }
}

TEST(ParallelFor, LowestIndexFailureWins) {
  for (int threads : {1, 8}) {
    try {
      par::parallelFor(
          64,
          [](std::size_t i) {
            if (i % 2 == 1) throw std::runtime_error("task " +
                                                     std::to_string(i));
          },
          {.threads = threads});
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 1");
    }
  }
}

TEST(ParallelFor, DiagnosticErrorPayloadSurvives) {
  try {
    par::parallelFor(
        3,
        [](std::size_t i) {
          if (i == 2) {
            throw support::DiagnosticError(
                support::makeDiagnostic(support::StatusCode::SimulationFailed,
                                        "injected")
                    .withSite("par_test.site")
                    .withPin(1));
          }
        },
        {.threads = 2});
    FAIL() << "expected DiagnosticError";
  } catch (const support::DiagnosticError& e) {
    EXPECT_EQ(e.code(), support::StatusCode::SimulationFailed);
    EXPECT_EQ(e.diagnostic().site, "par_test.site");
    EXPECT_EQ(e.diagnostic().pin, 1);
  }
}

TEST(ParallelFor, FailFastSerialStopsAtFirstFailure) {
  std::vector<int> ran(10, 0);
  EXPECT_THROW(par::parallelFor(
                   10,
                   [&](std::size_t i) {
                     ran[i] = 1;
                     if (i == 3) throw std::runtime_error("stop here");
                   },
                   {.threads = 1}),
               std::runtime_error);
  // Serial fail-fast matches a plain loop: nothing after the throw runs.
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 4);
}

TEST(ParallelFor, FailFastParallelRaisesTheFailureASerialLoopWould) {
  // One worker takes index 0 and the other index 1.  Task 1 fails at once
  // and stops the loop, but task 0 was already taken, so it still runs; its
  // later failure is the one raised, as in a serial loop.
  try {
    par::parallelFor(
        4,
        [](std::size_t i) {
          if (i == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          throw std::runtime_error("task " + std::to_string(i));
        },
        {.threads = 2});
    FAIL() << "expected a task failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 0");
  }
}

// -- cooperative cancellation ------------------------------------------------

TEST(ParallelFor, CancelMidLoopThrowsTypedErrorAndPoolSurvives) {
  for (int threads : {1, 8}) {
    support::CancelToken token;
    std::atomic<int> started{0};
    try {
      par::parallelFor(
          500,
          [&](std::size_t) {
            if (started.fetch_add(1) == 20) token.cancel();
            support::pollCancellation("par_test.body");
          },
          {.threads = threads, .cancel = &token});
      FAIL() << "expected DiagnosticError, threads " << threads;
    } catch (const support::DiagnosticError& e) {
      // Cancellation outranks the collected task failures, and it is
      // reported only after in-flight tasks drained.
      EXPECT_EQ(e.code(), support::StatusCode::Cancelled);
      EXPECT_EQ(e.diagnostic().site, "par.parallel_for");
    }
    EXPECT_LT(started.load(), 500) << "threads " << threads;
    // The pool survived the cancelled loop: the next one covers everything.
    checkCoversEveryIndexOnce(threads, 100);
  }
}

TEST(ParallelFor, PreTrippedTokenRunsNoTasksSerially) {
  support::CancelToken token;
  token.cancel();
  int ran = 0;
  EXPECT_THROW(par::parallelFor(
                   50, [&](std::size_t) { ++ran; },
                   {.threads = 1, .cancel = &token}),
               support::DiagnosticError);
  EXPECT_EQ(ran, 0);
}

TEST(ParallelFor, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  support::CancelToken token;
  token.setTimeout(0.0);
  try {
    par::parallelFor(
        100, [](std::size_t) {}, {.threads = 4, .cancel = &token});
    FAIL() << "expected DiagnosticError";
  } catch (const support::DiagnosticError& e) {
    EXPECT_EQ(e.code(), support::StatusCode::DeadlineExceeded);
  }
}

TEST(ParallelFor, TasksObserveTheTokenThroughTheThreadLocalScope) {
  support::CancelToken token;
  std::atomic<int> visible{0};
  par::parallelFor(
      64,
      [&](std::size_t) {
        if (support::currentCancelToken() == &token) visible.fetch_add(1);
      },
      {.threads = 4, .cancel = &token});
  EXPECT_EQ(visible.load(), 64);
}

TEST(ThreadPool, DestructorDrainsTasksThatObserveATrippedToken) {
  // Regression guard for the drain-on-destroy contract under cancellation:
  // queued tasks that immediately hit a tripped token must still all run
  // (absorbing the typed error at the task boundary), and the destructor
  // must join cleanly rather than deadlocking on the queue.
  support::CancelToken token;
  token.cancel();
  std::atomic<int> drained{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&] {
        support::CancelScope scope(&token);
        try {
          support::pollCancellation("par_test.drain");
        } catch (const support::DiagnosticError&) {
        }
        drained.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(drained.load(), 64);
}

// -- nested parallelism guard ------------------------------------------------

TEST(ParallelFor, NestedCallFromWorkerRunsInlineWithoutDeadlock) {
  std::atomic<int> innerTotal{0};
  par::parallelFor(
      8,
      [&](std::size_t) {
        // A second level of parallelFor from (possibly) a pool worker: must
        // complete inline rather than submitting to the already-busy pool.
        par::parallelFor(
            16,
            [&](std::size_t) {
              innerTotal.fetch_add(1, std::memory_order_relaxed);
            },
            {.threads = 8});
      },
      {.threads = 4});
  EXPECT_EQ(innerTotal.load(), 8 * 16);
}

TEST(ThreadPool, NestedParallelForInsideSubmittedTaskCompletes) {
  std::atomic<int> total{0};
  std::atomic<bool> done{false};
  {
    ThreadPool pool(2);
    pool.submit([&] {
      par::parallelFor(
          32, [&](std::size_t) { total.fetch_add(1); }, {.threads = 8});
      done.store(true);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  EXPECT_TRUE(done.load());
  EXPECT_EQ(total.load(), 32);
}

// -- TaskScope ---------------------------------------------------------------

TEST(TaskScope, DefaultsToMinusOneAndNests) {
  using support::TaskScope;
  EXPECT_EQ(TaskScope::current(), -1);
  {
    TaskScope outer(5);
    EXPECT_EQ(TaskScope::current(), 5);
    {
      TaskScope inner(9);
      EXPECT_EQ(TaskScope::current(), 9);
    }
    EXPECT_EQ(TaskScope::current(), 5);
  }
  EXPECT_EQ(TaskScope::current(), -1);
}

TEST(TaskScope, ParallelForTagsEveryIndexAtAnyThreadCount) {
  for (int threads : {1, 4}) {
    std::vector<long long> seen(50, -2);
    par::parallelFor(
        seen.size(),
        [&](std::size_t i) { seen[i] = support::TaskScope::current(); },
        {.threads = threads});
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], static_cast<long long>(i));
    }
  }
}

#if PROX_ENABLE_FAULT_INJECTION
TEST(TaskScope, TaskKeyedFaultPlanFiresOnlyInItsTask) {
  using support::FaultKind;
  using support::FaultPlan;
  using support::FaultSpec;
  for (int threads : {1, 4}) {
    FaultSpec spec;
    spec.site = "par_test.point";
    spec.kind = FaultKind::SimulationFailure;
    spec.triggerHit = 1;
    spec.count = 1;
    spec.taskIndex = 11;
    FaultPlan::Scope scope(spec);
    std::vector<int> fired(30, 0);
    par::parallelFor(
        fired.size(),
        [&](std::size_t i) {
          if (PROX_FAULT_POINT("par_test.point", SimulationFailure)) {
            fired[i] = 1;
          }
        },
        {.threads = threads});
    for (std::size_t i = 0; i < fired.size(); ++i) {
      EXPECT_EQ(fired[i], i == 11 ? 1 : 0) << "threads " << threads;
    }
    EXPECT_EQ(FaultPlan::fired(), 1u);
  }
}
#endif

}  // namespace
