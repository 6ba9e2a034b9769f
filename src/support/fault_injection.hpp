#pragma once
// Deterministic fault-injection harness.
//
// Tests arm a FaultPlan against a *named site* (a stable string like
// "spice.newton" or "linalg.lu.factor"); instrumented production code asks
// `PROX_FAULT_POINT(site, Kind)` whether the fault should fire at this hit.
// The plan fires on hits [triggerHit, triggerHit + count) of the matching
// site and never again, so every recovery path (solver ladder rungs,
// characterization healing, STA degraded mode) can be exercised by a
// reproducible schedule instead of hoped-for natural failures.
//
// Compiled in under PROX_ENABLE_FAULT_INJECTION (CMake option, default ON;
// OFF compiles PROX_FAULT_POINT to a constant false).  When no plan is armed
// the check is a single relaxed atomic load, so instrumented hot paths pay
// one predictable branch.

#include <atomic>
#include <cstdint>
#include <string>

namespace prox::support {

enum class FaultKind {
  SingularLu,         ///< SparseLu::factor/refactor reports numerical singularity
  NewtonNonConverge,  ///< solveNewton returns without convergence
  NanResidual,        ///< a NaN is planted in the Newton residual vector
  SimulationFailure,  ///< GateSimulator::simulate throws SimulationFailed
  ProcessCrash,       ///< the process dies by SIGKILL at the site (crash test)
  WorkerHang,         ///< a fleet worker stops making progress (hang test)
  CorruptArtifact,    ///< a fleet worker damages its output artifact's bytes
};

const char* faultKindName(FaultKind kind) noexcept;

/// The ProcessCrash fault's action: kills the process exactly as an external
/// `kill -9` would -- no unwinding, no atexit, no stream flushing -- so
/// checkpoint/resume tests exercise the true SIGKILL crash surface.  The
/// _Exit fallback (exit code 137 = 128 + SIGKILL) only runs if raise fails.
[[noreturn]] void crashProcessForFaultInjection() noexcept;

struct FaultSpec {
  std::string site;                ///< exact site name to match
  FaultKind kind = FaultKind::NewtonNonConverge;
  std::uint64_t triggerHit = 1;    ///< 1-based matching hit at which to start
  std::uint64_t count = 1;         ///< consecutive matching hits that fire
  /// When >= 0, the plan only matches hits made from inside the parallel
  /// task with this index (see TaskScope).  Keying by task index instead of
  /// global hit order makes injected faults land on the same sweep point
  /// regardless of thread count or execution interleaving.
  long long taskIndex = -1;
};

/// RAII marker: "the calling thread is executing parallel task @p index".
/// par::parallelFor wraps every task body in one, so a FaultSpec with
/// taskIndex >= 0 fires deterministically in that task no matter which
/// worker runs it or when.  Nests (restores the previous index on exit);
/// outside any task current() is -1.
class TaskScope {
 public:
  explicit TaskScope(long long index) noexcept;
  ~TaskScope();
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

  /// The innermost task index on this thread, or -1 outside any task.
  static long long current() noexcept;

 private:
  long long previous_;
};

/// Process-global, single-plan harness.  Tests arm/disarm around the code
/// under test; production code only ever calls shouldFire (via the macro).
/// Thread-safe; the armed flag is checked lock-free.
class FaultPlan {
 public:
  /// Arms @p spec, resetting the hit and fired tallies.
  static void arm(FaultSpec spec);

  /// Disarms any armed plan (tallies survive until the next arm()).
  static void disarm();

  static bool armed() noexcept;

  /// Hits observed at the armed plan's (site, kind) since arm().
  static std::uint64_t hits();

  /// Number of times the armed plan actually fired since arm().
  static std::uint64_t fired();

  /// Called by instrumented sites.  Counts a hit when (site, kind) matches
  /// the armed plan and reports whether this hit falls inside the firing
  /// window.  Never throws; returns false when nothing is armed.
  static bool shouldFire(const char* site, FaultKind kind) noexcept;

  /// RAII arm/disarm for tests.
  class Scope {
   public:
    explicit Scope(FaultSpec spec) { arm(std::move(spec)); }
    ~Scope() { disarm(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };
};

}  // namespace prox::support

#ifndef PROX_ENABLE_FAULT_INJECTION
#define PROX_ENABLE_FAULT_INJECTION 0
#endif

#if PROX_ENABLE_FAULT_INJECTION
/// True when the armed fault plan fires at this hit of @p site.  @p kind is
/// the bare FaultKind enumerator name.
#define PROX_FAULT_POINT(site, kind)             \
  (::prox::support::FaultPlan::shouldFire(       \
      site, ::prox::support::FaultKind::kind))
#else
#define PROX_FAULT_POINT(site, kind) (false)
#endif
