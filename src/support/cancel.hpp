#pragma once
// Cooperative cancellation: a CancelToken that long-running engines poll at
// bounded intervals, with deadline (--timeout watchdog) and POSIX-signal
// (SIGINT/SIGTERM) support.
//
// Design constraints (and how they are met):
//   * Signal handlers may only touch async-signal-safe state -> a token
//     cancels through plain lock-free atomic stores; the handler never
//     allocates, locks, or logs.
//   * Poll points sit inside sub-microsecond loops (one per transient
//     timestep, one per Newton iteration) -> pollCancellation() is a
//     thread-local pointer load plus a null check when no token is
//     installed; the deadline clock is only read when a deadline exists.
//   * Deep engine loops must not grow token parameters through every
//     signature -> the active token is installed per-thread with a
//     CancelScope (par::parallelFor installs the loop's token around each
//     task, so worker threads observe the same token as the caller).
//
// Cancellation surfaces as a typed DiagnosticError: StatusCode::Cancelled
// for an explicit cancel/signal, StatusCode::DeadlineExceeded for a tripped
// deadline.  Engines treat it like any other typed failure -- unwind,
// leaving journals/checkpoints flushed by their owners -- so a Ctrl-C run
// exits with a partial-but-valid checkpoint instead of a torn artifact.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "support/diagnostic.hpp"

namespace prox::support {

class CancelToken {
 public:
  CancelToken() = default;

  /// Requests cancellation.  Safe from any thread and from signal handlers
  /// (single lock-free atomic store).  @p signal records the POSIX signal
  /// number for diagnostics; 0 means a programmatic cancel.
  void cancel(int signal = 0) noexcept {
    signal_.store(signal, std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
  }

  /// Arms the deadline watchdog @p seconds from now.  seconds <= 0 (or NaN)
  /// trips at the first poll; a timeout beyond the clock's range (about 292
  /// years of nanoseconds) saturates to no deadline.  Not async-signal-safe
  /// (reads the clock); call from ordinary code before the work starts.
  void setTimeout(double seconds) noexcept {
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    // A double below 9e18 converts to int64 in range, and the sum is then
    // checked in integers, so neither the conversion nor the addition can
    // overflow.
    const double ns = seconds * 1e9;
    std::int64_t deadline = now;
    if (ns > 0.0) {
      const std::int64_t add =
          ns < 9e18 ? static_cast<std::int64_t>(ns) : kNoDeadline;
      deadline = add < kNoDeadline - now ? now + add : kNoDeadline;
    }
    deadlineNs_.store(deadline, std::memory_order_relaxed);
  }

  /// True once cancel() was called or the deadline passed.  The deadline
  /// check latches into the cancelled flag so later polls take the cheap
  /// path and reason() stays stable.
  bool cancelRequested() const noexcept {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    const std::int64_t dl = deadlineNs_.load(std::memory_order_relaxed);
    if (dl == kNoDeadline) return false;
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    if (std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() <
        dl) {
      return false;
    }
    deadlineHit_.store(true, std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
    return true;
  }

  /// Why the token tripped: Cancelled (explicit / signal) or
  /// DeadlineExceeded.  Ok when not cancelled.
  StatusCode reason() const noexcept {
    if (!cancelled_.load(std::memory_order_acquire)) return StatusCode::Ok;
    return deadlineHit_.load(std::memory_order_relaxed)
               ? StatusCode::DeadlineExceeded
               : StatusCode::Cancelled;
  }

  /// The POSIX signal that triggered cancellation, or 0.
  int signalNumber() const noexcept {
    return signal_.load(std::memory_order_relaxed);
  }

  /// Builds the typed diagnostic describing the cancellation.
  Diagnostic diagnostic(const char* site) const;

  /// Throws DiagnosticError(Cancelled/DeadlineExceeded) when tripped.
  void throwIfCancelled(const char* site) const {
    if (cancelRequested()) throw DiagnosticError(diagnostic(site));
  }

  /// Re-arms the token for reuse in tests.  Not safe concurrently with
  /// cancel()/polls.
  void reset() noexcept {
    cancelled_.store(false, std::memory_order_relaxed);
    deadlineHit_.store(false, std::memory_order_relaxed);
    signal_.store(0, std::memory_order_relaxed);
    deadlineNs_.store(kNoDeadline, std::memory_order_relaxed);
  }

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  // cancelled_ is mutable because the deadline check latches it from the
  // logically-const cancelRequested() poll.
  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<bool> deadlineHit_{false};
  std::atomic<int> signal_{0};
  std::atomic<std::int64_t> deadlineNs_{kNoDeadline};
};

namespace detail {
/// The token the current thread's engine loops poll; null when cancellation
/// is not in use (the fast path).  constinit keeps the access a direct TLS
/// load from every poll site.
extern thread_local constinit const CancelToken* tlsCancelToken;
}  // namespace detail

/// Installs @p token as the calling thread's active cancellation token for
/// the scope's lifetime (nests; restores the previous token on exit).
/// Accepts null (no-op scope), so call sites can install unconditionally.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token) noexcept
      : previous_(detail::tlsCancelToken) {
    if (token != nullptr) detail::tlsCancelToken = token;
  }
  ~CancelScope() { detail::tlsCancelToken = previous_; }
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* previous_;
};

/// The token installed on this thread, or null.
inline const CancelToken* currentCancelToken() noexcept {
  return detail::tlsCancelToken;
}

/// The poll point engine loops call (transient stepper per step, Newton per
/// iteration, DC sweep per point, parallelFor per task).  One thread-local
/// load + null check when cancellation is not in use; throws the token's
/// typed DiagnosticError once tripped.
inline void pollCancellation(const char* site) {
  const CancelToken* token = detail::tlsCancelToken;
  if (token != nullptr && token->cancelRequested()) {
    throw DiagnosticError(token->diagnostic(site));
  }
}

/// Routes SIGINT and SIGTERM to @p token for the scope's lifetime, restoring
/// the previous handlers on exit.  The handler performs only async-signal-
/// safe work (atomic stores into the token).  A second signal while the
/// first is still unwinding restores default disposition and re-raises, so
/// a hung teardown can still be interrupted.  At most one scope may be
/// active per process (enforced; nested installs throw).
class SignalCancelScope {
 public:
  explicit SignalCancelScope(CancelToken* token);
  ~SignalCancelScope();
  SignalCancelScope(const SignalCancelScope&) = delete;
  SignalCancelScope& operator=(const SignalCancelScope&) = delete;
};

}  // namespace prox::support
