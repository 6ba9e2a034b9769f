#pragma once
// Hierarchical tracing: spans, async begin/end pairs, counter samples and
// instant markers recorded into per-thread lock-free ring buffers, exported
// as Chrome trace-event / Perfetto-compatible JSON.
//
// Recording discipline mirrors the registry (registry.hpp): each thread owns
// a ring buffer whose slots only it writes.  Slot fields are relaxed atomics
// guarded by a per-slot sequence number (seqlock), so the exporter may read
// concurrently -- a slot caught mid-overwrite is simply skipped.  Rings drop
// the *oldest* events on wraparound and count what they dropped.
//
// When no TraceSession is active every record path is one relaxed load of a
// process-global flag; with PROX_ENABLE_STATS=0 the PROX_OBS_SPAN / PROX_OBS_
// TRACE_* macros compile to nothing.
//
// Span names passed through the hot-path API must be string literals (or
// otherwise outlive the session); dynamic names (thread names) are interned.
//
// File layering note: obs sits below support, so writing the exported JSON
// through support::AtomicFileWriter happens in the tools
// (examples/*, bench/*): `writeFileAtomic(path, [&](auto& os) {
// session.exportJson(os); })`.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace prox::obs::trace {

namespace detail {
extern constinit std::atomic<bool> gTracing;

/// Monotonic wall clock in nanoseconds (steady_clock).
std::uint64_t nowNs() noexcept;

void emit(char phase, const char* name, std::uint64_t startNs,
          std::uint64_t durNs, std::uint64_t id, const char* argName,
          std::uint64_t argValue) noexcept;
}  // namespace detail

/// True while a TraceSession is recording.  A single relaxed load.
inline bool active() noexcept {
  return detail::gTracing.load(std::memory_order_relaxed);
}

/// Emits a completed span [startNs, startNs+durNs) on the calling thread.
void completeEvent(const char* name, std::uint64_t startNs, std::uint64_t durNs,
                   const char* argName = nullptr,
                   std::uint64_t argValue = 0) noexcept;

/// Async (non-scoped) work: begin/end pairs matched by (name, id) across
/// threads.  Use for work that starts on one thread and finishes on another.
void asyncBegin(const char* name, std::uint64_t id) noexcept;
void asyncEnd(const char* name, std::uint64_t id) noexcept;

/// Emits a counter sample (rendered as a track in Perfetto).
void counterSample(const char* name, std::uint64_t value) noexcept;

/// Emits an instant marker.
void instant(const char* name) noexcept;

/// Names the calling thread's track in the exported trace (interned copy).
void setCurrentThreadName(std::string name) noexcept;

/// RAII span: records a complete event covering its lifetime.  Disarmed
/// construction (no active session) costs one relaxed load.
class Span {
 public:
  explicit Span(const char* name) noexcept
      : name_(name), start_(active() ? detail::nowNs() : 0) {}
  Span(const char* name, const char* argName, std::uint64_t argValue) noexcept
      : name_(name), argName_(argName), argValue_(argValue),
        start_(active() ? detail::nowNs() : 0) {}

  ~Span() {
    if (start_ != 0 && active()) {
      completeEvent(name_, start_, detail::nowNs() - start_, argName_,
                    argValue_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* argName_ = nullptr;
  std::uint64_t argValue_ = 0;
  std::uint64_t start_;  // 0 = disarmed
};

/// One recording window.  At most one session may be active at a time
/// (enforced: a second concurrent session throws).  Construction clears all
/// ring buffers and enables recording; stop() (or destruction) disables it.
/// exportJson() stops the session, merges every thread's ring in timestamp
/// order and writes Chrome trace JSON ({"traceEvents": [...], ...}).
class TraceSession {
 public:
  struct Options {
    /// Events retained per thread; older events beyond this are dropped
    /// (counted in droppedEvents()).
    std::size_t bufferCapacity = 8192;
  };

  TraceSession();
  explicit TraceSession(Options opts);
  ~TraceSession();

  /// Stops recording (idempotent).  Already-buffered events remain
  /// exportable.
  void stop() noexcept;

  /// Stops, merges and serializes.  May be called more than once.
  void exportJson(std::ostream& os);
  std::string exportJson();

  /// Events lost to ring wraparound, summed over all threads.
  std::uint64_t droppedEvents() const noexcept;

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
};

}  // namespace prox::obs::trace

// ---------------------------------------------------------------------------
// Tracing macros (compiled out under PROX_ENABLE_STATS=0, like the registry
// macros in registry.hpp).
#ifndef PROX_ENABLE_STATS
#define PROX_ENABLE_STATS 1
#endif

#if PROX_ENABLE_STATS
#define PROX_OBS_TRACE_CAT2(a, b) a##b
#define PROX_OBS_TRACE_CAT(a, b) PROX_OBS_TRACE_CAT2(a, b)
/// Spans the enclosing scope under @p name (a string literal).
#define PROX_OBS_SPAN(name) \
  ::prox::obs::trace::Span PROX_OBS_TRACE_CAT(proxObsSpan_, __LINE__)(name)
/// Span with one uint64 argument, e.g. PROX_OBS_SPAN_ARG("char.point",
/// "index", i).
#define PROX_OBS_SPAN_ARG(name, argName, argValue)                   \
  ::prox::obs::trace::Span PROX_OBS_TRACE_CAT(proxObsSpan_,          \
                                              __LINE__)(             \
      name, argName, static_cast<std::uint64_t>(argValue))
#define PROX_OBS_ASYNC_BEGIN(name, id) \
  ::prox::obs::trace::asyncBegin(name, static_cast<std::uint64_t>(id))
#define PROX_OBS_ASYNC_END(name, id) \
  ::prox::obs::trace::asyncEnd(name, static_cast<std::uint64_t>(id))
#define PROX_OBS_TRACE_COUNTER(name, value) \
  ::prox::obs::trace::counterSample(name, static_cast<std::uint64_t>(value))
#define PROX_OBS_TRACE_INSTANT(name) ::prox::obs::trace::instant(name)
#define PROX_OBS_THREAD_NAME(name) \
  ::prox::obs::trace::setCurrentThreadName(name)
#else
#define PROX_OBS_SPAN(name) \
  do {                      \
  } while (0)
// The value operands are referenced unevaluated so locals computed only to
// feed a trace site don't become -Wunused-variable in the compiled-out build.
#define PROX_OBS_SPAN_ARG(name, argName, argValue)   \
  do {                                               \
    static_cast<void>(sizeof((argValue), 0));        \
  } while (0)
#define PROX_OBS_ASYNC_BEGIN(name, id)               \
  do {                                               \
    static_cast<void>(sizeof((id), 0));              \
  } while (0)
#define PROX_OBS_ASYNC_END(name, id)                 \
  do {                                               \
    static_cast<void>(sizeof((id), 0));              \
  } while (0)
#define PROX_OBS_TRACE_COUNTER(name, value)          \
  do {                                               \
    static_cast<void>(sizeof((value), 0));           \
  } while (0)
#define PROX_OBS_TRACE_INSTANT(name) \
  do {                               \
  } while (0)
#define PROX_OBS_THREAD_NAME(name)                   \
  do {                                               \
    static_cast<void>(sizeof((name), 0));            \
  } while (0)
#endif
