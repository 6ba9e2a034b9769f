#pragma once
// Process-wide observability registry: named monotonic counters and
// histogram-style timers, shared by every library layer.
//
// Design constraints (and how they are met):
//   * Hot-path increments must not perturb sub-microsecond code -> each
//     thread records into its own cache of single-writer atomic cells
//     (plain relaxed load/store, no lock-prefixed RMW, no contention).
//     Readers merge the per-thread cells plus a retired-threads tally under
//     the registry mutex; a thread's cells are folded into the tally when
//     the thread exits.
//   * Near-zero overhead when disabled -> every record path first reads a
//     single process-global relaxed atomic<bool>; a disabled registry costs
//     one predictable branch per site.
//   * Stable references -> instruments are heap-allocated once and never
//     freed, so call sites may cache `Counter&`/`Timer&` in function-local
//     statics.  resetAll() zeroes values but never invalidates references.
//
// Instrumented library code should use the PROX_OBS_* macros below, which
// compile to nothing when the build is configured with -DPROX_ENABLE_STATS=0
// (CMake option PROX_ENABLE_STATS).

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"

namespace prox::obs {

namespace detail {
// constinit: guarantees constant initialization, so cross-TU accesses are
// direct loads instead of calls through an initialization-guard wrapper.
extern constinit std::atomic<bool> gEnabled;
}  // namespace detail

/// True when recording is enabled (the default).  A single relaxed load.
inline bool enabled() noexcept {
  return detail::gEnabled.load(std::memory_order_relaxed);
}

/// Globally enables/disables all counters and timers.  Disabling does not
/// clear accumulated values.
inline void setEnabled(bool on) noexcept {
  detail::gEnabled.store(on, std::memory_order_relaxed);
}

namespace detail {

/// Instruments beyond these caps skip the per-thread cache and fall back to
/// shared atomic RMWs (correct, merely slower).  Generous for this codebase:
/// the full test suite plus benches create well under a hundred instruments.
inline constexpr std::uint32_t kMaxCounterCells = 1024;
inline constexpr std::uint32_t kMaxTimerCells = 256;

/// Single-writer accumulation cell: only the owning thread stores, so the
/// increment is a relaxed load + store pair (no lock prefix); readers on
/// other threads see values through relaxed loads.
struct CounterCell {
  std::atomic<std::uint64_t> value{0};

  void add(std::uint64_t n) noexcept {
    value.store(value.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
  }
};

struct TimerCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> total{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};

  void record(double seconds) noexcept {
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    total.store(total.load(std::memory_order_relaxed) + seconds,
                std::memory_order_relaxed);
    if (seconds < min.load(std::memory_order_relaxed)) {
      min.store(seconds, std::memory_order_relaxed);
    }
    if (seconds > max.load(std::memory_order_relaxed)) {
      max.store(seconds, std::memory_order_relaxed);
    }
  }
};

/// Fixed-size per-thread cell block (stable addresses: concurrent readers
/// never race with reallocation).
struct ThreadCache {
  CounterCell counters[kMaxCounterCells];
  TimerCell timers[kMaxTimerCells];
  HistogramCell histograms[kMaxHistogramCells];
};

/// This thread's cache pointer.  Null before first use and again after the
/// thread's cells have been retired (late records from other thread_local
/// destructors then take the shared fallback path).  constinit keeps the
/// access a direct TLS load (no wrapper call) from every TU.
extern thread_local constinit ThreadCache* tlsCache;

/// Slow path: allocates and registers this thread's cache.  Returns null
/// when the thread is past retirement (process/thread teardown).
ThreadCache* ensureThreadCache() noexcept;

inline ThreadCache* currentThreadCache() noexcept {
  ThreadCache* tc = tlsCache;
  return tc != nullptr ? tc : ensureThreadCache();
}

}  // namespace detail

/// Fetches the calling thread's cell block, or null when stats are disabled
/// (or the thread is past teardown).  Hot regions with several instrument
/// updates should fetch this once and use Counter::addTo/Timer::recordTo
/// (see PROX_OBS_BATCH below) instead of paying the enabled-check plus
/// thread-local lookup at every site.
inline detail::ThreadCache* batchCells() noexcept {
  return enabled() ? detail::currentThreadCache() : nullptr;
}

/// Monotonic event counter.  add() is wait-free; value() merges all threads.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    detail::ThreadCache* tc = id_ < detail::kMaxCounterCells
                                  ? detail::currentThreadCache()
                                  : nullptr;
    if (tc != nullptr) {
      tc->counters[id_].add(n);
    } else {
      retired_.fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// Batched add: @p tc is the caller's obs::batchCells() result (which
  /// already performed the enabled check).  Zero increments return
  /// immediately, so "usually zero" tallies cost one predictable branch.
  void addTo(detail::ThreadCache* tc, std::uint64_t n) noexcept {
    if (n == 0) return;
    if (tc != nullptr && id_ < detail::kMaxCounterCells) {
      tc->counters[id_].add(n);
    } else if (enabled()) {
      // Disabled (drop) vs. thread teardown / id beyond cap (shared tally).
      retired_.fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// Merged value across live threads and the retired tally.  Exact once
  /// writer threads have exited (thread exit folds their cells in) or
  /// quiesced; concurrently-recording threads may contribute late.
  std::uint64_t value() const noexcept;

  /// Zeroes the counter in every thread's cache.  Racy against concurrent
  /// add() by design (increments in flight may survive the reset).
  void reset() noexcept;

 private:
  friend class Registry;
  explicit Counter(std::uint32_t id) : id_(id) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::uint32_t id_;
  /// Tally of cells from exited threads, plus the fallback target when the
  /// per-thread cache is unavailable (id beyond cap, thread teardown).
  std::atomic<std::uint64_t> retired_{0};
};

/// Histogram-style accumulator of real-valued samples (wall-clock seconds
/// from ScopedTimer, or any physical quantity such as an applied correction).
/// Tracks count, sum, min and max; mean is derived at report time.
class Timer {
 public:
  void record(double seconds) noexcept {
    if (!enabled()) return;
    detail::ThreadCache* tc = id_ < detail::kMaxTimerCells
                                  ? detail::currentThreadCache()
                                  : nullptr;
    if (tc != nullptr) {
      tc->timers[id_].record(seconds);
    } else {
      recordShared(seconds);
    }
  }

  /// Batched record: @p tc is the caller's obs::batchCells() result.
  void recordTo(detail::ThreadCache* tc, double seconds) noexcept {
    if (tc != nullptr && id_ < detail::kMaxTimerCells) {
      tc->timers[id_].record(seconds);
    } else if (enabled()) {
      recordShared(seconds);
    }
  }

  std::uint64_t count() const noexcept { return stats().count; }
  double totalSeconds() const noexcept { return stats().total; }
  /// +infinity until the first sample.
  double minSeconds() const noexcept { return stats().min; }
  /// -infinity until the first sample.
  double maxSeconds() const noexcept { return stats().max; }

  struct Stats {
    std::uint64_t count = 0;
    double total = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();

    void merge(std::uint64_t c, double t, double lo, double hi) noexcept {
      count += c;
      total += t;
      if (lo < min) min = lo;
      if (hi > max) max = hi;
    }
  };

  /// Merged stats across live threads and the retired tally (same
  /// exactness caveats as Counter::value()).
  Stats stats() const noexcept;

  /// Zeroes the timer in every thread's cache (racy like Counter::reset).
  void reset() noexcept;

 private:
  friend class Registry;
  explicit Timer(std::uint32_t id) : id_(id) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void recordShared(double seconds) noexcept;

  const std::uint32_t id_;
  /// Merged samples from exited threads + shared fallback, guarded by the
  /// registry mutex (cold path only).
  Stats retired_;
};

/// The process-wide instrument table.  Lookup by name takes a mutex; the
/// returned references are valid for the lifetime of the process.
class Registry {
 public:
  static Registry& instance();

  /// Returns the counter named @p name, creating it on first use.
  Counter& counter(std::string_view name);

  /// Returns the timer named @p name, creating it on first use.
  Timer& timer(std::string_view name);

  /// Returns the histogram named @p name, creating it on first use.
  Histogram& histogram(std::string_view name);

  /// Enumerates every instrument in name order under the registry lock.
  /// Intended for snapshotting (obs::snapshot()), not for hot paths.  The
  /// histogram callback may be empty (older callers predate histograms).
  void visit(
      const std::function<void(const std::string&, const Counter&)>& onCounter,
      const std::function<void(const std::string&, const Timer&)>& onTimer,
      const std::function<void(const std::string&, const Histogram&)>&
          onHistogram = {}) const;

  /// Zeroes every instrument (references stay valid).
  void resetAll();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry() = default;
  friend class Counter;
  friend class Timer;
  friend class Histogram;
  friend detail::ThreadCache* detail::ensureThreadCache() noexcept;
  friend struct ThreadCacheReaper;

  detail::ThreadCache* adoptThreadCache();
  void retireThreadCache(detail::ThreadCache* cache);
  void retireCacheLocked(detail::ThreadCache* cache);

  std::uint64_t mergedCounter(const Counter& c) const;
  Timer::Stats mergedTimer(const Timer& t) const;
  HistogramData mergedHistogram(const Histogram& h) const;
  void resetCounter(Counter& c);
  void resetTimer(Timer& t);
  void resetHistogram(Histogram& h);

  // Recursive: visit() holds the lock while its callbacks read merged
  // values, which lock again.
  mutable std::recursive_mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<std::unique_ptr<detail::ThreadCache>> caches_;
};

/// Convenience shorthands for Registry::instance().counter()/timer()/
/// histogram().
Counter& counter(std::string_view name);
Timer& timer(std::string_view name);
Histogram& histogram(std::string_view name);

/// Zeroes every instrument in the process registry.
void resetAll();

}  // namespace prox::obs

// ---------------------------------------------------------------------------
// Instrumentation macros.  PROX_ENABLE_STATS is defined (0 or 1) by the
// build; when undefined (e.g. external consumers of the headers) stats
// default to on.  Each macro caches the instrument reference in a
// function-local static, so steady-state cost is one relaxed load (the
// enable flag) plus a thread-local cell update.
#ifndef PROX_ENABLE_STATS
#define PROX_ENABLE_STATS 1
#endif

namespace prox::obs {
/// True when the PROX_OBS_* macros are compiled in.  Code that asserts
/// counter values must check this, not enabled(): with stats compiled out
/// every counter stays 0 while the runtime switch still reads true.
inline constexpr bool kStatsCompiledIn = PROX_ENABLE_STATS != 0;
}  // namespace prox::obs

#if PROX_ENABLE_STATS
/// Adds @p n to the counter named @p name (a string literal).
#define PROX_OBS_COUNT(name, n)                                      \
  do {                                                               \
    static ::prox::obs::Counter& proxObsCounter_ =                   \
        ::prox::obs::counter(name);                                  \
    proxObsCounter_.add(static_cast<std::uint64_t>(n));              \
  } while (0)
/// Records @p seconds into the timer named @p name (a string literal).
#define PROX_OBS_RECORD(name, seconds)                               \
  do {                                                               \
    static ::prox::obs::Timer& proxObsTimer_ =                       \
        ::prox::obs::timer(name);                                    \
    proxObsTimer_.record(seconds);                                   \
  } while (0)
/// Declares @p var as this thread's cell block for batched updates.  Use in
/// hot regions with several instrument sites: the enabled check and
/// thread-local lookup are paid once, and each PROX_OBS_*_IN site below is a
/// bounds-checked indexed store.
#define PROX_OBS_BATCH(var) \
  ::prox::obs::detail::ThreadCache* const var = ::prox::obs::batchCells()
/// Adds @p n to the counter named @p name through the PROX_OBS_BATCH var.
#define PROX_OBS_COUNT_IN(cells, name, n)                            \
  do {                                                               \
    static ::prox::obs::Counter& proxObsCounter_ =                   \
        ::prox::obs::counter(name);                                  \
    proxObsCounter_.addTo(cells, static_cast<std::uint64_t>(n));     \
  } while (0)
/// Records @p seconds into the timer @p name through the PROX_OBS_BATCH var.
#define PROX_OBS_RECORD_IN(cells, name, seconds)                     \
  do {                                                               \
    static ::prox::obs::Timer& proxObsTimer_ =                       \
        ::prox::obs::timer(name);                                    \
    proxObsTimer_.recordTo(cells, seconds);                          \
  } while (0)
/// Records @p value (uint64-convertible) into the histogram named @p name.
#define PROX_OBS_HIST(name, value)                                   \
  do {                                                               \
    static ::prox::obs::Histogram& proxObsHist_ =                    \
        ::prox::obs::histogram(name);                                \
    proxObsHist_.record(static_cast<std::uint64_t>(value));          \
  } while (0)
/// Records @p value into the histogram @p name through the PROX_OBS_BATCH
/// var.
#define PROX_OBS_HIST_IN(cells, name, value)                         \
  do {                                                               \
    static ::prox::obs::Histogram& proxObsHist_ =                    \
        ::prox::obs::histogram(name);                                \
    proxObsHist_.recordTo(cells, static_cast<std::uint64_t>(value)); \
  } while (0)
#else
#define PROX_OBS_COUNT(name, n) \
  do {                          \
  } while (0)
#define PROX_OBS_RECORD(name, seconds) \
  do {                                 \
  } while (0)
#define PROX_OBS_BATCH(var) \
  do {                      \
  } while (0)
#define PROX_OBS_COUNT_IN(cells, name, n) \
  do {                                    \
  } while (0)
#define PROX_OBS_RECORD_IN(cells, name, seconds) \
  do {                                           \
  } while (0)
#define PROX_OBS_HIST(name, value) \
  do {                             \
  } while (0)
#define PROX_OBS_HIST_IN(cells, name, value) \
  do {                                       \
  } while (0)
#endif
