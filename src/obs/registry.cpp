#include "obs/registry.hpp"

namespace prox::obs {

namespace detail {
constinit std::atomic<bool> gEnabled{true};
}  // namespace detail

// --- per-thread cache lifetime --------------------------------------------

namespace detail {
thread_local constinit ThreadCache* tlsCache = nullptr;
}  // namespace detail

namespace {
// Trivially-destructible flag: stays readable through the whole thread
// teardown sequence, unlike an object with a destructor.
thread_local bool tlsRetired = false;
}  // namespace

/// Folds the thread's cells into the registry when the thread exits.  Any
/// instrument use after this runs takes the shared fallback path (tlsCache
/// is null and tlsRetired blocks re-adoption).
struct ThreadCacheReaper {
  ~ThreadCacheReaper() {
    detail::ThreadCache* cache = detail::tlsCache;
    detail::tlsCache = nullptr;
    tlsRetired = true;
    if (cache != nullptr) {
      Registry::instance().retireThreadCache(cache);
    }
  }
};

namespace {
thread_local ThreadCacheReaper tlsReaper;
}  // namespace

namespace detail {

ThreadCache* ensureThreadCache() noexcept {
  if (tlsRetired) return nullptr;
  // Touch the reaper so its destructor is registered before the cache is
  // handed out (thread_locals are lazily constructed on first odr-use).
  (void)tlsReaper;
  tlsCache = Registry::instance().adoptThreadCache();
  return tlsCache;
}

}  // namespace detail

// --- Counter / Timer merged views -----------------------------------------

std::uint64_t Counter::value() const noexcept {
  return Registry::instance().mergedCounter(*this);
}

void Counter::reset() noexcept { Registry::instance().resetCounter(*this); }

Timer::Stats Timer::stats() const noexcept {
  return Registry::instance().mergedTimer(*this);
}

void Timer::reset() noexcept { Registry::instance().resetTimer(*this); }

void Timer::recordShared(double seconds) noexcept {
  // Cold path (instrument id beyond the cell cap, or thread teardown);
  // reuse the registry mutex rather than a per-timer lock.
  Registry& reg = Registry::instance();
  std::lock_guard<std::recursive_mutex> lock(reg.mu_);
  retired_.merge(1, seconds, seconds, seconds);
}

// --- Registry --------------------------------------------------------------

// Leaked on purpose: instrumented code may run during static destruction
// (e.g. a cached fixture tearing down a simulator), so the registry must
// outlive every other static.
Registry& Registry::instance() {
  static Registry* r = new Registry();
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    auto id = static_cast<std::uint32_t>(counters_.size());
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(id)))
             .first;
  }
  return *it->second;
}

Timer& Registry::timer(std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    auto id = static_cast<std::uint32_t>(timers_.size());
    it = timers_
             .emplace(std::string(name), std::unique_ptr<Timer>(new Timer(id)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    auto id = static_cast<std::uint32_t>(histograms_.size());
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(id)))
             .first;
  }
  return *it->second;
}

void Registry::visit(
    const std::function<void(const std::string&, const Counter&)>& onCounter,
    const std::function<void(const std::string&, const Timer&)>& onTimer,
    const std::function<void(const std::string&, const Histogram&)>&
        onHistogram) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (const auto& [name, c] : counters_) onCounter(name, *c);
  for (const auto& [name, t] : timers_) onTimer(name, *t);
  if (onHistogram) {
    for (const auto& [name, h] : histograms_) onHistogram(name, *h);
  }
}

void Registry::resetAll() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (auto& [name, c] : counters_) resetCounter(*c);
  for (auto& [name, t] : timers_) resetTimer(*t);
  for (auto& [name, h] : histograms_) resetHistogram(*h);
}

detail::ThreadCache* Registry::adoptThreadCache() {
  auto cache = std::make_unique<detail::ThreadCache>();
  detail::ThreadCache* raw = cache.get();
  std::lock_guard<std::recursive_mutex> lock(mu_);
  caches_.push_back(std::move(cache));
  return raw;
}

void Registry::retireThreadCache(detail::ThreadCache* cache) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  retireCacheLocked(cache);
  for (auto it = caches_.begin(); it != caches_.end(); ++it) {
    if (it->get() == cache) {
      caches_.erase(it);
      break;
    }
  }
}

/// Adds @p cache's cells into every instrument's retired tally.
void Registry::retireCacheLocked(detail::ThreadCache* cache) {
  for (const auto& [name, c] : counters_) {
    if (c->id_ >= detail::kMaxCounterCells) continue;
    std::uint64_t v =
        cache->counters[c->id_].value.load(std::memory_order_relaxed);
    if (v != 0) c->retired_.fetch_add(v, std::memory_order_relaxed);
  }
  for (const auto& [name, t] : timers_) {
    if (t->id_ >= detail::kMaxTimerCells) continue;
    const detail::TimerCell& cell = cache->timers[t->id_];
    std::uint64_t cnt = cell.count.load(std::memory_order_relaxed);
    if (cnt != 0) {
      t->retired_.merge(cnt, cell.total.load(std::memory_order_relaxed),
                        cell.min.load(std::memory_order_relaxed),
                        cell.max.load(std::memory_order_relaxed));
    }
  }
  for (const auto& [name, h] : histograms_) {
    if (h->id_ >= detail::kMaxHistogramCells) continue;
    const detail::HistogramCell& cell = cache->histograms[h->id_];
    if (cell.count.load(std::memory_order_relaxed) == 0) continue;
    HistogramData d;
    d.count = cell.count.load(std::memory_order_relaxed);
    d.sum = cell.sum.load(std::memory_order_relaxed);
    d.min = cell.min.load(std::memory_order_relaxed);
    d.max = cell.max.load(std::memory_order_relaxed);
    d.buckets.resize(detail::kHistBucketCount);
    for (std::uint32_t i = 0; i < detail::kHistBucketCount; ++i) {
      d.buckets[i] = cell.buckets[i].load(std::memory_order_relaxed);
    }
    h->retired_.merge(d);
  }
}

std::uint64_t Registry::mergedCounter(const Counter& c) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::uint64_t total = c.retired_.load(std::memory_order_relaxed);
  if (c.id_ < detail::kMaxCounterCells) {
    for (const auto& cache : caches_) {
      total += cache->counters[c.id_].value.load(std::memory_order_relaxed);
    }
  }
  return total;
}

Timer::Stats Registry::mergedTimer(const Timer& t) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Timer::Stats s = t.retired_;
  if (t.id_ < detail::kMaxTimerCells) {
    for (const auto& cache : caches_) {
      const detail::TimerCell& cell = cache->timers[t.id_];
      std::uint64_t cnt = cell.count.load(std::memory_order_relaxed);
      if (cnt != 0) {
        s.merge(cnt, cell.total.load(std::memory_order_relaxed),
                cell.min.load(std::memory_order_relaxed),
                cell.max.load(std::memory_order_relaxed));
      }
    }
  }
  return s;
}

HistogramData Registry::mergedHistogram(const Histogram& h) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  HistogramData out = h.retired_;
  if (h.id_ < detail::kMaxHistogramCells) {
    for (const auto& cache : caches_) {
      const detail::HistogramCell& cell = cache->histograms[h.id_];
      if (cell.count.load(std::memory_order_relaxed) == 0) continue;
      if (out.buckets.empty()) out.buckets.assign(detail::kHistBucketCount, 0);
      out.count += cell.count.load(std::memory_order_relaxed);
      out.sum += cell.sum.load(std::memory_order_relaxed);
      const std::uint64_t lo = cell.min.load(std::memory_order_relaxed);
      const std::uint64_t hi = cell.max.load(std::memory_order_relaxed);
      if (lo < out.min) out.min = lo;
      if (hi > out.max) out.max = hi;
      for (std::uint32_t i = 0; i < detail::kHistBucketCount; ++i) {
        out.buckets[i] += cell.buckets[i].load(std::memory_order_relaxed);
      }
    }
  }
  return out;
}

void Registry::resetCounter(Counter& c) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  c.retired_.store(0, std::memory_order_relaxed);
  if (c.id_ < detail::kMaxCounterCells) {
    for (auto& cache : caches_) {
      cache->counters[c.id_].value.store(0, std::memory_order_relaxed);
    }
  }
}

void Registry::resetTimer(Timer& t) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  t.retired_ = Timer::Stats{};
  if (t.id_ < detail::kMaxTimerCells) {
    for (auto& cache : caches_) {
      detail::TimerCell& cell = cache->timers[t.id_];
      cell.count.store(0, std::memory_order_relaxed);
      cell.total.store(0.0, std::memory_order_relaxed);
      cell.min.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
      cell.max.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    }
  }
}

void Registry::resetHistogram(Histogram& h) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  h.retired_ = HistogramData{};
  if (h.id_ < detail::kMaxHistogramCells) {
    for (auto& cache : caches_) {
      detail::HistogramCell& cell = cache->histograms[h.id_];
      for (std::uint32_t i = 0; i < detail::kHistBucketCount; ++i) {
        cell.buckets[i].store(0, std::memory_order_relaxed);
      }
      cell.count.store(0, std::memory_order_relaxed);
      cell.sum.store(0, std::memory_order_relaxed);
      cell.min.store(std::numeric_limits<std::uint64_t>::max(),
                     std::memory_order_relaxed);
      cell.max.store(0, std::memory_order_relaxed);
    }
  }
}

// --- free functions ---------------------------------------------------------

Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}

Timer& timer(std::string_view name) {
  return Registry::instance().timer(name);
}

void resetAll() { Registry::instance().resetAll(); }

}  // namespace prox::obs
