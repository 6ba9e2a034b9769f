#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace prox::obs::trace {

namespace detail {
constinit std::atomic<bool> gTracing{false};

std::uint64_t nowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace detail

namespace {

/// One ring slot.  All fields are atomics (relaxed) so the exporter may read
/// while the owning thread writes; the per-slot seqlock detects mid-overwrite
/// reads, which are skipped rather than torn.
struct Slot {
  std::atomic<std::uint32_t> seq{0};  // odd while being written
  std::atomic<char> phase{0};         // 0 = never written
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> argName{nullptr};
  std::atomic<std::uint64_t> start{0};
  std::atomic<std::uint64_t> dur{0};
  std::atomic<std::uint64_t> id{0};
  std::atomic<std::uint64_t> argValue{0};
};

/// A decoded event, safe to hold after the slot may be overwritten.
struct PlainEvent {
  std::uint64_t start = 0;
  std::uint64_t dur = 0;
  std::uint64_t id = 0;
  std::uint64_t argValue = 0;
  const char* name = nullptr;
  const char* argName = nullptr;
  std::uint32_t tid = 0;
  char phase = 0;
};

/// Per-thread ring buffer: only the owning thread writes slots and head.
class Buffer {
 public:
  Buffer(std::size_t capacity, std::uint32_t tid)
      : slots_(new Slot[capacity]), cap_(capacity), tid_(tid) {}

  void emit(char phase, const char* name, std::uint64_t start,
            std::uint64_t dur, std::uint64_t id, const char* argName,
            std::uint64_t argValue) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h % cap_];
    const std::uint32_t seq0 = s.seq.load(std::memory_order_relaxed);
    s.seq.store(seq0 + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.phase.store(phase, std::memory_order_relaxed);
    s.name.store(name, std::memory_order_relaxed);
    s.argName.store(argName, std::memory_order_relaxed);
    s.start.store(start, std::memory_order_relaxed);
    s.dur.store(dur, std::memory_order_relaxed);
    s.id.store(id, std::memory_order_relaxed);
    s.argValue.store(argValue, std::memory_order_relaxed);
    s.seq.store(seq0 + 2, std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  void drain(std::vector<PlainEvent>& out) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(h, cap_);
    for (std::uint64_t i = h - n; i < h; ++i) {
      const Slot& s = slots_[i % cap_];
      const std::uint32_t seq0 = s.seq.load(std::memory_order_acquire);
      if ((seq0 & 1u) != 0) continue;  // mid-write
      PlainEvent e;
      e.phase = s.phase.load(std::memory_order_relaxed);
      e.name = s.name.load(std::memory_order_relaxed);
      e.argName = s.argName.load(std::memory_order_relaxed);
      e.start = s.start.load(std::memory_order_relaxed);
      e.dur = s.dur.load(std::memory_order_relaxed);
      e.id = s.id.load(std::memory_order_relaxed);
      e.argValue = s.argValue.load(std::memory_order_relaxed);
      e.tid = tid_;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != seq0) continue;  // torn
      if (e.phase == 0 || e.name == nullptr) continue;
      out.push_back(e);
    }
  }

  std::uint64_t dropped() const noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    return h > cap_ ? h - cap_ : 0;
  }

  void clear() noexcept {
    // Only called while no session is active (writers are disarmed).
    head_.store(0, std::memory_order_relaxed);
  }

  std::uint32_t tid() const noexcept { return tid_; }
  void setThreadName(const char* interned) noexcept {
    threadName_.store(interned, std::memory_order_relaxed);
  }
  const char* threadName() const noexcept {
    return threadName_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<Slot[]> slots_;
  std::size_t cap_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<const char*> threadName_{nullptr};
  std::uint32_t tid_;
};

thread_local constinit Buffer* tlsBuffer = nullptr;

/// Thread name announced before this thread ever emitted (i.e. before it has
/// a buffer).  Kept out of the buffer so threads that are never traced do
/// not allocate a ring just to carry a label.
std::string& pendingThreadName() {
  static thread_local std::string name;
  return name;
}

/// Process-wide buffer table.  Leaked like the registry: traced code may run
/// during static destruction.  Buffers are never removed (an exiting thread's
/// events stay exportable); new threads get fresh buffers at the capacity of
/// the session that was active when they first emitted.
class Collector {
 public:
  static Collector& instance() {
    static Collector* c = new Collector();
    return *c;
  }

  Buffer* adoptBuffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>(
        capacity_, static_cast<std::uint32_t>(buffers_.size() + 1)));
    return buffers_.back().get();
  }

  const char* intern(std::string s) {
    std::lock_guard<std::mutex> lock(mu_);
    interned_.push_back(std::move(s));
    return interned_.back().c_str();
  }

  void beginSession(std::size_t capacity, std::uint64_t t0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessionActive_) {
      throw std::runtime_error(
          "obs::trace: a TraceSession is already active");
    }
    sessionActive_ = true;
    capacity_ = capacity;
    t0_ = t0;
    for (auto& b : buffers_) b->clear();
  }

  void endSession() noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    sessionActive_ = false;
  }

  std::uint64_t t0() const noexcept { return t0_; }

  std::uint64_t droppedTotal() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (const auto& b : buffers_) total += b->dropped();
    return total;
  }

  void collect(std::vector<PlainEvent>& events,
               std::vector<std::pair<std::uint32_t, const char*>>& names)
      const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      b->drain(events);
      if (b->threadName() != nullptr) {
        names.emplace_back(b->tid(), b->threadName());
      }
    }
  }

 private:
  Collector() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::deque<std::string> interned_;  // stable addresses
  std::size_t capacity_ = 8192;
  std::uint64_t t0_ = 0;
  bool sessionActive_ = false;
};

Buffer* currentBuffer() {
  Buffer* b = tlsBuffer;
  if (b == nullptr) {
    Collector& c = Collector::instance();
    b = c.adoptBuffer();
    tlsBuffer = b;
    std::string& pending = pendingThreadName();
    if (!pending.empty()) {
      b->setThreadName(c.intern(pending));
      pending.clear();
    }
  }
  return b;
}

void jsonEscape(const char* s, std::ostream& os) {
  for (; *s != '\0'; ++s) {
    const char ch = *s;
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
}

void writeMicros(std::uint64_t ns, std::ostream& os) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  os << buf;
}

}  // namespace

namespace detail {

void emit(char phase, const char* name, std::uint64_t startNs,
          std::uint64_t durNs, std::uint64_t id, const char* argName,
          std::uint64_t argValue) noexcept {
  currentBuffer()->emit(phase, name, startNs, durNs, id, argName, argValue);
}

}  // namespace detail

void completeEvent(const char* name, std::uint64_t startNs, std::uint64_t durNs,
                   const char* argName, std::uint64_t argValue) noexcept {
  if (!active()) return;
  detail::emit('X', name, startNs, durNs, 0, argName, argValue);
}

void asyncBegin(const char* name, std::uint64_t id) noexcept {
  if (!active()) return;
  detail::emit('b', name, detail::nowNs(), 0, id, nullptr, 0);
}

void asyncEnd(const char* name, std::uint64_t id) noexcept {
  if (!active()) return;
  detail::emit('e', name, detail::nowNs(), 0, id, nullptr, 0);
}

void counterSample(const char* name, std::uint64_t value) noexcept {
  if (!active()) return;
  detail::emit('C', name, detail::nowNs(), 0, 0, "value", value);
}

void instant(const char* name) noexcept {
  if (!active()) return;
  detail::emit('i', name, detail::nowNs(), 0, 0, nullptr, 0);
}

void setCurrentThreadName(std::string name) noexcept {
  // Sticky (survives session boundaries): pool workers name themselves once
  // at startup, possibly before any session starts.  Don't allocate a ring
  // for an untraced thread just to hold its label -- park the name until the
  // thread first emits.
  if (tlsBuffer == nullptr && !active()) {
    pendingThreadName() = std::move(name);
    return;
  }
  Collector& c = Collector::instance();
  currentBuffer()->setThreadName(c.intern(std::move(name)));
}

TraceSession::TraceSession() : TraceSession(Options{}) {}

TraceSession::TraceSession(Options opts) {
  Collector::instance().beginSession(std::max<std::size_t>(opts.bufferCapacity,
                                                           16),
                                     detail::nowNs());
  detail::gTracing.store(true, std::memory_order_relaxed);
}

TraceSession::~TraceSession() {
  stop();
  Collector::instance().endSession();
}

void TraceSession::stop() noexcept {
  detail::gTracing.store(false, std::memory_order_relaxed);
}

std::uint64_t TraceSession::droppedEvents() const noexcept {
  return Collector::instance().droppedTotal();
}

void TraceSession::exportJson(std::ostream& os) {
  stop();
  Collector& coll = Collector::instance();

  std::vector<PlainEvent> events;
  std::vector<std::pair<std::uint32_t, const char*>> threadNames;
  coll.collect(events, threadNames);
  std::stable_sort(events.begin(), events.end(),
                   [](const PlainEvent& a, const PlainEvent& b) {
                     return a.start < b.start;
                   });

  const std::uint64_t t0 = coll.t0();
  os << "{\n  \"displayTimeUnit\": \"ms\",\n";
  os << "  \"droppedEvents\": " << coll.droppedTotal() << ",\n";
  os << "  \"traceEvents\": [\n";
  os << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"tid\": 0, \"args\": {\"name\": \"prox\"}}";
  for (const auto& [tid, name] : threadNames) {
    os << ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": "
       << tid << ", \"args\": {\"name\": \"";
    jsonEscape(name, os);
    os << "\"}}";
  }
  for (const PlainEvent& e : events) {
    os << ",\n    {\"name\": \"";
    jsonEscape(e.name, os);
    os << "\", \"ph\": \"" << e.phase << "\", \"pid\": 1, \"tid\": " << e.tid
       << ", \"ts\": ";
    // Events from a buffer that predates the session cannot occur (rings are
    // cleared at session start), so start >= t0 always holds.
    writeMicros(e.start >= t0 ? e.start - t0 : 0, os);
    switch (e.phase) {
      case 'X':
        os << ", \"dur\": ";
        writeMicros(e.dur, os);
        break;
      case 'b':
      case 'e': {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      static_cast<unsigned long long>(e.id));
        os << ", \"cat\": \"async\", \"id\": \"" << buf << "\"";
        break;
      }
      case 'i':
        os << ", \"s\": \"t\"";
        break;
      default:
        break;
    }
    if (e.argName != nullptr) {
      os << ", \"args\": {\"";
      jsonEscape(e.argName, os);
      os << "\": " << e.argValue << "}";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

std::string TraceSession::exportJson() {
  std::ostringstream os;
  exportJson(os);
  return os.str();
}

}  // namespace prox::obs::trace
