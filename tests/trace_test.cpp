// Tests for the tracing layer (obs/trace.hpp): span nesting, ring-buffer
// wraparound, cross-thread merge ordering, exported-JSON validity (checked
// through the library's own JSON parser), session lifecycle, and the
// histogram round trip through the schema-v2 stats report.
//
// Each test owns at most one TraceSession at a time (a second concurrent
// session throws by contract), and sessions are destroyed before the test
// returns so tests stay independent.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace obs = prox::obs;
namespace trace = prox::obs::trace;

namespace {

// Parses an exported trace and returns the traceEvents array, checking the
// envelope shape on the way (valid JSON, displayTimeUnit, droppedEvents).
// EXPECT (not ASSERT) throughout: gtest fatal assertions need a void return.
std::vector<obs::json::Value> parseTrace(const std::string& text,
                                         obs::json::Value* root) {
  *root = obs::json::parse(text);
  EXPECT_TRUE(root->is(obs::json::Value::Kind::Object));
  const obs::json::Value* unit = root->find("displayTimeUnit");
  EXPECT_NE(unit, nullptr) << "missing displayTimeUnit";
  if (unit != nullptr) {
    EXPECT_EQ(unit->str, "ms");
  }
  const obs::json::Value* dropped = root->find("droppedEvents");
  EXPECT_NE(dropped, nullptr) << "missing droppedEvents";
  if (dropped != nullptr) {
    EXPECT_TRUE(dropped->is(obs::json::Value::Kind::Number));
  }
  const obs::json::Value* events = root->find("traceEvents");
  EXPECT_NE(events, nullptr) << "missing traceEvents";
  if (events == nullptr || !events->is(obs::json::Value::Kind::Array)) {
    return {};
  }
  return events->array;
}

std::string eventName(const obs::json::Value& e) {
  const obs::json::Value* n = e.find("name");
  return n != nullptr ? n->str : std::string();
}

std::string eventPhase(const obs::json::Value& e) {
  const obs::json::Value* ph = e.find("ph");
  return ph != nullptr ? ph->str : std::string();
}

double numberField(const obs::json::Value& e, const char* key) {
  const obs::json::Value* v = e.find(key);
  EXPECT_NE(v, nullptr) << "missing field " << key;
  if (v == nullptr) return 0.0;
  EXPECT_TRUE(v->is(obs::json::Value::Kind::Number)) << key;
  return v->number;
}

// First event with the given name, or null.
const obs::json::Value* findEvent(const std::vector<obs::json::Value>& events,
                                  const std::string& name) {
  for (const auto& e : events) {
    if (eventName(e) == name) return &e;
  }
  return nullptr;
}

void spinFor(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

TEST(TraceTest, SpanNestingInExportedJson) {
  trace::TraceSession session;
  {
    // The Span class itself works in every build flavor (only the macros
    // compile out), so this test needs no PROX_ENABLE_STATS gate.
    trace::Span outer("trace_test.outer");
    spinFor(std::chrono::microseconds(200));
    {
      trace::Span inner("trace_test.inner", "k", 7);
      spinFor(std::chrono::microseconds(200));
    }
    spinFor(std::chrono::microseconds(200));
  }

  obs::json::Value root;
  const auto events = parseTrace(session.exportJson(), &root);
  const obs::json::Value* outer = findEvent(events, "trace_test.outer");
  const obs::json::Value* inner = findEvent(events, "trace_test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(eventPhase(*outer), "X");
  EXPECT_EQ(eventPhase(*inner), "X");

  // The child's [ts, ts+dur) interval nests strictly inside the parent's.
  const double outerTs = numberField(*outer, "ts");
  const double outerDur = numberField(*outer, "dur");
  const double innerTs = numberField(*inner, "ts");
  const double innerDur = numberField(*inner, "dur");
  EXPECT_LT(outerTs, innerTs);
  EXPECT_GT(outerTs + outerDur, innerTs + innerDur);
  EXPECT_GT(innerDur, 0.0);

  // The span argument survives export.
  const obs::json::Value* args = inner->find("args");
  ASSERT_NE(args, nullptr);
  const obs::json::Value* k = args->find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->number, 7.0);

  // Both spans ran on the same thread and both events carry pid/tid.
  EXPECT_EQ(numberField(*outer, "tid"), numberField(*inner, "tid"));
  EXPECT_EQ(numberField(*outer, "pid"), 1.0);
}

TEST(TraceTest, RingBufferWraparoundDropsOldestAndCounts) {
  constexpr std::uint64_t kEmitted = 100;
  constexpr std::uint64_t kCapacity = 16;  // the documented minimum clamp

  trace::TraceSession session(trace::TraceSession::Options{kCapacity});
  // A fresh thread adopts a ring at the *session's* capacity (pre-existing
  // threads keep the capacity they were created with), so the wraparound
  // path is exercised deterministically.
  std::thread emitter([] {
    for (std::uint64_t i = 0; i < kEmitted; ++i) {
      trace::completeEvent("trace_test.wrap", trace::detail::nowNs() - 1000,
                           1000, "i", i);
    }
  });
  emitter.join();
  session.stop();

  EXPECT_EQ(session.droppedEvents(), kEmitted - kCapacity);

  obs::json::Value root;
  const auto events = parseTrace(session.exportJson(), &root);
  EXPECT_EQ(root.find("droppedEvents")->number,
            static_cast<double>(kEmitted - kCapacity));

  // Exactly the newest kCapacity survive: argValues kEmitted-kCapacity ..
  // kEmitted-1, nothing older.
  std::vector<double> kept;
  for (const auto& e : events) {
    if (eventName(e) != "trace_test.wrap") continue;
    const obs::json::Value* args = e.find("args");
    ASSERT_NE(args, nullptr);
    kept.push_back(args->find("i")->number);
  }
  ASSERT_EQ(kept.size(), kCapacity);
  std::sort(kept.begin(), kept.end());
  for (std::uint64_t j = 0; j < kCapacity; ++j) {
    EXPECT_EQ(kept[j], static_cast<double>(kEmitted - kCapacity + j));
  }
}

TEST(TraceTest, CrossThreadMergeIsTimestampOrderedWithNamedTracks) {
  trace::TraceSession session;
  auto worker = [](const char* threadName, const char* spanName) {
    trace::setCurrentThreadName(threadName);
    for (int i = 0; i < 8; ++i) {
      trace::Span s(spanName);
      spinFor(std::chrono::microseconds(50));
    }
  };
  std::thread t1(worker, "trace-test-alpha", "trace_test.alpha");
  std::thread t2(worker, "trace-test-beta", "trace_test.beta");
  t1.join();
  t2.join();

  obs::json::Value root;
  const auto events = parseTrace(session.exportJson(), &root);

  // Both threads' spans made it into one merged stream, ordered by start
  // timestamp, on distinct tid tracks.
  double lastTs = -1.0;
  double alphaTid = -1.0;
  double betaTid = -1.0;
  int alphaCount = 0;
  int betaCount = 0;
  std::vector<std::string> threadNames;
  for (const auto& e : events) {
    if (eventPhase(e) == "M") {
      if (eventName(e) == "thread_name") {
        threadNames.push_back(e.find("args")->find("name")->str);
      }
      continue;  // metadata records carry no timestamp
    }
    const double ts = numberField(e, "ts");
    EXPECT_GE(ts, lastTs) << "merged events out of timestamp order";
    lastTs = ts;
    if (eventName(e) == "trace_test.alpha") {
      ++alphaCount;
      alphaTid = numberField(e, "tid");
    } else if (eventName(e) == "trace_test.beta") {
      ++betaCount;
      betaTid = numberField(e, "tid");
    }
  }
  EXPECT_EQ(alphaCount, 8);
  EXPECT_EQ(betaCount, 8);
  EXPECT_NE(alphaTid, betaTid);
  EXPECT_NE(std::find(threadNames.begin(), threadNames.end(),
                      "trace-test-alpha"),
            threadNames.end());
  EXPECT_NE(std::find(threadNames.begin(), threadNames.end(),
                      "trace-test-beta"),
            threadNames.end());
}

TEST(TraceTest, EventShapesMatchChromeTraceFormat) {
  trace::TraceSession session;
  trace::counterSample("trace_test.counter", 42);
  trace::instant("trace_test.marker");
  trace::asyncBegin("trace_test.async", 0xabcd);
  spinFor(std::chrono::microseconds(50));
  trace::asyncEnd("trace_test.async", 0xabcd);

  obs::json::Value root;
  const auto events = parseTrace(session.exportJson(), &root);

  const obs::json::Value* process = findEvent(events, "process_name");
  ASSERT_NE(process, nullptr);
  EXPECT_EQ(eventPhase(*process), "M");
  EXPECT_EQ(process->find("args")->find("name")->str, "prox");

  const obs::json::Value* counter = findEvent(events, "trace_test.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(eventPhase(*counter), "C");
  EXPECT_EQ(counter->find("args")->find("value")->number, 42.0);

  const obs::json::Value* marker = findEvent(events, "trace_test.marker");
  ASSERT_NE(marker, nullptr);
  EXPECT_EQ(eventPhase(*marker), "i");
  ASSERT_NE(marker->find("s"), nullptr);
  EXPECT_EQ(marker->find("s")->str, "t");

  // Async begin/end pair: matching category and id, begin before end.
  const obs::json::Value* begin = nullptr;
  const obs::json::Value* end = nullptr;
  for (const auto& e : events) {
    if (eventName(e) != "trace_test.async") continue;
    if (eventPhase(e) == "b") begin = &e;
    if (eventPhase(e) == "e") end = &e;
  }
  ASSERT_NE(begin, nullptr);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(begin->find("cat")->str, "async");
  EXPECT_EQ(begin->find("id")->str, end->find("id")->str);
  EXPECT_LT(numberField(*begin, "ts"), numberField(*end, "ts"));
}

TEST(TraceTest, SecondConcurrentSessionThrows) {
  trace::TraceSession first;
  EXPECT_THROW(trace::TraceSession second, std::runtime_error);
  // The first session survives the failed construction.
  EXPECT_TRUE(trace::active());
}

TEST(TraceTest, NewSessionClearsEventsFromThePreviousOne) {
  {
    trace::TraceSession first;
    trace::instant("trace_test.stale");
    obs::json::Value root;
    const auto events = parseTrace(first.exportJson(), &root);
    EXPECT_NE(findEvent(events, "trace_test.stale"), nullptr);
  }
  trace::TraceSession second;
  obs::json::Value root;
  const auto events = parseTrace(second.exportJson(), &root);
  EXPECT_EQ(findEvent(events, "trace_test.stale"), nullptr);
  EXPECT_EQ(second.droppedEvents(), 0u);
}

TEST(TraceTest, RecordingOutsideASessionIsDropped) {
  ASSERT_FALSE(trace::active());
  // All record paths reduce to one relaxed load and emit nothing.
  trace::completeEvent("trace_test.orphan", 1, 1);
  trace::instant("trace_test.orphan");
  trace::counterSample("trace_test.orphan", 1);
  { trace::Span s("trace_test.orphan"); }

  trace::TraceSession session;
  obs::json::Value root;
  const auto events = parseTrace(session.exportJson(), &root);
  EXPECT_EQ(findEvent(events, "trace_test.orphan"), nullptr);
}

// --- histogram round trip through the schema-v2 report ----------------------

TEST(TraceTest, HistogramRoundTripsThroughReportSchemaV2) {
#if PROX_ENABLE_STATS
  obs::Histogram& h = obs::histogram("trace_test.rt_hist");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);

  const std::string text = obs::toJson();
  const obs::Report parsed = obs::parseJson(text);
  EXPECT_EQ(parsed.schemaVersion, 4);

  const obs::HistogramSample* s = parsed.histogramNamed("trace_test.rt_hist");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 100u);
  EXPECT_EQ(s->sum, 5050u);
  EXPECT_EQ(s->min, 1u);
  EXPECT_EQ(s->max, 100u);
  // Quantiles come back as the serialized derived fields; bucket midpoints
  // keep them within the bucketing scheme's 12.5% relative error.
  EXPECT_NEAR(s->p50, 50.0, 50.0 * 0.15);
  EXPECT_NEAR(s->p90, 90.0, 90.0 * 0.15);
  EXPECT_NEAR(s->p99, 99.0, 99.0 * 0.15);

  // The sparse bucket list reconstructs count and sum bounds: every entry is
  // (index, occupancy) with indices strictly increasing.
  ASSERT_FALSE(s->buckets.empty());
  std::uint64_t total = 0;
  std::uint32_t lastIndex = 0;
  bool firstEntry = true;
  for (const auto& [index, occupancy] : s->buckets) {
    EXPECT_TRUE(firstEntry || index > lastIndex);
    firstEntry = false;
    lastIndex = index;
    EXPECT_GT(occupancy, 0u);
    total += occupancy;
  }
  EXPECT_EQ(total, 100u);
#else
  // Disabled build: the report still serializes and parses as the current
  // schema, with the histogram section present but empty.
  const obs::Report parsed = obs::parseJson(obs::toJson());
  EXPECT_EQ(parsed.schemaVersion, 4);
  EXPECT_EQ(parsed.histogramNamed("trace_test.rt_hist"), nullptr);
#endif
}

TEST(TraceTest, V1ReportsStillParseWithoutHistograms) {
  const std::string v1 = R"({
    "enabled": true,
    "counters": {"legacy.counter": 7},
    "timers": {
      "legacy.timer": {"count": 2, "total_s": 0.5, "min_s": 0.2,
                       "max_s": 0.3, "mean_s": 0.25}
    }
  })";
  const obs::Report parsed = obs::parseJson(v1);
  EXPECT_EQ(parsed.schemaVersion, 1);
  EXPECT_EQ(parsed.counterValue("legacy.counter"), 7u);
  EXPECT_TRUE(parsed.histograms.empty());
  ASSERT_EQ(parsed.timers.size(), 1u);
  EXPECT_EQ(parsed.timers[0].count, 2u);
}

TEST(TraceTest, V2ReportsStillParseWithoutLabels) {
  const std::string v2 = R"({
    "schema_version": 2,
    "enabled": true,
    "counters": {"legacy.counter": 7},
    "timers": {},
    "histograms": {}
  })";
  const obs::Report parsed = obs::parseJson(v2);
  EXPECT_EQ(parsed.schemaVersion, 2);
  EXPECT_EQ(parsed.counterValue("legacy.counter"), 7u);
}

TEST(TraceTest, ProvenanceStampsRoundTripThroughReportSchemaV4) {
  obs::Report r = obs::snapshot();
  r.gitSha = "0123456789abcdef0123456789abcdef01234567";
  r.runTimestamp = "2026-01-02T03:04:05Z";
  std::ostringstream os;
  obs::writeJson(r, os);
  const obs::Report parsed = obs::parseJson(os.str());
  EXPECT_EQ(parsed.schemaVersion, 4);
  EXPECT_EQ(parsed.gitSha, r.gitSha);
  EXPECT_EQ(parsed.runTimestamp, r.runTimestamp);

  // Unstamped reports omit the fields entirely (older readers reject unknown
  // keys, so absence -- not empty strings -- is the compatibility story).
  obs::Report bare = obs::snapshot();
  std::ostringstream os2;
  obs::writeJson(bare, os2);
  EXPECT_EQ(os2.str().find("git_sha"), std::string::npos);
  EXPECT_EQ(os2.str().find("run_timestamp"), std::string::npos);
  const obs::Report reparsed = obs::parseJson(os2.str());
  EXPECT_TRUE(reparsed.gitSha.empty());
  EXPECT_TRUE(reparsed.runTimestamp.empty());
}

TEST(TraceTest, TraceJsonParsesWithTheReportJsonParser) {
  // The satellite contract: the exported trace is plain JSON that the
  // library's own parser accepts end to end, including escapes and nested
  // structures -- no reliance on an external validator.
  trace::TraceSession session;
  trace::setCurrentThreadName("name with \"quotes\" and\ttabs");
  trace::instant("trace_test.escaped\nname");
  const std::string text = session.exportJson();
  EXPECT_NO_THROW({
    const obs::json::Value root = obs::json::parse(text);
    EXPECT_TRUE(root.is(obs::json::Value::Kind::Object));
  });
}
