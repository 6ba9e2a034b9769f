#pragma once
// Snapshot and JSON serialization of the observability registry.
//
// The JSON schema (versioned; consumed by BENCH_*.json tooling):
//   {
//     "schema_version": 4,
//     "enabled": true,
//     "build_type": "release",          // optional; omitted when unset
//     "git_sha": "abc1234...",          // optional; omitted when unset
//     "run_timestamp": "2026-01-02T03:04:05Z",  // optional ISO-8601 UTC
//     "counters": { "<name>": <uint64>, ... },
//     "timers": {
//       "<name>": { "count": <uint64>, "total_s": <double>,
//                   "min_s": <double>, "max_s": <double>,
//                   "mean_s": <double> },
//       ...
//     },
//     "histograms": {
//       "<name>": { "count": <uint64>, "sum": <uint64>,
//                   "min": <uint64>, "max": <uint64>, "mean": <double>,
//                   "p50": <double>, "p90": <double>, "p99": <double>,
//                   "buckets": [[<index>, <count>], ...] },   // sparse
//       ...
//     }
//   }
// Timers with zero samples serialize min_s/max_s/mean_s as 0; empty
// histograms serialize all-zero scalars and an empty bucket list.  Bucket
// indices follow obs/histogram.hpp (8 exact unit buckets, then 8 linear
// sub-buckets per octave); mean/p50/p90/p99 are derived fields, recomputable
// from count/sum/buckets.
//
// Version history: v1 had no schema_version key and no histograms; v2 added
// histograms and the version key; v3 added an optional labels section,
// which nothing ever filled and which writer and reader have since dropped
// (a "labels" key is now refused as unknown); v4 added the optional git_sha
// / run_timestamp provenance stamps so perf trajectories can be assembled
// across commits.  parseJson accepts all four and reports the version it
// read.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prox::support {
struct ReaderLimits;
}  // namespace prox::support

namespace prox::obs {

// --- minimal generic JSON ---------------------------------------------------
// A tiny DOM parser, shared by the report reader below and by tests that
// validate other JSON artifacts this library emits (e.g. exported traces).
namespace json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  bool is(Kind k) const noexcept { return kind == k; }
  /// Object member lookup; null when absent or not an object.
  const Value* find(std::string_view key) const noexcept;
};

/// Parses one complete JSON document (objects, arrays, strings, numbers,
/// booleans, null).  Bounded: input size, string length, and nesting depth
/// are capped (support::ReaderLimits defaults, or the explicit overload's
/// limits), so hostile input cannot overflow the stack or balloon memory.
/// Throws support::DiagnosticError (ParseError with line context, or
/// ResourceExhausted for cap hits) -- which derives from std::runtime_error,
/// so legacy catch sites keep working.
Value parse(const std::string& text);
Value parse(const std::string& text, const support::ReaderLimits& limits);

}  // namespace json

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct TimerSample {
  std::string name;
  std::uint64_t count = 0;
  double totalSeconds = 0.0;
  double minSeconds = 0.0;
  double maxSeconds = 0.0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when empty
  std::uint64_t max = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// Sparse occupancy: (bucket index, count) pairs in index order.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
};

/// Point-in-time copy of every instrument, sorted by name.
struct Report {
  /// Serialization schema (see header comment).  snapshot() produces the
  /// current version; parseJson() reports the version it read.
  int schemaVersion = 4;
  bool enabled = true;
  /// Optional build-flavor tag ("release"/"debug") set by bench binaries so
  /// stats files self-describe whether their timings are comparable.  Empty
  /// means the field is omitted from the JSON.
  std::string buildType;
  /// Optional provenance stamps (PR-to-PR perf trajectories need to know
  /// which commit and when a run happened).  Empty means omitted.
  std::string gitSha;
  std::string runTimestamp;  ///< ISO-8601 UTC, e.g. "2026-01-02T03:04:05Z"
  std::vector<CounterSample> counters;
  std::vector<TimerSample> timers;
  std::vector<HistogramSample> histograms;

  /// Value of the counter named @p name, or 0 if absent.
  std::uint64_t counterValue(const std::string& name) const;

  /// Sum of all counters whose name starts with @p prefix.
  std::uint64_t counterSumWithPrefix(const std::string& prefix) const;

  /// The histogram named @p name, or null if absent.
  const HistogramSample* histogramNamed(const std::string& name) const;
};

/// Snapshots the process registry.
Report snapshot();

/// Serializes @p report as pretty-printed JSON.
void writeJson(const Report& report, std::ostream& os);

/// Snapshot + serialize in one step.
void writeJson(std::ostream& os);

/// Snapshot + serialize to a string.
std::string toJson();

/// Parses a report previously produced by writeJson.  Accepts any JSON
/// matching the schema above (current or v1; field order within objects is
/// free).  Throws support::DiagnosticError (a std::runtime_error) on
/// malformed or cap-exceeding input.
Report parseJson(std::istream& is);
Report parseJson(const std::string& text);

}  // namespace prox::obs
