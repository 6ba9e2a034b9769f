#include "obs/report.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "support/bounded.hpp"

namespace prox::obs {

std::uint64_t Report::counterValue(const std::string& name) const {
  for (const CounterSample& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::uint64_t Report::counterSumWithPrefix(const std::string& prefix) const {
  std::uint64_t sum = 0;
  for (const CounterSample& c : counters) {
    if (c.name.compare(0, prefix.size(), prefix) == 0) sum += c.value;
  }
  return sum;
}

const HistogramSample* Report::histogramNamed(const std::string& name) const {
  for (const HistogramSample& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Report snapshot() {
  Report r;
  r.enabled = enabled();
  Registry::instance().visit(
      [&](const std::string& name, const Counter& c) {
        r.counters.push_back({name, c.value()});
      },
      [&](const std::string& name, const Timer& t) {
        TimerSample s;
        s.name = name;
        s.count = t.count();
        s.totalSeconds = t.totalSeconds();
        s.minSeconds = s.count > 0 ? t.minSeconds() : 0.0;
        s.maxSeconds = s.count > 0 ? t.maxSeconds() : 0.0;
        r.timers.push_back(std::move(s));
      },
      [&](const std::string& name, const Histogram& h) {
        const HistogramData d = h.data();
        HistogramSample s;
        s.name = name;
        s.count = d.count;
        s.sum = d.sum;
        s.min = d.count > 0 ? d.min : 0;
        s.max = d.max;
        s.p50 = d.quantile(0.50);
        s.p90 = d.quantile(0.90);
        s.p99 = d.quantile(0.99);
        for (std::uint32_t i = 0; i < d.buckets.size(); ++i) {
          if (d.buckets[i] != 0) s.buckets.emplace_back(i, d.buckets[i]);
        }
        r.histograms.push_back(std::move(s));
      });
  return r;
}

namespace {

void jsonEscape(const std::string& s, std::ostream& os) {
  for (char ch : s) {
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

void writeDouble(double v, std::ostream& os) {
  if (!std::isfinite(v)) {
    os << 0;  // empty-timer sentinels (±inf) serialize as 0
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

void writeJson(const Report& report, std::ostream& os) {
  os << "{\n  \"schema_version\": " << report.schemaVersion << ",\n";
  os << "  \"enabled\": " << (report.enabled ? "true" : "false") << ",\n";
  if (!report.buildType.empty()) {
    os << "  \"build_type\": \"";
    jsonEscape(report.buildType, os);
    os << "\",\n";
  }
  if (!report.gitSha.empty()) {
    os << "  \"git_sha\": \"";
    jsonEscape(report.gitSha, os);
    os << "\",\n";
  }
  if (!report.runTimestamp.empty()) {
    os << "  \"run_timestamp\": \"";
    jsonEscape(report.runTimestamp, os);
    os << "\",\n";
  }
  os << "  \"counters\": {";
  for (std::size_t i = 0; i < report.counters.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"";
    jsonEscape(report.counters[i].name, os);
    os << "\": " << report.counters[i].value;
  }
  os << (report.counters.empty() ? "},\n" : "\n  },\n");
  os << "  \"timers\": {";
  for (std::size_t i = 0; i < report.timers.size(); ++i) {
    const TimerSample& t = report.timers[i];
    const double mean = t.count > 0 ? t.totalSeconds / t.count : 0.0;
    os << (i == 0 ? "\n" : ",\n") << "    \"";
    jsonEscape(t.name, os);
    os << "\": { \"count\": " << t.count << ", \"total_s\": ";
    writeDouble(t.totalSeconds, os);
    os << ", \"min_s\": ";
    writeDouble(t.count > 0 ? t.minSeconds : 0.0, os);
    os << ", \"max_s\": ";
    writeDouble(t.count > 0 ? t.maxSeconds : 0.0, os);
    os << ", \"mean_s\": ";
    writeDouble(mean, os);
    os << " }";
  }
  os << (report.timers.empty() ? "},\n" : "\n  },\n");
  os << "  \"histograms\": {";
  for (std::size_t i = 0; i < report.histograms.size(); ++i) {
    const HistogramSample& h = report.histograms[i];
    const double mean =
        h.count > 0 ? static_cast<double>(h.sum) / static_cast<double>(h.count)
                    : 0.0;
    os << (i == 0 ? "\n" : ",\n") << "    \"";
    jsonEscape(h.name, os);
    os << "\": { \"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"min\": " << h.min << ", \"max\": " << h.max << ", \"mean\": ";
    writeDouble(mean, os);
    os << ", \"p50\": ";
    writeDouble(h.p50, os);
    os << ", \"p90\": ";
    writeDouble(h.p90, os);
    os << ", \"p99\": ";
    writeDouble(h.p99, os);
    os << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      os << (b == 0 ? "" : ", ") << "[" << h.buckets[b].first << ", "
         << h.buckets[b].second << "]";
    }
    os << "] }";
  }
  os << (report.histograms.empty() ? "}\n" : "\n  }\n");
  os << "}\n";
}

void writeJson(std::ostream& os) { writeJson(snapshot(), os); }

std::string toJson() {
  std::ostringstream os;
  writeJson(snapshot(), os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Generic JSON parser (obs::json) and the report schema mapping on top of it.

namespace json {

const Value* Value::find(std::string_view key) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, const support::ReaderLimits& limits)
      : text_(text), limits_(limits) {}

  Value parseDocument() {
    if (text_.size() > limits_.maxInputBytes) {
      support::failResource(kSite,
                            "JSON input exceeds the " +
                                std::to_string(limits_.maxInputBytes) +
                                "-byte reader cap");
    }
    Value v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  static constexpr const char* kSite = "obs.json";

  Value parseValue() {
    skipWs();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    // Every value consumes at least one input byte, so the DOM node count is
    // bounded by the (already capped) input size; the depth guard below is
    // what stops "[[[[..." from exhausting the call stack.
    if (++depth_ > limits_.maxNestingDepth) {
      support::failResource(kSite,
                            "JSON nesting deeper than " +
                                std::to_string(limits_.maxNestingDepth) +
                                " levels",
                            line());
    }
    const char c = text_[pos_];
    Value v;
    switch (c) {
      case '{': {
        v.kind = Value::Kind::Object;
        ++pos_;
        bool first = true;
        while (!peekIs('}')) {
          if (!first) expect(',');
          first = false;
          std::string key = parseString();
          expect(':');
          v.object.emplace_back(std::move(key), parseValue());
        }
        expect('}');
        break;
      }
      case '[': {
        v.kind = Value::Kind::Array;
        ++pos_;
        bool first = true;
        while (!peekIs(']')) {
          if (!first) expect(',');
          first = false;
          v.array.push_back(parseValue());
        }
        expect(']');
        break;
      }
      case '"':
        v.kind = Value::Kind::String;
        v.str = parseString();
        break;
      case 't':
      case 'f':
        v.kind = Value::Kind::Bool;
        v.boolean = parseBool();
        break;
      case 'n':
        if (text_.compare(pos_, 4, "null") != 0) fail("expected null");
        pos_ += 4;
        v.kind = Value::Kind::Null;
        break;
      default:
        v.kind = Value::Kind::Number;
        v.number = parseNumber();
        break;
    }
    --depth_;
    return v;
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool peekIs(char c) {
    skipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  void expect(char c) {
    skipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (pos_ - start > limits_.maxTokenBytes) {
        support::failResource(kSite,
                              "string longer than the " +
                                  std::to_string(limits_.maxTokenBytes) +
                                  "-byte token cap",
                              line());
      }
      char ch = text_[pos_++];
      if (ch == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              unsigned d;
              if (h >= '0' && h <= '9') d = static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') d = static_cast<unsigned>(h - 'a') + 10;
              else if (h >= 'A' && h <= 'F') d = static_cast<unsigned>(h - 'A') + 10;
              else fail("bad \\u escape");
              code = (code << 4) | d;
            }
            pos_ += 4;
            if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
            out += static_cast<char>(code);
            break;
          }
          default:
            fail("bad escape");
        }
      } else {
        out += ch;
      }
    }
    expect('"');
    return out;
  }

  bool parseBool() {
    skipWs();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected boolean");
    return false;
  }

  double parseNumber() {
    skipWs();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    // Checked conversion: "1e999" is a typed rejection, not an uncaught
    // std::out_of_range (and never a silent inf).
    return support::parseDoubleChecked(
        std::string_view(text_).substr(start, pos_ - start), kSite, "number",
        line());
  }

  /// 1-based line of the current cursor, for diagnostics only (computed on
  /// the failure path, so scanning is free in the common case).
  int line() const {
    int ln = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++ln;
    }
    return ln;
  }

  /// Column of the current cursor on its line (1-based).
  std::size_t column() const {
    std::size_t lineStart = 0;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') lineStart = i + 1;
    }
    return pos_ - lineStart + 1;
  }

  [[noreturn]] void fail(const std::string& what) {
    support::failParse(kSite,
                       what + " at offset " + std::to_string(pos_) +
                           " (column " + std::to_string(column()) + ")",
                       line());
  }

  const std::string& text_;
  const support::ReaderLimits& limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) {
  return Parser(text, support::ReaderLimits{}).parseDocument();
}

Value parse(const std::string& text, const support::ReaderLimits& limits) {
  return Parser(text, limits).parseDocument();
}

}  // namespace json

namespace {

[[noreturn]] void reportFail(const std::string& what) {
  support::failParse("obs.report", what);
}

std::uint64_t asUint(const json::Value& v, const char* what) {
  if (!v.is(json::Value::Kind::Number)) {
    reportFail(std::string("expected number for ") + what);
  }
  // Guard the float->uint64 cast: a negative or oversized number would be
  // undefined behavior, not a clamp.
  if (!(v.number >= 0.0) || v.number >= 1.8446744073709552e19) {
    reportFail(std::string("number out of uint64 range for ") + what);
  }
  return static_cast<std::uint64_t>(v.number);
}

double asDouble(const json::Value& v, const char* what) {
  if (!v.is(json::Value::Kind::Number)) {
    reportFail(std::string("expected number for ") + what);
  }
  return v.number;
}

HistogramSample parseHistogramSample(const std::string& name,
                                     const json::Value& v) {
  if (!v.is(json::Value::Kind::Object)) {
    reportFail("histogram entry must be an object");
  }
  HistogramSample h;
  h.name = name;
  for (const auto& [field, fv] : v.object) {
    if (field == "count") {
      h.count = asUint(fv, "count");
    } else if (field == "sum") {
      h.sum = asUint(fv, "sum");
    } else if (field == "min") {
      h.min = asUint(fv, "min");
    } else if (field == "max") {
      h.max = asUint(fv, "max");
    } else if (field == "p50") {
      h.p50 = asDouble(fv, "p50");
    } else if (field == "p90") {
      h.p90 = asDouble(fv, "p90");
    } else if (field == "p99") {
      h.p99 = asDouble(fv, "p99");
    } else if (field == "mean") {
      // derived; ignored on input
    } else if (field == "buckets") {
      if (!fv.is(json::Value::Kind::Array)) {
        reportFail("buckets must be an array");
      }
      for (const json::Value& pair : fv.array) {
        if (!pair.is(json::Value::Kind::Array) || pair.array.size() != 2) {
          reportFail("bucket entry must be [index, count]");
        }
        h.buckets.emplace_back(
            static_cast<std::uint32_t>(asUint(pair.array[0], "bucket index")),
            asUint(pair.array[1], "bucket count"));
      }
    } else {
      reportFail("unknown histogram field: " + field);
    }
  }
  return h;
}

}  // namespace

Report parseJson(const std::string& text) {
  const json::Value doc = json::parse(text);
  if (!doc.is(json::Value::Kind::Object)) {
    reportFail("report must be a JSON object");
  }
  Report r;
  r.schemaVersion = 1;  // pre-versioned files carry no schema_version key
  for (const auto& [key, v] : doc.object) {
    if (key == "schema_version") {
      r.schemaVersion = static_cast<int>(asUint(v, "schema_version"));
    } else if (key == "enabled") {
      if (!v.is(json::Value::Kind::Bool)) reportFail("expected boolean");
      r.enabled = v.boolean;
    } else if (key == "build_type") {
      if (!v.is(json::Value::Kind::String)) reportFail("expected string");
      r.buildType = v.str;
    } else if (key == "git_sha") {
      if (!v.is(json::Value::Kind::String)) reportFail("expected string");
      r.gitSha = v.str;
    } else if (key == "run_timestamp") {
      if (!v.is(json::Value::Kind::String)) reportFail("expected string");
      r.runTimestamp = v.str;
    } else if (key == "counters") {
      if (!v.is(json::Value::Kind::Object)) {
        reportFail("counters must be an object");
      }
      for (const auto& [name, cv] : v.object) {
        r.counters.push_back({name, asUint(cv, "counter value")});
      }
    } else if (key == "timers") {
      if (!v.is(json::Value::Kind::Object)) {
        reportFail("timers must be an object");
      }
      for (const auto& [name, tv] : v.object) {
        if (!tv.is(json::Value::Kind::Object)) {
          reportFail("timer entry must be an object");
        }
        TimerSample t;
        t.name = name;
        for (const auto& [field, fv] : tv.object) {
          if (field == "count") {
            t.count = asUint(fv, "count");
          } else if (field == "total_s") {
            t.totalSeconds = asDouble(fv, "total_s");
          } else if (field == "min_s") {
            t.minSeconds = asDouble(fv, "min_s");
          } else if (field == "max_s") {
            t.maxSeconds = asDouble(fv, "max_s");
          } else if (field == "mean_s") {
            // derived; ignored on input
          } else {
            reportFail("unknown timer field: " + field);
          }
        }
        r.timers.push_back(std::move(t));
      }
    } else if (key == "histograms") {
      if (!v.is(json::Value::Kind::Object)) {
        reportFail("histograms must be an object");
      }
      for (const auto& [name, hv] : v.object) {
        r.histograms.push_back(parseHistogramSample(name, hv));
      }
    } else {
      reportFail("unknown top-level key: " + key);
    }
  }
  return r;
}

Report parseJson(std::istream& is) {
  return parseJson(support::readStreamBounded(
      is, support::ReaderLimits{}.maxInputBytes, "obs.report"));
}

}  // namespace prox::obs
