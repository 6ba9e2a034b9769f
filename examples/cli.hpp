#pragma once
// The contract the command-line tools share (characterize_cell,
// characterize_corners, sta_path, netlist_sim): one flag grammar, one run
// scope, one exit-code map and one report writer.  README's "Exit codes"
// section is the user-facing copy of this file.
//
// Grammar: a flag is a switch or takes exactly one value, as --flag=V or
// --flag V; the two-token form never takes a following "--..." token as its
// value.  Numbers are whole tokens (support::parseIntChecked /
// parseFiniteDoubleChecked), and --stats=- writes the report to stdout.  An
// unknown flag, a missing value or a malformed number is a UsageError,
// which main() turns into exit 2.

#include <climits>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/bounded.hpp"
#include "support/budget.hpp"
#include "support/cancel.hpp"
#include "support/diagnostic.hpp"
#include "support/durable_io.hpp"

namespace prox::cli {

/// A command line that breaks the grammar (exit 2).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Prints @p why and the tool's @p usage (a format taking argv[0]); returns
/// the usage exit code.
inline int usageError(const char* argv0, const char* usage, const char* why) {
  std::fprintf(stderr, "%s: %s\n", argv0, why);
  std::fprintf(stderr, usage, argv0);
  return 2;
}

/// The error for a token no flag of the tool consumed.
inline UsageError unknownFlag(const char* token) {
  return UsageError(std::string("unknown flag or missing value: ") + token);
}

/// "--flag value" / "--flag=value" extraction; advances @p i for the
/// two-token form.  Returns nullptr when argv[*i] is not @p flag or has no
/// value.  The two-token form never takes the next flag as its value: a flag
/// missing its value is a usage error (exit 2), not a flag swallowed.
inline const char* flagValue(const char* flag, char** argv, int argc, int* i) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(argv[*i], flag, n) != 0) return nullptr;
  if (argv[*i][n] == '=') return argv[*i] + n + 1;
  if (argv[*i][n] == '\0' && *i + 1 < argc &&
      std::strncmp(argv[*i + 1], "--", 2) != 0) {
    return argv[++*i];
  }
  return nullptr;
}

/// @p v, which names a file or a corner and so may not be empty.
inline const char* nonEmpty(const char* flag, const char* v) {
  if (*v == '\0') throw UsageError(std::string(flag) + " needs a value");
  return v;
}

/// @p v when it is one of the '|'-separated @p choices.
inline std::string choice(const char* flag, const char* v,
                          const std::string& choices) {
  const std::string token = v;
  if (token.find('|') == std::string::npos &&
      ('|' + choices + '|').find('|' + token + '|') != std::string::npos) {
    return token;
  }
  throw UsageError(std::string(flag) + " expects " + choices + ", got '" +
                   token + "'");
}

/// Whole-token integer in [@p lo, @p hi].
inline long long intValue(const char* flag, const char* v, long long lo,
                          long long hi = INT_MAX) {
  try {
    return support::parseIntChecked(v, "cli", flag, -1, lo, hi);
  } catch (const support::DiagnosticError&) {
    throw UsageError(std::string(flag) + " expects a whole number >= " +
                     std::to_string(lo) + ", got '" + v + "'");
  }
}

/// Whole-token finite seconds: > 0, or >= 0 when @p zeroOk.
inline double secondsValue(const char* flag, const char* v,
                           bool zeroOk = false) {
  double s = -1.0;
  try {
    s = support::parseFiniteDoubleChecked(v, "cli", flag);
  } catch (const support::DiagnosticError&) {
  }
  if (s > 0.0 || (zeroOk && s == 0.0)) return s;
  throw UsageError(std::string(flag) + " expects SECS " +
                   (zeroOk ? ">= 0" : "> 0") + ", got '" + v + "'");
}

/// What every run carries.  characterize_cell, sta_path and netlist_sim take
/// all six flags through parse(); characterize_corners fills statsPath,
/// threads and timeoutSecs from its own flags.
struct RunFlags {
  std::string statsPath;           ///< --stats FILE; "-" writes to stdout
  std::string tracePath;           ///< --trace FILE
  int threads = 0;                 ///< --threads N; 0 = every core
  double timeoutSecs = 0.0;        ///< --timeout SECS; 0 = no watchdog
  support::ResourceBudget budget;  ///< --max-memory MB, --max-nodes N

  /// Consumes argv[*i] (and its value) when it is one of the six flags.
  bool parse(char** argv, int argc, int* i) {
    const char* v = nullptr;
    if ((v = flagValue("--stats", argv, argc, i)) != nullptr) {
      statsPath = nonEmpty("--stats", v);
    } else if ((v = flagValue("--trace", argv, argc, i)) != nullptr) {
      tracePath = nonEmpty("--trace", v);
    } else if ((v = flagValue("--threads", argv, argc, i)) != nullptr) {
      threads = static_cast<int>(intValue("--threads", v, 0));
    } else if ((v = flagValue("--timeout", argv, argc, i)) != nullptr) {
      timeoutSecs = secondsValue("--timeout", v);
    } else if ((v = flagValue("--max-memory", argv, argc, i)) != nullptr) {
      budget.maxRssBytes = static_cast<std::size_t>(
                               intValue("--max-memory", v, 1, LLONG_MAX >> 20))
                           << 20;
    } else if ((v = flagValue("--max-nodes", argv, argc, i)) != nullptr) {
      budget.maxNodes =
          static_cast<std::size_t>(intValue("--max-nodes", v, 1, LLONG_MAX));
    } else {
      return false;
    }
    return true;
  }
};

/// The exit code of a typed failure: 6 cancelled (SIGINT, SIGTERM or the
/// --timeout watchdog), 7 over a resource budget, 8 structural rejection,
/// 1 anything else.  The full table is in README's "Exit codes".
inline int exitCode(support::StatusCode code) {
  switch (code) {
    case support::StatusCode::Cancelled:
    case support::StatusCode::DeadlineExceeded:
      return 6;
    case support::StatusCode::ResourceExhausted:
      return 7;
    case support::StatusCode::StructuralError:
      return 8;
    default:
      return 1;
  }
}

/// The --strict exit code of the worst fault a run absorbed: 0 none, 3 a
/// warning (a healed point, a degraded arc), 4 an error, 5 a fatal state.
inline int severityExitCode(support::Severity worst) {
  switch (worst) {
    case support::Severity::Info: return 0;
    case support::Severity::Warning: return 3;
    case support::Severity::Error: return 4;
    case support::Severity::Fatal: return 5;
  }
  return 4;
}

/// One tool run.  For the scope's lifetime the cancel token is armed with
/// --timeout, receives SIGINT/SIGTERM and is installed on the main thread
/// (so serial engine loops poll what parallel workers get through their
/// options), the resource budget is installed, and --trace records.  run()
/// executes the tool's body under the exit-code map, then commits the stats
/// report and the trace whether the body returned or threw: the budget and
/// cancellation counters matter most when a run is cut short.
class RunScope {
 public:
  RunScope(const char* argv0, const RunFlags& flags)
      : argv0_(argv0),
        flags_(flags),
        signals_(&cancel_),
        mainScope_(&cancel_),
        tracker_(budgetWith(flags.budget, &cancel_)),
        budgetScope_(&tracker_) {
    if (flags.timeoutSecs > 0.0) cancel_.setTimeout(flags.timeoutSecs);
    if (!flags.tracePath.empty()) {
      trace_ = std::make_unique<obs::trace::TraceSession>();
    }
  }

  support::CancelToken* cancel() noexcept { return &cancel_; }

  /// Runs @p body and returns its exit code; a typed failure exits by
  /// exitCode(), any other exception with 1.  A report that cannot be
  /// written is an I/O failure and turns exit 0 into 1.
  int run(const std::function<int()>& body) {
    int code = 1;
    try {
      code = body();
    } catch (const support::DiagnosticError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      code = exitCode(e.code());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv0_, e.what());
    }
    bool saved = true;
    if (flags_.statsPath == "-") {
      std::printf("\n");
      obs::writeJson(std::cout);
    } else if (!flags_.statsPath.empty()) {
      saved = save(flags_.statsPath, "stats report",
                   [](std::ostream& os) { obs::writeJson(os); });
    }
    if (trace_ != nullptr) {
      saved = save(flags_.tracePath, "Perfetto trace",
                   [this](std::ostream& os) { trace_->exportJson(os); }) &&
              saved;
    }
    return code == 0 && !saved ? 1 : code;
  }

  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  static support::ResourceBudget budgetWith(support::ResourceBudget budget,
                                            support::CancelToken* token) {
    budget.cancel = token;  // the deadline rides the cancel token
    return budget;
  }

  /// Atomic commit: a reader or a crash never sees a torn file.
  bool save(const std::string& path, const char* what,
            const std::function<void(std::ostream&)>& fill) {
    try {
      support::writeFileAtomic(path, fill);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv0_, e.what());
      return false;
    }
    std::printf("%s written to %s\n", what, path.c_str());
    return true;
  }

  const char* argv0_;
  RunFlags flags_;
  support::CancelToken cancel_;
  support::SignalCancelScope signals_;
  support::CancelScope mainScope_;
  support::BudgetTracker tracker_;
  support::BudgetScope budgetScope_;
  std::unique_ptr<obs::trace::TraceSession> trace_;
};

}  // namespace prox::cli
