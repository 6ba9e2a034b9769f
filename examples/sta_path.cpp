// STA example: proximity-aware vs classic timing on a small combinational
// block, judged against a flat transistor-level simulation of the whole
// netlist -- the downstream application the paper motivates.
//
// Circuit (all NAND2; s1/s2 are stable side inputs):
//
//   a ---+
//        |u1>--- y1 ---+
//   b ---+             |u2>--- y2 ---+
//   s1 ----------------+             |u3>--- out
//   c -------------------------------+
//
// Inputs arrive in a tight burst, so gates see multiple switching inputs in
// close temporal proximity; classic pin-to-pin STA mis-times the stages.
//
// The tool doubles as the structural-validation demo: --graph builds a
// deliberately defective variant (cyclic, multidriven, dangling, selfloop)
// and --structural selects the degradation ladder.  Exit codes: 0 ok,
// 1 error, 2 usage, 6 cancelled/timeout, 7 resource budget exceeded,
// 8 structural reject.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "characterize/characterize.hpp"
#include "cli_flags.hpp"
#include "fleet/bundle.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sta/blif.hpp"
#include "sta/flat_sim.hpp"
#include "support/budget.hpp"
#include "support/cancel.hpp"
#include "support/diagnostic.hpp"
#include "support/durable_io.hpp"

using namespace prox;
using cli::flagValue;
using sta::Arrival;
using sta::DelayMode;
using wave::Edge;

namespace {

int exitCodeFor(const support::DiagnosticError& e) {
  switch (e.code()) {
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

/// BLIF mode: reads a circuit (file or "-" = stdin), runs proximity and
/// classic STA with a uniform input stimulus, and prints the critical path.
void runBlifFlow(const std::string& path, const std::string& libKind,
                 int threads, support::CancelToken* cancel,
                 sta::StructuralPolicy structural) {
  sta::GateLibrary library = sta::analyticLibrary();
  if (libKind == "characterized") {
    // Transistor-level characterization per (type, fanin) the input demands.
    // Slow but real; the analytic default answers instantly at any scale.
    library.setFactory([threads, cancel](cells::GateType type, int fanin)
                           -> std::optional<characterize::CharacterizedGate> {
      const bool inverter = type == cells::GateType::Inverter;
      if (fanin < 1 || fanin > 8 || inverter != (fanin == 1)) {
        return std::nullopt;
      }
      cells::CellSpec spec;
      spec.type = type;
      spec.fanin = fanin;
      std::printf("characterizing %s ...\n",
                  cells::gateTypeName(type, fanin).c_str());
      characterize::CharacterizationConfig cfg;
      cfg.threads = threads;
      cfg.cancel = cancel;
      return characterize::characterizeGate(spec, cfg);
    });
  }

  sta::Netlist nl;
  const sta::BlifSummary summary = sta::readBlifFile(path, library, &nl);
  std::printf("model '%s': %zu gates, %zu inputs, %zu outputs",
              summary.modelName.c_str(), summary.gates, summary.inputs.size(),
              summary.outputs.size());
  if (summary.latches != 0) std::printf(", %zu latch cuts", summary.latches);
  if (summary.constants != 0) std::printf(", %zu constants", summary.constants);
  std::printf("\n");

  sta::DelayCalcOptions opt;
  opt.threads = threads;
  opt.cancel = cancel;
  opt.structural = structural;
  auto analyze = [&](DelayMode mode) {
    sta::TimingAnalyzer ta(nl, mode, opt);
    for (const std::string& net : summary.inputs) {
      ta.setInputArrival(net, Arrival{0.0, 200e-12, Edge::Rising});
    }
    ta.run();
    return ta;
  };
  const auto proximity = analyze(DelayMode::Proximity);
  const auto classic = analyze(DelayMode::Classic);

  const auto schedule = nl.levelize(structural);
  std::printf("%zu levels deep", schedule.levelCount());
  if (proximity.degradedArcs() != 0) {
    std::printf(", %zu degraded arc(s)", proximity.degradedArcs());
  }
  std::printf("\n");
  for (const auto& issue : proximity.structuralIssues()) {
    std::printf("structural %s: %s\n", sta::structuralKindName(issue.kind),
                issue.message.c_str());
  }

  // Latest-arriving declared output under the proximity model.
  sta::NetId worst;
  for (const std::string& net : summary.outputs) {
    const sta::NetId id = nl.findNet(net);
    const auto a = proximity.arrival(id);
    if (!a) continue;
    if (!worst.valid() || a->time > proximity.arrival(worst)->time) {
      worst = id;
    }
  }
  if (!worst.valid()) {
    std::printf("no declared output switches under this stimulus\n");
    return;
  }

  // Walk the worst path backwards: at each gate, follow the input whose
  // arrival is latest.  Bounded by the node count so a degraded (formerly
  // cyclic) graph cannot loop the walk.
  std::vector<sta::NetId> pathNets{worst};
  sta::NetId cur = worst;
  for (std::size_t hop = 0; hop < nl.nodeCount(); ++hop) {
    const sta::NodeId driver = nl.netDriver(cur);
    if (!driver.valid()) break;  // reached a primary input
    sta::NetId latest;
    for (const sta::NetId in : nl.nodeInputs(driver)) {
      const auto a = proximity.arrival(in);
      if (!a) continue;
      if (!latest.valid() || a->time > proximity.arrival(latest)->time) {
        latest = in;
      }
    }
    if (!latest.valid()) break;  // no switching input (loop-break estimate)
    pathNets.push_back(latest);
    cur = latest;
  }
  std::reverse(pathNets.begin(), pathNets.end());

  std::printf("critical path (%zu stages):", pathNets.size() - 1);
  const std::size_t kMaxPrinted = 12;
  for (std::size_t i = 0; i < pathNets.size(); ++i) {
    if (pathNets.size() > kMaxPrinted && i == kMaxPrinted / 2) {
      std::printf(" ... ->");
      i = pathNets.size() - kMaxPrinted / 2 - 1;
      continue;
    }
    std::printf(" %s%s", nl.netName(pathNets[i]).c_str(),
                i + 1 == pathNets.size() ? "" : " ->");
  }
  std::printf("\n");
  const auto pArr = proximity.arrival(worst);
  const auto cArr = classic.arrival(worst);
  std::printf("critical arrival on %s: %.1f ps proximity",
              nl.netName(worst).c_str(), pArr->time * 1e12);
  if (cArr) {
    std::printf(", %.1f ps classic (delta %+.1f ps)", cArr->time * 1e12,
                (pArr->time - cArr->time) * 1e12);
  }
  std::printf("\n");
}

/// Bundle mode: serve a model from a fleet-assembled multi-corner bundle
/// (see fleet/bundle.hpp) and time the three-stage demo chain with it.  The
/// interesting part is the hole handling: a corner the fleet quarantined is
/// served under an explicit policy -- reject (exit 8) or degrade to the
/// nearest characterized corner with a counted, logged substitution --
/// mirroring the --structural ladder.
void runBundleFlow(const std::string& bundlePath, const std::string& cornerName,
                   fleet::MissingCornerPolicy policy, int threads,
                   support::CancelToken* cancel) {
  const fleet::Bundle bundle = fleet::loadBundleFile(bundlePath);
  std::printf("bundle %s: %zu corner(s), %zu characterized\n",
              bundlePath.c_str(), bundle.entries.size(), bundle.okCount());
  for (const fleet::BundleEntry& e : bundle.entries) {
    std::printf("  %-12s %-11s%s%s\n", e.corner.name.c_str(),
                fleet::bundleCornerStatusName(e.status),
                e.reason.empty() ? "" : "  ", e.reason.c_str());
  }

  support::DiagnosticLog degradeLog;
  const fleet::CornerSelection sel =
      fleet::selectCorner(bundle, cornerName, policy, &degradeLog);
  if (sel.degraded) {
    std::printf("corner '%s' has no model; degraded to nearest characterized "
                "corner '%s' (see fleet.bundle.nearest_fallbacks in --stats)\n",
                sel.requested.c_str(), sel.entry->corner.name.c_str());
    for (const auto& d : degradeLog.entries()) {
      std::printf("  %s\n", d.toString().c_str());
    }
  } else {
    std::printf("serving corner '%s'\n", sel.entry->corner.name.c_str());
  }
  const characterize::CharacterizedGate& cell = *sel.entry->gate;
  const int fanin = cell.pinCount();

  // The familiar three-stage chain, sized to the bundle cell's fanin: extra
  // pins ride on stable pad inputs, exactly like s1 in the demo circuit.
  sta::Netlist nl;
  for (const char* pi : {"a", "b", "c", "s1"}) nl.addPrimaryInput(pi);
  std::vector<std::string> pads;
  for (int p = 0; p + 2 < fanin; ++p) {
    pads.push_back("p" + std::to_string(p));
    nl.addPrimaryInput(pads.back());
  }
  auto stageInputs = [&](const std::string& first, const std::string& second) {
    std::vector<std::string> v{first};
    if (fanin >= 2) v.push_back(second);
    for (const std::string& pad : pads) v.push_back(pad);
    return v;
  };
  nl.addInstance("u1", cell, stageInputs("a", "b"), "y1");
  nl.addInstance("u2", cell, stageInputs("y1", "s1"), "y2");
  nl.addInstance("u3", cell, stageInputs("y2", "c"), "y3");

  sta::DelayCalcOptions opt;
  opt.threads = threads;
  opt.cancel = cancel;
  auto analyze = [&](DelayMode mode) {
    sta::TimingAnalyzer ta(nl, mode, opt);
    ta.setInputArrival("a", {0.0, 250e-12, Edge::Rising});
    ta.setInputArrival("b", {40e-12, 400e-12, Edge::Rising});
    ta.setInputArrival("c", {600e-12, 300e-12, Edge::Rising});
    ta.run();
    return ta;
  };
  const auto proximity = analyze(DelayMode::Proximity);
  const auto classic = analyze(DelayMode::Classic);
  std::printf("\n%-5s | %16s | %16s\n", "net", "proximity [ps]", "classic [ps]");
  for (const char* net : {"y1", "y2", "y3"}) {
    const auto p = proximity.arrival(net);
    const auto cl = classic.arrival(net);
    if (!p || !cl) continue;
    std::printf("%-5s | %16.1f | %16.1f\n", net, p->time * 1e12,
                cl->time * 1e12);
  }
  if (proximity.degradedArcs() + classic.degradedArcs() > 0) {
    std::printf("note: %zu arc(s) used a degraded delay model\n",
                proximity.degradedArcs() + classic.degradedArcs());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool stats = false;
  std::string statsPath;
  std::string tracePath;
  std::string graph = "clean";
  double timeoutSecs = 0.0;
  int threads = 0;  // 0 = par::defaultThreadCount() (PROX_THREADS or cores)
  sta::StructuralPolicy structural = sta::StructuralPolicy::Reject;
  std::string blifPath;
  std::string libKind = "analytic";
  std::string bundlePath;
  std::string cornerName = "tt";
  fleet::MissingCornerPolicy cornerPolicy = fleet::MissingCornerPolicy::Reject;
  support::ResourceBudget budget;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strncmp(argv[i], "--stats=", 8) == 0) {
      stats = true;
      statsPath = argv[i] + 8;
      if (statsPath.empty()) {
        std::fprintf(stderr, "%s: --stats= requires a file name\n", argv[0]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      tracePath = argv[i] + 8;
      if (tracePath.empty()) {
        std::fprintf(stderr, "%s: --trace= requires a file name\n", argv[0]);
        return 2;
      }
    } else if ((v = flagValue("--threads", argv, argc, &i)) != nullptr) {
      threads = std::atoi(v);
    } else if (std::strncmp(argv[i], "--timeout=", 10) == 0) {
      timeoutSecs = std::atof(argv[i] + 10);
      if (timeoutSecs <= 0.0) {
        std::fprintf(stderr, "%s: --timeout expects SECS > 0\n", argv[0]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--max-memory=", 13) == 0) {
      const long mb = std::atol(argv[i] + 13);
      if (mb <= 0) {
        std::fprintf(stderr, "%s: --max-memory expects MB > 0\n", argv[0]);
        return 2;
      }
      budget.maxRssBytes = static_cast<std::size_t>(mb) << 20;
    } else if (std::strncmp(argv[i], "--max-nodes=", 12) == 0) {
      const long n = std::atol(argv[i] + 12);
      if (n <= 0) {
        std::fprintf(stderr, "%s: --max-nodes expects N > 0\n", argv[0]);
        return 2;
      }
      budget.maxNodes = static_cast<std::size_t>(n);
    } else if (std::strncmp(argv[i], "--graph=", 8) == 0) {
      graph = argv[i] + 8;
      if (graph != "clean" && graph != "cyclic" && graph != "multidriven" &&
          graph != "dangling" && graph != "selfloop") {
        std::fprintf(stderr,
                     "%s: --graph expects "
                     "clean|cyclic|multidriven|dangling|selfloop\n",
                     argv[0]);
        return 2;
      }
    } else if ((v = flagValue("--blif", argv, argc, &i)) != nullptr) {
      blifPath = v;
      if (blifPath.empty()) {
        std::fprintf(stderr, "%s: --blif= requires a file name or -\n",
                     argv[0]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--bundle=", 9) == 0) {
      bundlePath = argv[i] + 9;
      if (bundlePath.empty()) {
        std::fprintf(stderr, "%s: --bundle= requires a file name\n", argv[0]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--corner=", 9) == 0) {
      cornerName = argv[i] + 9;
      if (cornerName.empty()) {
        std::fprintf(stderr, "%s: --corner= requires a corner name\n", argv[0]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--corner-policy=", 16) == 0) {
      const std::string v = argv[i] + 16;
      if (v == "reject") {
        cornerPolicy = fleet::MissingCornerPolicy::Reject;
      } else if (v == "degrade") {
        cornerPolicy = fleet::MissingCornerPolicy::Degrade;
      } else {
        std::fprintf(stderr, "%s: --corner-policy expects reject|degrade\n",
                     argv[0]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--lib=", 6) == 0) {
      libKind = argv[i] + 6;
      if (libKind != "analytic" && libKind != "characterized") {
        std::fprintf(stderr, "%s: --lib expects analytic|characterized\n",
                     argv[0]);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--structural=", 13) == 0) {
      const std::string v = argv[i] + 13;
      if (v == "reject") {
        structural = sta::StructuralPolicy::Reject;
      } else if (v == "degrade") {
        structural = sta::StructuralPolicy::Degrade;
      } else {
        std::fprintf(stderr, "%s: --structural expects reject|degrade\n",
                     argv[0]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--stats[=FILE]] [--trace=FILE] [--threads N] "
                   "[--timeout=SECS] [--max-memory=MB] [--max-nodes=N]\n"
                   "       [--graph=clean|cyclic|multidriven|dangling|"
                   "selfloop] [--structural=reject|degrade]\n"
                   "       [--blif=FILE|-] [--lib=analytic|characterized]\n"
                   "       [--bundle=FILE] [--corner=NAME] "
                   "[--corner-policy=reject|degrade]\n",
                   argv[0]);
      return 2;
    }
    if (threads < 0) {
      std::fprintf(stderr, "%s: --threads expects N >= 0\n", argv[0]);
      return 2;
    }
  }

  // Ctrl-C / SIGTERM / the --timeout watchdog unwind through the typed
  // cancellation path (exit code 6) instead of dying mid-write.
  support::CancelToken cancelToken;
  if (timeoutSecs > 0.0) cancelToken.setTimeout(timeoutSecs);
  support::SignalCancelScope signalScope(&cancelToken);
  support::CancelScope mainScope(&cancelToken);

  // Resource governance: the deadline rides the cancel token; memory and
  // node ceilings are enforced wherever work is charged (exit code 7).
  budget.cancel = &cancelToken;
  support::BudgetTracker budgetTracker(budget);
  support::BudgetScope budgetScope(&budgetTracker);

  // The recording window spans the whole run (characterization, both STA
  // passes, the flat reference sim); the JSON lands atomically at the end.
  std::unique_ptr<obs::trace::TraceSession> traceSession;
  if (!tracePath.empty()) {
    traceSession = std::make_unique<obs::trace::TraceSession>();
  }

  int exitCode = 0;
  if (!bundlePath.empty()) {
    // Fleet-bundle mode: serve a characterized corner (or a policy-governed
    // substitute) from a multi-corner bundle and time the demo chain.
    try {
      runBundleFlow(bundlePath, cornerName, cornerPolicy, threads,
                    &cancelToken);
    } catch (const support::DiagnosticError& e) {
      std::fprintf(stderr, "%s\n", e.diagnostic().toString().c_str());
      exitCode = exitCodeFor(e);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      exitCode = 1;
    }
  } else if (!blifPath.empty()) {
    // Netlist-scale frontend: parse BLIF, run both STA modes, report the
    // critical path.  Shares the cancellation/budget/stats/trace machinery
    // with the demo path below.
    try {
      runBlifFlow(blifPath, libKind, threads, &cancelToken, structural);
    } catch (const support::DiagnosticError& e) {
      std::fprintf(stderr, "%s\n", e.diagnostic().toString().c_str());
      exitCode = exitCodeFor(e);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      exitCode = 1;
    }
  } else {
    cells::CellSpec spec;
    spec.type = cells::GateType::Nand;
    spec.fanin = 2;
    std::printf("characterizing NAND2 cell ...\n");
    characterize::CharacterizationConfig cfg;
    cfg.threads = threads;
    cfg.cancel = &cancelToken;
    try {
      const auto cell = characterize::characterizeGate(spec, cfg);

      sta::Netlist nl;
      for (const char* pi : {"a", "b", "c", "s1"}) nl.addPrimaryInput(pi);
      if (graph == "cyclic") {
        // u1 consumes u3's output: u1 -> u2 -> u3 -> u1.
        nl.addInstance("u1", cell, {"a", "y3"}, "y1");
        nl.addInstance("u2", cell, {"y1", "s1"}, "y2");
        nl.addInstance("u3", cell, {"y2", "c"}, "y3");
      } else if (graph == "selfloop") {
        nl.addInstance("u1", cell, {"a", "y1"}, "y1");
        nl.addInstance("u2", cell, {"y1", "s1"}, "y2");
        nl.addInstance("u3", cell, {"y2", "c"}, "y3");
      } else if (graph == "dangling") {
        nl.addInstance("u1", cell, {"a", "b"}, "y1");
        nl.addInstance("u2", cell, {"y1", "floating"}, "y2");
        nl.addInstance("u3", cell, {"y2", "c"}, "y3");
      } else if (graph == "multidriven") {
        nl.addInstance("u1", cell, {"a", "b"}, "y1");
        nl.addInstance("u2", cell, {"y1", "s1"}, "y2");
        // Lenient construction: the conflicting driver is a property of the
        // (untrusted) input, recorded for validation rather than thrown.
        nl.addInstanceLenient("u2b", cell, {"c", "s1"}, "y2");
        nl.addInstance("u3", cell, {"y2", "c"}, "y3");
      } else {
        nl.addInstance("u1", cell, {"a", "b"}, "y1");
        nl.addInstance("u2", cell, {"y1", "s1"}, "y2");
        nl.addInstance("u3", cell, {"y2", "c"}, "y3");
      }

      const std::unordered_map<std::string, Arrival> arrivals{
          {"a", {0.0, 250e-12, Edge::Rising}},
          {"b", {40e-12, 400e-12, Edge::Rising}},
          {"c", {600e-12, 300e-12, Edge::Rising}},
      };

      auto analyze = [&](DelayMode mode) {
        sta::DelayCalcOptions opt;
        opt.threads = threads;
        opt.cancel = &cancelToken;
        opt.structural = structural;
        sta::TimingAnalyzer ta(nl, mode, opt);
        for (const auto& [net, arr] : arrivals) {
          ta.setInputArrival(net, arr);
        }
        ta.run();
        return ta;
      };

      if (graph != "clean") {
        // Structural demo path: validate, then run under the selected policy.
        std::printf("validating deliberately defective graph '%s' ...\n",
                    graph.c_str());
        const auto proximity = analyze(DelayMode::Proximity);
        for (const auto& issue : proximity.structuralIssues()) {
          std::printf("structural %s: %s\n", sta::structuralKindName(issue.kind),
                      issue.message.c_str());
        }
        std::printf("%zu arc(s) degraded:", proximity.degradedArcs());
        for (const auto& name : proximity.degradedArcNames()) {
          std::printf(" %s", name.c_str());
        }
        std::printf("\n");
        for (const char* net : {"y1", "y2", "y3"}) {
          const auto p = proximity.arrival(net);
          if (p) std::printf("%-5s arrives at %.1f ps\n", net, p->time * 1e12);
        }
      } else {
        const auto classic = analyze(DelayMode::Classic);
        const auto proximity = analyze(DelayMode::Proximity);
        if (proximity.degradedArcs() + classic.degradedArcs() > 0) {
          std::printf(
              "note: %zu arc(s) used a degraded delay model (missing or "
              "unusable tables); see sta.delay_calc.degraded_arcs in "
              "--stats\n",
              proximity.degradedArcs() + classic.degradedArcs());
        }

        std::printf(
            "running the flat transistor-level reference simulation ...\n");
        const auto flat = sta::simulateFlat(nl, arrivals);

        std::printf("\n%-5s | %13s | %16s | %16s\n", "net", "flat sim [ps]",
                    "proximity [ps]", "classic [ps]");
        for (const char* net : {"y1", "y2", "y3"}) {
          const auto it = flat.arrivals.find(net);
          const auto p = proximity.arrival(net);
          const auto cl = classic.arrival(net);
          if (it == flat.arrivals.end() || !p || !cl) continue;
          const Arrival& f = it->second;
          std::printf("%-5s | %13.1f | %8.1f (%+5.1f) | %8.1f (%+5.1f)\n", net,
                      f.time * 1e12, p->time * 1e12, (p->time - f.time) * 1e12,
                      cl->time * 1e12, (cl->time - f.time) * 1e12);
        }
        std::printf(
            "\n(parenthesized: error vs the flat simulation; the proximity "
            "mode stays closer\nat every stage, and the classic error "
            "compounds along the path)\n");
      }
    } catch (const support::DiagnosticError& e) {
      std::fprintf(stderr, "%s\n", e.diagnostic().toString().c_str());
      // Fall through so --stats still lands: the budget/structural counters
      // are most interesting precisely when the run was cut short.
      exitCode = exitCodeFor(e);
    }
  }

  if (stats) {
    if (statsPath.empty()) {
      std::printf("\n");
      obs::writeJson(std::cout);
    } else {
      try {
        // Atomic commit: never a torn JSON report under a reader or crash.
        support::writeFileAtomic(statsPath,
                                 [](std::ostream& os) { obs::writeJson(os); });
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
      }
      std::printf("\nstats report written to %s\n", statsPath.c_str());
    }
  }
  if (traceSession != nullptr) {
    try {
      support::writeFileAtomic(tracePath, [&](std::ostream& os) {
        traceSession->exportJson(os);
      });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 1;
    }
    std::printf("trace written to %s (open in ui.perfetto.dev or "
                "chrome://tracing)\n",
                tracePath.c_str());
  }
  return exitCode;
}
