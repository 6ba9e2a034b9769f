// STA example: proximity-aware vs classic timing on a small combinational
// block, judged against a flat transistor-level simulation of the whole
// netlist -- the downstream application the paper motivates.
//
// Circuit (one cell type; s1 is a stable side input):
//
//   a ---+
//        |u1>--- y1 ---+
//   b ---+             |u2>--- y2 ---+
//   s1 ----------------+             |u3>--- y3
//   c -------------------------------+
//
// Inputs arrive in a tight burst, so gates see multiple switching inputs in
// close temporal proximity; classic pin-to-pin STA mis-times the stages.
//
// The cell is a NAND2 characterized in process, or the --corner of a
// fleet-assembled bundle (--bundle); a wider cell takes its extra pins from
// stable pad inputs.  The tool doubles as the structural-validation demo:
// --graph builds a deliberately defective variant (cyclic, multidriven,
// dangling, selfloop) and --structural selects the degradation ladder.
// --blif times a BLIF netlist instead and prints its critical path.
//
// With --strict every fault the run absorbed -- a characterization point
// that had to be healed, a quarantined bundle corner served by its nearest
// neighbor, an arc that fell back to a degraded delay model -- is printed
// to stderr and sets the exit code (cli::severityExitCode).  The
// other flags and exit codes follow the tools' shared contract (cli.hpp;
// README "Exit codes").

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "characterize/characterize.hpp"
#include "cli.hpp"
#include "fleet/bundle.hpp"
#include "sta/blif.hpp"
#include "sta/flat_sim.hpp"
#include "support/diagnostic.hpp"

using namespace prox;
using cli::flagValue;
using sta::Arrival;
using sta::DelayMode;
using wave::Edge;

namespace {

constexpr const char* kUsage =
    "usage: %s [--stats=FILE|-] [--trace=FILE] [--threads N] "
    "[--timeout=SECS] [--max-memory=MB] [--max-nodes=N]\n"
    "       [--graph=clean|cyclic|multidriven|dangling|selfloop] "
    "[--structural=reject|degrade]\n"
    "       [--blif=FILE|-] [--lib=analytic|characterized]\n"
    "       [--bundle=FILE] [--corner=NAME] "
    "[--corner-policy=reject|degrade] [--strict]\n";

using Arrivals = std::unordered_map<std::string, Arrival>;

/// One run: its flags, and what it absorbed for --strict.
struct Run {
  cli::RunFlags flags;
  support::CancelToken* cancel = nullptr;
  std::string graph = "clean";
  sta::StructuralPolicy structural = sta::StructuralPolicy::Reject;
  std::string blifPath;
  std::string libKind = "analytic";
  std::string bundlePath;
  std::string cornerName = "tt";
  fleet::MissingCornerPolicy cornerPolicy = fleet::MissingCornerPolicy::Reject;
  bool strict = false;
  /// Faults healed in the cells this run characterized, and a bundle's
  /// nearest-corner substitution.
  support::DiagnosticLog absorbed;
  /// Arcs that fell back to a degraded delay model, over every analysis.
  std::size_t degradedArcs = 0;
};

/// Characterizes one cell at the default grid; its healed faults count
/// toward --strict.
characterize::CharacterizedGate characterizeCell(Run& run,
                                                 cells::GateType type,
                                                 int fanin) {
  cells::CellSpec spec;
  spec.type = type;
  spec.fanin = fanin;
  characterize::CharacterizationConfig cfg;
  cfg.threads = run.flags.threads;
  cfg.cancel = run.cancel;
  characterize::CharacterizedGate cell =
      characterize::characterizeGate(spec, cfg);
  for (const auto& d : cell.diagnostics.entries()) run.absorbed.record(d);
  return cell;
}

/// One analysis of @p nl; its degraded arcs count toward --strict.
sta::TimingAnalyzer analyze(Run& run, const sta::Netlist& nl, DelayMode mode,
                            const Arrivals& arrivals) {
  sta::DelayCalcOptions opt;
  opt.threads = run.flags.threads;
  opt.cancel = run.cancel;
  opt.structural = run.structural;
  sta::TimingAnalyzer ta(nl, mode, opt);
  for (const auto& [net, arr] : arrivals) ta.setInputArrival(net, arr);
  ta.run();
  run.degradedArcs += ta.degradedArcs();
  return ta;
}

/// BLIF mode: reads a circuit (file or "-" = stdin), runs proximity and
/// classic STA with a uniform input stimulus, and prints the critical path.
void runBlifFlow(Run& run) {
  sta::GateLibrary library = sta::analyticLibrary();
  if (run.libKind == "characterized") {
    // Transistor-level characterization per (type, fanin) the input demands.
    // Slow but real; the analytic default answers instantly at any scale.
    library.setFactory([&run](cells::GateType type, int fanin)
                           -> std::optional<characterize::CharacterizedGate> {
      const bool inverter = type == cells::GateType::Inverter;
      if (fanin < 1 || fanin > 8 || inverter != (fanin == 1)) {
        return std::nullopt;
      }
      std::printf("characterizing %s ...\n",
                  cells::gateTypeName(type, fanin).c_str());
      return characterizeCell(run, type, fanin);
    });
  }

  sta::Netlist nl;
  const sta::BlifSummary summary =
      sta::readBlifFile(run.blifPath, library, &nl);
  std::printf("model '%s': %zu gates, %zu inputs, %zu outputs",
              summary.modelName.c_str(), summary.gates, summary.inputs.size(),
              summary.outputs.size());
  if (summary.latches != 0) std::printf(", %zu latch cuts", summary.latches);
  if (summary.constants != 0) std::printf(", %zu constants", summary.constants);
  std::printf("\n");

  Arrivals arrivals;
  for (const std::string& net : summary.inputs) {
    arrivals.emplace(net, Arrival{0.0, 200e-12, Edge::Rising});
  }
  const auto proximity = analyze(run, nl, DelayMode::Proximity, arrivals);
  const auto classic = analyze(run, nl, DelayMode::Classic, arrivals);

  std::printf("%zu levels deep", proximity.levelCount());
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

/// The circuit above on @p cell, or its --graph variant: each variant
/// rewires one connection.  Pins past the second ride on stable pad inputs
/// p0, p1, ..., like s1.
sta::Netlist buildChain(const characterize::CharacterizedGate& cell,
                        const std::string& graph) {
  sta::Netlist nl;
  for (const char* pi : {"a", "b", "c", "s1"}) nl.addPrimaryInput(pi);
  std::vector<std::string> pads;
  for (int p = 2; p < cell.pinCount(); ++p) {
    pads.push_back("p" + std::to_string(p - 2));
    nl.addPrimaryInput(pads.back());
  }
  const auto pins = [&](const char* first, const char* second) {
    std::vector<std::string> in{first};
    if (cell.pinCount() >= 2) in.push_back(second);
    in.insert(in.end(), pads.begin(), pads.end());
    return in;
  };
  const char* u1b = graph == "cyclic"     ? "y3"  // u1 -> u2 -> u3 -> u1
                    : graph == "selfloop" ? "y1"
                                          : "b";
  nl.addInstance("u1", cell, pins("a", u1b), "y1");
  nl.addInstance("u2", cell,
                 pins("y1", graph == "dangling" ? "floating" : "s1"), "y2");
  if (graph == "multidriven") {
    // Lenient construction: the conflicting driver is a property of the
    // (untrusted) input, recorded for validation rather than thrown.
    nl.addInstanceLenient("u2b", cell, pins("c", "s1"), "y2");
  }
  nl.addInstance("u3", cell, pins("y2", "c"), "y3");
  return nl;
}

/// Times the chain on @p cell in both modes against the flat
/// transistor-level simulation; a defective --graph reports what the
/// structural ladder made of it instead.
void timeChain(Run& run, const characterize::CharacterizedGate& cell) {
  const sta::Netlist nl = buildChain(cell, run.graph);
  const Arrivals arrivals{
      {"a", {0.0, 250e-12, Edge::Rising}},
      {"b", {40e-12, 400e-12, Edge::Rising}},
      {"c", {600e-12, 300e-12, Edge::Rising}},
  };

  if (run.graph != "clean") {
    std::printf("validating deliberately defective graph '%s' ...\n",
                run.graph.c_str());
    const auto proximity = analyze(run, nl, DelayMode::Proximity, arrivals);
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
    return;
  }

  const auto classic = analyze(run, nl, DelayMode::Classic, arrivals);
  const auto proximity = analyze(run, nl, DelayMode::Proximity, arrivals);
  if (proximity.degradedArcs() + classic.degradedArcs() > 0) {
    std::printf(
        "note: %zu arc(s) used a degraded delay model (missing or "
        "unusable tables); see sta.delay_calc.degraded_arcs in "
        "--stats\n",
        proximity.degradedArcs() + classic.degradedArcs());
  }

  std::printf("running the flat transistor-level reference simulation ...\n");
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
  std::printf("\n(parenthesized: each mode's arrival minus the flat "
              "simulation's)\n");
}

/// Demo mode: the chain on a NAND2 characterized here, or on a model served
/// from a fleet-assembled multi-corner bundle (fleet/bundle.hpp).  A corner
/// the fleet quarantined is served under an explicit policy -- reject
/// (exit 8) or degrade to the nearest characterized corner with a counted,
/// logged substitution that counts toward --strict -- mirroring the
/// --structural ladder.
void runDemoFlow(Run& run) {
  if (run.bundlePath.empty()) {
    std::printf("characterizing NAND2 cell ...\n");
    timeChain(run, characterizeCell(run, cells::GateType::Nand, 2));
    return;
  }
  const fleet::Bundle bundle = fleet::loadBundleFile(run.bundlePath);
  std::printf("bundle %s: %zu corner(s), %zu characterized\n",
              run.bundlePath.c_str(), bundle.entries.size(), bundle.okCount());
  for (const fleet::BundleEntry& e : bundle.entries) {
    std::printf("  %-12s %-11s%s%s\n", e.corner.name.c_str(),
                fleet::bundleCornerStatusName(e.status),
                e.reason.empty() ? "" : "  ", e.reason.c_str());
  }

  support::DiagnosticLog degradeLog;
  const fleet::CornerSelection sel = fleet::selectCorner(
      bundle, run.cornerName, run.cornerPolicy, &degradeLog);
  if (sel.degraded) {
    std::printf("corner '%s' has no model; degraded to nearest characterized "
                "corner '%s' (see fleet.bundle.nearest_fallbacks in --stats)\n",
                sel.requested.c_str(), sel.entry->corner.name.c_str());
    for (const auto& d : degradeLog.entries()) {
      std::printf("  %s\n", d.toString().c_str());
      run.absorbed.record(d);
    }
  } else {
    std::printf("serving corner '%s'\n", sel.entry->corner.name.c_str());
  }
  timeChain(run, *sel.entry->gate);
}

/// --strict: prints every fault the run absorbed and returns the exit code
/// of the worst; a degraded arc counts as a Warning.
int strictExitCode(const Run& run) {
  support::Severity worst = run.absorbed.worstSeverity();
  if (!run.absorbed.empty()) {
    std::fprintf(stderr, "--strict: the run absorbed %zu fault(s):\n",
                 run.absorbed.size());
    for (const auto& d : run.absorbed.entries()) {
      std::fprintf(stderr, "  %s\n", d.toString().c_str());
    }
  }
  if (run.degradedArcs > 0) {
    std::fprintf(stderr,
                 "--strict: %zu STA arc(s) fell back to a degraded delay "
                 "model\n",
                 run.degradedArcs);
    worst = std::max(worst, support::Severity::Warning);
  }
  return cli::severityExitCode(worst);
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  try {
    for (int i = 1; i < argc; ++i) {
      if (run.flags.parse(argv, argc, &i)) continue;
      const char* v = nullptr;
      if (std::strcmp(argv[i], "--strict") == 0) {
        run.strict = true;
      } else if ((v = flagValue("--graph", argv, argc, &i)) != nullptr) {
        run.graph = cli::choice("--graph", v,
                                "clean|cyclic|multidriven|dangling|selfloop");
      } else if ((v = flagValue("--blif", argv, argc, &i)) != nullptr) {
        run.blifPath = cli::nonEmpty("--blif", v);
      } else if ((v = flagValue("--bundle", argv, argc, &i)) != nullptr) {
        run.bundlePath = cli::nonEmpty("--bundle", v);
      } else if ((v = flagValue("--corner", argv, argc, &i)) != nullptr) {
        run.cornerName = cli::nonEmpty("--corner", v);
      } else if ((v = flagValue("--corner-policy", argv, argc, &i)) !=
                 nullptr) {
        run.cornerPolicy =
            cli::choice("--corner-policy", v, "reject|degrade") == "degrade"
                ? fleet::MissingCornerPolicy::Degrade
                : fleet::MissingCornerPolicy::Reject;
      } else if ((v = flagValue("--lib", argv, argc, &i)) != nullptr) {
        run.libKind = cli::choice("--lib", v, "analytic|characterized");
      } else if ((v = flagValue("--structural", argv, argc, &i)) != nullptr) {
        run.structural =
            cli::choice("--structural", v, "reject|degrade") == "degrade"
                ? sta::StructuralPolicy::Degrade
                : sta::StructuralPolicy::Reject;
      } else {
        throw cli::unknownFlag(argv[i]);
      }
    }
  } catch (const cli::UsageError& e) {
    return cli::usageError(argv[0], kUsage, e.what());
  }

  cli::RunScope scope(argv[0], run.flags);
  run.cancel = scope.cancel();
  return scope.run([&] {
    if (run.bundlePath.empty() && !run.blifPath.empty()) {
      runBlifFlow(run);
    } else {
      runDemoFlow(run);
    }
    return run.strict ? strictExitCode(run) : 0;
  });
}
