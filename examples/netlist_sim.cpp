// Deck-driven example: the paper's original workflow was HSPICE decks with
// piecewise-linear inputs.  This example runs the same kind of deck through
// the built-in simulator: the Figure 1-1 NAND3 written as a SPICE netlist,
// with falling ramps on inputs a and b and c tied to Vdd, and measures the
// proximity effect directly off the waveforms.
//
// With --stats the example additionally pushes a coarsely characterized
// NAND2 through a three-stage STA netlist so the run exercises every layer
// of the stack, then dumps the observability registry as JSON (to the file
// given as --stats=FILE, or to stdout with --stats=-): Newton iterations,
// transient step accounting, proximity-window statistics, characterization
// table points, and STA arc evaluations in one machine-readable report.
//
// With --strict the full-stack stage additionally treats every absorbed
// fault -- characterization points that had to be healed, STA arcs that fell
// back to a degraded delay model -- as a hard error: each event is printed
// to stderr and the process exits non-zero, with the exit code encoding the
// worst severity seen (3 = warning-level events promoted, 4 = error,
// 5 = fatal).  The other flags and exit codes follow the tools' shared
// contract (cli.hpp; README "Exit codes").

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "characterize/characterize.hpp"
#include "cli.hpp"
#include "fleet/bundle.hpp"
#include "spice/netlist.hpp"
#include "spice/tran.hpp"
#include "sta/timing_graph.hpp"
#include "support/diagnostic.hpp"
#include "waveform/measure.hpp"

using namespace prox;
using cli::flagValue;

namespace {

constexpr const char* kUsage =
    "usage: %s [--stats=FILE|-] [--trace=FILE] [--strict] [--threads N] "
    "[--timeout=SECS] [--max-memory=MB] [--max-nodes=N]\n"
    "       [--bundle=FILE] [--corner=NAME] "
    "[--corner-policy=reject|degrade]\n";

// The Figure 1-1 NAND3 with a parameterized separation between a and b.
std::string nand3Deck(double sepPs) {
  const double aStart = 1000.0;            // ps
  const double bStart = aStart + sepPs;    // ps
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(
* Figure 1-1: three-input NAND, c tied to Vdd
.model nm NMOS KP=60u VTO=0.8 LAMBDA=0.02 GAMMA=0.4 PHI=0.65
.model pm PMOS KP=25u VTO=-0.9 LAMBDA=0.04 GAMMA=0.45 PHI=0.65
Vdd vdd 0 5
* pulldown stack (a nearest the output)
M1 out a n1 0 nm W=6u L=0.8u
M2 n1  b n2 0 nm W=6u L=0.8u
M3 n2  c 0  0 nm W=6u L=0.8u
* parallel pullup bank
M4 out a vdd vdd pm W=8u L=0.8u
M5 out b vdd vdd pm W=8u L=0.8u
M6 out c vdd vdd pm W=8u L=0.8u
Cl out 0 100f
* junction parasitics on the stack's internal nodes
Cn1 n1 0 3f
Cn2 n2 0 3f
* stimulus: a falls slowly, b falls fast, c stays high
Va a 0 PWL(0 5 %.1fp 5 %.1fp 0)
Vb b 0 PWL(0 5 %.1fp 5 %.1fp 0)
Vc c 0 5
.end
)",
                aStart, aStart + 500.0, bStart, bStart + 100.0);
  return buf;
}

// A deliberately coarse characterization config: every structural stage of
// the flow runs (singles, dual tables, step correction) at a fraction of the
// production grid density, so the --stats pass stays quick.
characterize::CharacterizationConfig coarseConfig() {
  characterize::CharacterizationConfig c;
  c.tauGrid = {100e-12, 600e-12};
  c.dualTauIndices = {0, 1};
  c.vGrid = {0.3, 1.0, 3.0};
  c.wGrid = {-1.0, 0.0, 0.5, 1.0};
  c.vGridTransition = {0.3, 1.0, 3.0};
  c.wGridTransition = {-1.0, 0.0, 1.0, 3.0};
  c.vtcStep = 0.05;
  return c;
}

// Exit code for --strict: warning-level absorbed faults are promoted to a
// distinct non-zero code so scripts can tell "healed but completed" (3) from
// genuine errors (4) and fatal states (5).
int severityExitCode(support::Severity s) {
  switch (s) {
    case support::Severity::Info: return 0;
    case support::Severity::Warning: return 3;
    case support::Severity::Error: return 4;
    case support::Severity::Fatal: return 5;
  }
  return 4;
}

// Exercises characterization, the proximity model and the STA so the stats
// report covers the full stack, not just the raw deck simulation.  In strict
// mode, any healed characterization point or degraded STA arc is reported on
// stderr and reflected in the returned exit code.
int runFullStackStage(bool strict, int threads, support::CancelToken* cancel,
                      const std::string& bundlePath,
                      const std::string& cornerName,
                      fleet::MissingCornerPolicy cornerPolicy) {
  // CharacterizedGate is move-only, so the stage works through a pointer:
  // either into the loaded bundle or at a locally characterized model.
  fleet::Bundle bundle;
  std::optional<characterize::CharacterizedGate> localCell;
  const characterize::CharacterizedGate* cellPtr = nullptr;
  if (!bundlePath.empty()) {
    // Serve the gate model from a fleet-assembled multi-corner bundle
    // instead of characterizing in-process; a corner the fleet quarantined
    // is handled by the explicit degrade-or-reject policy.
    bundle = fleet::loadBundleFile(bundlePath);
    support::DiagnosticLog degradeLog;
    const fleet::CornerSelection sel =
        fleet::selectCorner(bundle, cornerName, cornerPolicy, &degradeLog);
    std::printf("\nbundle %s: timing a three-stage path at corner '%s'%s\n",
                bundlePath.c_str(), sel.entry->corner.name.c_str(),
                sel.degraded ? " (nearest-corner fallback)" : "");
    for (const auto& d : degradeLog.entries()) {
      std::printf("  %s\n", d.toString().c_str());
    }
    cellPtr = &*sel.entry->gate;
  } else {
    std::printf("\n%s: characterizing a coarse NAND2 and timing a "
                "three-stage path ...\n", strict ? "--strict" : "--stats");
    cells::CellSpec spec;
    spec.type = cells::GateType::Nand;
    spec.fanin = 2;
    auto cfg = coarseConfig();
    cfg.threads = threads;
    cfg.cancel = cancel;
    localCell = characterize::characterizeGate(spec, cfg);
    cellPtr = &*localCell;
  }
  const characterize::CharacterizedGate& cell = *cellPtr;

  sta::Netlist nl;
  for (const char* pi : {"a", "b", "c", "s"}) nl.addPrimaryInput(pi);
  // Pad stages up to the served cell's fanin with stable side inputs, so a
  // bundle gate of any width drops into the same chain.
  std::vector<std::string> pads;
  for (int p = 0; p + 2 < cell.pinCount(); ++p) {
    pads.push_back("p" + std::to_string(p));
    nl.addPrimaryInput(pads.back());
  }
  auto stageInputs = [&](const std::string& first, const std::string& second) {
    std::vector<std::string> v{first};
    if (cell.pinCount() >= 2) v.push_back(second);
    for (const std::string& pad : pads) v.push_back(pad);
    return v;
  };
  nl.addInstance("u1", cell, stageInputs("a", "b"), "y1");
  nl.addInstance("u2", cell, stageInputs("y1", "s"), "y2");
  nl.addInstance("u3", cell, stageInputs("y2", "c"), "y3");

  sta::DelayCalcOptions staOpt;
  staOpt.threads = threads;
  staOpt.cancel = cancel;
  sta::TimingAnalyzer ta(nl, sta::DelayMode::Proximity, staOpt);
  ta.setInputArrival("a", {0.0, 250e-12, wave::Edge::Rising});
  ta.setInputArrival("b", {40e-12, 400e-12, wave::Edge::Rising});
  ta.setInputArrival("c", {600e-12, 300e-12, wave::Edge::Rising});
  ta.run();
  if (const auto out = ta.arrival("y3")) {
    std::printf("  proximity arrival at y3: %.1f ps\n", out->time * 1e12);
  }

  if (!strict) return 0;
  support::Severity worst = support::Severity::Info;
  if (!cell.diagnostics.empty()) {
    std::fprintf(stderr,
                 "--strict: characterization absorbed %zu fault(s):\n",
                 cell.diagnostics.size());
    for (const auto& d : cell.diagnostics.entries()) {
      std::fprintf(stderr, "  %s\n", d.toString().c_str());
    }
    worst = std::max(worst, cell.diagnostics.worstSeverity());
  }
  if (ta.degradedArcs() > 0) {
    std::fprintf(stderr,
                 "--strict: %zu STA arc(s) fell back to a degraded delay "
                 "model\n",
                 ta.degradedArcs());
    worst = std::max(worst, support::Severity::Warning);
  }
  return severityExitCode(worst);
}

}  // namespace

int main(int argc, char** argv) {
  cli::RunFlags flags;
  bool strict = false;
  std::string bundlePath;
  std::string cornerName = "tt";
  fleet::MissingCornerPolicy cornerPolicy = fleet::MissingCornerPolicy::Reject;
  try {
    for (int i = 1; i < argc; ++i) {
      if (flags.parse(argv, argc, &i)) continue;
      const char* v = nullptr;
      if (std::strcmp(argv[i], "--strict") == 0) {
        strict = true;
      } else if ((v = flagValue("--bundle", argv, argc, &i)) != nullptr) {
        bundlePath = cli::nonEmpty("--bundle", v);
      } else if ((v = flagValue("--corner", argv, argc, &i)) != nullptr) {
        cornerName = cli::nonEmpty("--corner", v);
      } else if ((v = flagValue("--corner-policy", argv, argc, &i)) !=
                 nullptr) {
        cornerPolicy =
            cli::choice("--corner-policy", v, "reject|degrade") == "degrade"
                ? fleet::MissingCornerPolicy::Degrade
                : fleet::MissingCornerPolicy::Reject;
      } else {
        throw cli::unknownFlag(argv[i]);
      }
    }
  } catch (const cli::UsageError& e) {
    return cli::usageError(argv[0], kUsage, e.what());
  }

  cli::RunScope scope(argv[0], flags);
  return scope.run([&] {
    std::printf("deck-driven proximity measurement (NAND3, a falls 500 ps, "
                "b falls 100 ps)\n\n");
    // Thresholds from the paper's Section 2 rule for this cell (precomputed
    // by bench_fig2_1; hard-coded here to keep the example self-contained).
    const wave::Thresholds th{1.720, 3.681};
    std::printf("%12s %16s %14s\n", "s_ab [ps]", "out crossing [ps]",
                "rise time [ps]");
    for (double sep : {-400.0, -200.0, 0.0, 200.0, 400.0}) {
      auto nl = spice::parseNetlist(nand3Deck(sep));
      spice::TranOptions opt;
      opt.tstop = 6e-9;
      const auto res = spice::transient(nl.circuit, opt);
      const auto out = res.node("out");
      const auto t = wave::outputRefTime(out, wave::Edge::Rising, th);
      const auto tt = wave::transitionTime(out, wave::Edge::Rising, th);
      std::printf("%12.0f %16.1f %14.1f\n", sep,
                  t ? (*t - 1e-9) * 1e12 : -1.0, tt ? *tt * 1e12 : -1.0);
    }
    std::printf("\nClose/overlapping falling inputs open two parallel PMOS "
                "paths: the output\ncrossing moves earlier and the rise "
                "sharpens -- Figure 1-2(a,b) straight from\na SPICE deck.\n");

    if (flags.statsPath.empty() && !strict && bundlePath.empty()) return 0;
    return runFullStackStage(strict, flags.threads, scope.cancel(),
                             bundlePath, cornerName, cornerPolicy);
  });
}
