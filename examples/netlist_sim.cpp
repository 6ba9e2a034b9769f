// Deck-driven example: the paper's original workflow was HSPICE decks with
// piecewise-linear inputs.  This example runs the same kind of deck through
// the built-in simulator: the Figure 1-1 NAND3 written as a SPICE netlist,
// with falling ramps on inputs a and b and c tied to Vdd, and measures the
// proximity effect directly off the waveforms.  sta_path carries the
// macromodel from characterization through timing analysis.
//
// Flags and exit codes follow the tools' shared contract (cli.hpp; README
// "Exit codes"); --stats=FILE|- dumps the observability registry as JSON.

#include <cstdio>
#include <string>

#include "cli.hpp"
#include "spice/netlist.hpp"
#include "spice/tran.hpp"
#include "waveform/measure.hpp"

using namespace prox;

namespace {

constexpr const char* kUsage =
    "usage: %s [--stats=FILE|-] [--trace=FILE] [--threads N] "
    "[--timeout=SECS] [--max-memory=MB] [--max-nodes=N]\n";

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

}  // namespace

int main(int argc, char** argv) {
  cli::RunFlags flags;
  try {
    for (int i = 1; i < argc; ++i) {
      if (!flags.parse(argv, argc, &i)) throw cli::unknownFlag(argv[i]);
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
    return 0;
  });
}
