// Library-characterization example: run the full offline flow for a cell
// and write the deployable ".prox" model package, then reload it and verify
// the round trip -- the workflow a cell-library team would script.
//
//   $ ./characterize_cell                       # writes nand3.prox
//   $ ./characterize_cell --threads 8           # parallel sweeps (same
//                                               # tables, bit for bit)
//   $ ./characterize_cell --checkpoint=run.ckpt # journal results as they land
//   $ ./characterize_cell --checkpoint=run.ckpt --resume
//                                               # replay journaled points,
//                                               # recompute only the rest
//   $ ./characterize_cell --timeout=30          # watchdog: exit 6 with a
//                                               # partial-but-valid checkpoint
//
// Ctrl-C (SIGINT) / SIGTERM flush the checkpoint journal and exit with the
// typed cancelled code (6); a later --resume continues where the run died.
// --crash-at=N kills the process (real SIGKILL, no flushing) when parallel
// task N starts -- the deterministic stand-in for an operator's `kill -9`
// used by the CI kill-resume job.  Flags and exit codes follow the tools'
// shared contract (cli.hpp; README "Exit codes").

#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>

#include "characterize/checkpoint.hpp"
#include "characterize/serialize.hpp"
#include "cli.hpp"
#include "par/pool.hpp"
#include "support/fault_injection.hpp"

using namespace prox;
using cli::flagValue;
using model::InputEvent;
using wave::Edge;

namespace {

constexpr const char* kUsage =
    "usage: %s [--threads N] [--out FILE] [--checkpoint FILE]\n"
    "          [--resume] [--timeout SECS] [--quick]\n"
    "          [--fsync-every N] [--crash-at INDEX]\n"
    "          [--stats FILE|-] [--trace FILE]\n"
    "          [--progress SECS] [--max-memory MB] [--max-nodes N]\n";

}  // namespace

int main(int argc, char** argv) {
  cli::RunFlags flags;
  std::string outPath = "nand3.prox";
  std::string checkpointPath;
  bool resume = false;
  bool quick = false;
  double progressSecs = 0.0;
  long long crashAt = -1;
  support::Journal::Options journalOptions;

  try {
    for (int i = 1; i < argc; ++i) {
      if (flags.parse(argv, argc, &i)) continue;
      const char* v = nullptr;
      if ((v = flagValue("--out", argv, argc, &i)) != nullptr) {
        outPath = v;
      } else if ((v = flagValue("--checkpoint", argv, argc, &i)) != nullptr) {
        checkpointPath = v;
      } else if ((v = flagValue("--crash-at", argv, argc, &i)) != nullptr) {
        crashAt = cli::intValue("--crash-at", v, 0, LLONG_MAX);
      } else if ((v = flagValue("--fsync-every", argv, argc, &i)) != nullptr) {
        journalOptions.fsyncEveryN =
            static_cast<int>(cli::intValue("--fsync-every", v, 1));
      } else if ((v = flagValue("--progress", argv, argc, &i)) != nullptr) {
        progressSecs = cli::secondsValue("--progress", v);
      } else if (std::strcmp(argv[i], "--resume") == 0) {
        resume = true;
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        quick = true;
      } else {
        throw cli::unknownFlag(argv[i]);
      }
    }
    if (resume && checkpointPath.empty()) {
      throw cli::UsageError("--resume requires --checkpoint FILE");
    }
  } catch (const cli::UsageError& e) {
    return cli::usageError(argv[0], kUsage, e.what());
  }

  cells::CellSpec spec;
  spec.type = cells::GateType::Nand;
  spec.fanin = 3;
  spec.wn = 6e-6;
  spec.wp = 8e-6;
  spec.loadCap = 100e-15;

  // Denser grids than the default: this is the offline step, so spend the
  // simulation budget here.  --quick shrinks the grids for CI exercises of
  // the crash/resume machinery, where sweep breadth is not the point.
  characterize::CharacterizationConfig cfg;
  cfg.tauGrid = {50e-12,  100e-12, 200e-12,  400e-12, 700e-12,
                 1100e-12, 1600e-12, 2200e-12};
  cfg.dualTauIndices = {0, 2, 4, 6, 7};
  if (quick) {
    cfg.tauGrid = {50e-12, 200e-12, 700e-12, 2200e-12};
    cfg.dualTauIndices = {0, 1, 2, 3};
    cfg.vGrid = {0.1, 0.3, 1.0, 3.0, 8.0};
    cfg.wGrid = {-2.0, -1.0, -0.5, 0.0, 0.3, 0.6, 1.0};
    cfg.vGridTransition = {0.1, 0.3, 1.0, 3.0, 12.0};
    cfg.wGridTransition = {-2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 6.0};
    cfg.vtcStep = 0.02;
  }
  cfg.threads = flags.threads;
  cfg.progressIntervalSeconds = progressSecs;

  cli::RunScope scope(argv[0], flags);
  cfg.cancel = scope.cancel();
  return scope.run([&] {
    std::unique_ptr<characterize::CheckpointSession> checkpoint;
    if (!checkpointPath.empty()) {
      const std::string fingerprint =
          characterize::configFingerprint(spec, cfg);
      checkpoint = std::make_unique<characterize::CheckpointSession>(
          checkpointPath, fingerprint, resume, journalOptions);
      cfg.checkpoint = checkpoint.get();
      if (resume) {
        std::printf("resuming from %s: %zu journaled result%s\n",
                    checkpointPath.c_str(), checkpoint->loadedRecords(),
                    checkpoint->loadedRecords() == 1 ? "" : "s");
      }
    }

    if (crashAt >= 0) {
      support::FaultPlan::arm({.site = "par.task",
                               .kind = support::FaultKind::ProcessCrash,
                               .taskIndex = crashAt});
    }

    const int resolved =
        flags.threads == 0 ? par::defaultThreadCount() : flags.threads;
    std::printf("characterizing %s on %d thread%s (this runs a few thousand "
                "transistor-level transients)...\n",
                cells::gateTypeName(spec.type, spec.fanin).c_str(), resolved,
                resolved == 1 ? "" : "s");

    characterize::CharacterizedGate gate;
    try {
      gate = characterize::characterizeGate(spec, cfg);
    } catch (const support::DiagnosticError& e) {
      // Pin whatever the journal holds before reporting: the checkpoint
      // must be partial-but-valid no matter why the flow unwound.
      if (checkpoint != nullptr) {
        checkpoint->flush();
        if (cli::exitCode(e.code()) == 6) {
          std::fprintf(stderr,
                       "checkpoint %s is valid; rerun with --resume to "
                       "continue\n",
                       checkpointPath.c_str());
        }
      }
      throw;
    }

    if (checkpoint != nullptr) {
      checkpoint->flush();
      std::printf("  checkpoint: %zu replayed, journal %s\n",
                  checkpoint->replayCount(), checkpointPath.c_str());
    }

    std::printf("  thresholds: V_il = %.3f V, V_ih = %.3f V\n",
                gate.gate.thresholds.vil, gate.gate.thresholds.vih);
    for (int pin = 0; pin < gate.pinCount(); ++pin) {
      const auto& m = gate.singles->at(pin, Edge::Rising);
      std::printf("  pin %d rising:  Delta(100ps) = %.1f ps, Delta(2000ps) = "
                  "%.1f ps\n",
                  pin, m.delay(100e-12) * 1e12, m.delay(2000e-12) * 1e12);
    }
    std::printf("  dual-input tables: %zu bytes total\n",
                gate.dual->totalBytes());
    std::printf("  simultaneous-step corrections (rising): ");
    for (double c : gate.correction.delayErrorRising) {
      std::printf("%+.1f ps ", c * 1e12);
    }
    std::printf("\n");

    characterize::saveGateModel(gate, outPath);
    std::printf("\nwrote %s\n", outPath.c_str());

    // Reload and verify a query agrees bit-for-bit.
    const auto loaded = characterize::loadGateModelFile(outPath);
    std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 300e-12},
                                {1, Edge::Rising, 40e-12, 500e-12},
                                {2, Edge::Rising, -60e-12, 150e-12}};
    const auto r1 = gate.calculator().compute(evs);
    const auto r2 = loaded.calculator().compute(evs);
    std::printf("round-trip check: delay %.3f ps (in-memory) vs %.3f ps "
                "(reloaded) -> %s\n",
                r1.delay * 1e12, r2.delay * 1e12,
                r1.delay == r2.delay ? "identical" : "MISMATCH");

    return r1.delay == r2.delay ? 0 : 1;
  });
}
