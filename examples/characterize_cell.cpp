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
// used by the CI kill-resume job.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "characterize/checkpoint.hpp"
#include "characterize/serialize.hpp"
#include "cli_flags.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "support/budget.hpp"
#include "support/cancel.hpp"
#include "support/durable_io.hpp"
#include "support/fault_injection.hpp"

using namespace prox;
using cli::flagValue;
using model::InputEvent;
using wave::Edge;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--out FILE] [--checkpoint FILE]\n"
               "          [--resume] [--timeout SECS] [--quick]\n"
               "          [--fsync-every N] [--crash-at INDEX]\n"
               "          [--stats FILE] [--trace FILE]\n"
               "          [--progress SECS] [--max-memory MB] "
               "[--max-nodes N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 0;  // 0 = par::defaultThreadCount() (PROX_THREADS or cores)
  std::string outPath = "nand3.prox";
  std::string checkpointPath;
  std::string statsPath;
  std::string tracePath;
  bool resume = false;
  bool quick = false;
  double timeoutSecs = 0.0;
  double progressSecs = 0.0;
  long long crashAt = -1;
  support::Journal::Options journalOptions;
  support::ResourceBudget budget;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = flagValue("--threads", argv, argc, &i)) != nullptr) {
      threads = std::atoi(v);
      if (threads < 0) {
        std::fprintf(stderr, "%s: --threads expects N >= 0\n", argv[0]);
        return 2;
      }
    } else if ((v = flagValue("--out", argv, argc, &i)) != nullptr) {
      outPath = v;
    } else if ((v = flagValue("--checkpoint", argv, argc, &i)) != nullptr) {
      checkpointPath = v;
    } else if ((v = flagValue("--timeout", argv, argc, &i)) != nullptr) {
      timeoutSecs = std::atof(v);
      if (timeoutSecs <= 0.0) {
        std::fprintf(stderr, "%s: --timeout expects SECS > 0\n", argv[0]);
        return 2;
      }
    } else if ((v = flagValue("--crash-at", argv, argc, &i)) != nullptr) {
      crashAt = std::atoll(v);
    } else if ((v = flagValue("--fsync-every", argv, argc, &i)) != nullptr) {
      journalOptions.fsyncEveryN = std::atoi(v);
      if (journalOptions.fsyncEveryN < 1) {
        std::fprintf(stderr, "%s: --fsync-every expects N >= 1\n", argv[0]);
        return 2;
      }
    } else if ((v = flagValue("--stats", argv, argc, &i)) != nullptr) {
      statsPath = v;
    } else if ((v = flagValue("--trace", argv, argc, &i)) != nullptr) {
      tracePath = v;
    } else if ((v = flagValue("--progress", argv, argc, &i)) != nullptr) {
      progressSecs = std::atof(v);
      if (progressSecs <= 0.0) {
        std::fprintf(stderr, "%s: --progress expects SECS > 0\n", argv[0]);
        return 2;
      }
    } else if ((v = flagValue("--max-memory", argv, argc, &i)) != nullptr) {
      const long mb = std::atol(v);
      if (mb <= 0) {
        std::fprintf(stderr, "%s: --max-memory expects MB > 0\n", argv[0]);
        return 2;
      }
      budget.maxRssBytes = static_cast<std::size_t>(mb) << 20;
    } else if ((v = flagValue("--max-nodes", argv, argc, &i)) != nullptr) {
      const long n = std::atol(v);
      if (n <= 0) {
        std::fprintf(stderr, "%s: --max-nodes expects N > 0\n", argv[0]);
        return 2;
      }
      budget.maxNodes = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (resume && checkpointPath.empty()) {
    std::fprintf(stderr, "%s: --resume requires --checkpoint FILE\n", argv[0]);
    return 2;
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
  cfg.threads = threads;
  cfg.progressIntervalSeconds = progressSecs;

  // Recording window across the whole characterization; the JSON is written
  // atomically after the flow finishes (a crash mid-run leaves no file).
  std::unique_ptr<obs::trace::TraceSession> traceSession;
  if (!tracePath.empty()) {
    traceSession = std::make_unique<obs::trace::TraceSession>();
  }

  support::CancelToken cancelToken;
  if (timeoutSecs > 0.0) cancelToken.setTimeout(timeoutSecs);
  support::SignalCancelScope signalScope(&cancelToken);
  // Installed on the main thread too, so serial (threads=1) engine loops
  // poll the same token parallel workers get from ParallelOptions::cancel.
  support::CancelScope mainScope(&cancelToken);
  cfg.cancel = &cancelToken;

  // Resource governance: deadline rides the cancel token; memory/table
  // ceilings trip typed ResourceExhausted failures mapped to exit code 7.
  budget.cancel = &cancelToken;
  support::BudgetTracker budgetTracker(budget);
  support::BudgetScope budgetScope(&budgetTracker);

  std::unique_ptr<characterize::CheckpointSession> checkpoint;
  if (!checkpointPath.empty()) {
    const std::string fingerprint = characterize::configFingerprint(spec, cfg);
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

  const int resolved = threads == 0 ? par::defaultThreadCount() : threads;
  std::printf("characterizing %s on %d thread%s (this runs a few thousand "
              "transistor-level transients)...\n",
              cells::gateTypeName(spec.type, spec.fanin).c_str(), resolved,
              resolved == 1 ? "" : "s");

  characterize::CharacterizedGate gate;
  try {
    gate = characterize::characterizeGate(spec, cfg);
  } catch (const support::DiagnosticError& e) {
    // Pin whatever the journal holds before reporting: the checkpoint must
    // be partial-but-valid no matter why the flow unwound.
    if (checkpoint) checkpoint->flush();
    std::fprintf(stderr, "%s\n", e.diagnostic().toString().c_str());
    // Best-effort stats on the unwind path: budget/cancellation post-mortems
    // (the support.budget.* counters especially) belong in the report.
    if (!statsPath.empty()) {
      try {
        support::writeFileAtomic(statsPath,
                                 [](std::ostream& os) { obs::writeJson(os); });
        std::printf("stats report written to %s\n", statsPath.c_str());
      } catch (const std::exception&) {
      }
    }
    const support::StatusCode code = e.code();
    if (code == support::StatusCode::Cancelled ||
        code == support::StatusCode::DeadlineExceeded) {
      if (checkpoint) {
        std::fprintf(stderr,
                     "checkpoint %s is valid; rerun with --resume to "
                     "continue\n",
                     checkpointPath.c_str());
      }
      return 6;
    }
    if (code == support::StatusCode::ResourceExhausted) return 7;
    return 1;
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
  std::printf("  dual-input tables: %zu bytes total\n", gate.dual->totalBytes());
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

  try {
    if (!statsPath.empty()) {
      // Atomic commit: readers (and the crash-at CI job) see the previous
      // report or the complete new one, never a torn file.
      support::writeFileAtomic(statsPath,
                               [](std::ostream& os) { obs::writeJson(os); });
      std::printf("stats report written to %s\n", statsPath.c_str());
    }
    if (traceSession != nullptr) {
      support::writeFileAtomic(tracePath, [&](std::ostream& os) {
        traceSession->exportJson(os);
      });
      std::printf("trace written to %s (open in ui.perfetto.dev or "
                  "chrome://tracing)\n",
                  tracePath.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  return r1.delay == r2.delay ? 0 : 1;
}
