// Corner-sweep fleet driver: characterize the demo cell at every corner of
// a PVT corner set, one supervised worker process per corner, and assemble
// the results into a multi-corner model bundle.
//
//   $ ./characterize_corners --quick --out corners.proxbundle
//   $ ./characterize_corners --quick --corners my.corners --shards 4
//   $ ./characterize_corners --quick --resume        # replay every shard's
//                                                    # journal byte-identically
//
// Supervision (see DESIGN.md section 12): each worker journals through the
// checkpoint layer; a worker that crashes, hangs (heartbeat silence), blows
// its deadline, exits nonzero, or writes an invalid artifact is retried
// with exponential backoff and --resume, and lands in quarantine after
// --max-retries failures.  Quarantined corners are recorded -- with exit
// code and last diagnostic -- in the fleet report JSON and as explicit
// holes in the bundle manifest, which sta_path then serves under an
// explicit degrade-or-reject policy.
//
// --inject drives the failure ladder deterministically for tests/CI:
//   --inject=crash@1      shard 1's first attempt dies by SIGKILL mid-sweep
//   --inject=crash@1*2    ...its first two attempts
//   --inject=hang@0       shard 0's first attempt stops producing output
//   --inject=corrupt@2    shard 2's first attempt corrupts its artifact
//
// Flags and exit codes follow the tools' shared contract (cli.hpp; README
// "Exit codes"); a fleet that completes with quarantined corners exits 1,
// with the bundle and report still written.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cells/corner.hpp"
#include "characterize/checkpoint.hpp"
#include "characterize/serialize.hpp"
#include "cli.hpp"
#include "fleet/bundle.hpp"
#include "fleet/orchestrator.hpp"
#include "support/durable_io.hpp"
#include "support/fault_injection.hpp"
#include "support/journal.hpp"

using namespace prox;
using cli::flagValue;

namespace {

constexpr const char* kUsage =
    "usage: %s [--corners FILE] [--out BUNDLE] [--workdir DIR]\n"
    "          [--shards N] [--max-retries N] [--retry-backoff SECS]\n"
    "          [--deadline SECS] [--heartbeat-timeout SECS]\n"
    "          [--resume] [--quick] [--threads N] [--fsync-every N]\n"
    "          [--progress SECS] [--timeout SECS] [--report FILE]\n"
    "          [--inject SPEC[,SPEC...]] [--stats FILE|-] [--quiet]\n"
    "  SPEC: (crash|hang|corrupt)@SHARD[*COUNT]\n";

/// Worker-facing corner encoding: exact double bit patterns, so the worker
/// fingerprints precisely the technology the supervisor intended.
std::string encodeCorner(const cells::Corner& c) {
  const auto bits = [](double v) {
    return ':' + support::hex64(support::doubleToBits(v));
  };
  return c.name + bits(c.vddScale) + bits(c.vtShift) + bits(c.kpScale) +
         bits(c.gammaScale);
}

bool decodeCorner(const std::string& s, cells::Corner* out) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t colon = s.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, colon - start));
    start = colon + 1;
  }
  const auto bits = [](const std::string& hex, std::uint64_t* out) {
    return hex.size() == 16 && support::parseHex(hex, out);
  };
  std::uint64_t vdd, vt, kp, gamma;
  if (parts.size() != 5 || parts[0].empty() || !bits(parts[1], &vdd) ||
      !bits(parts[2], &vt) || !bits(parts[3], &kp) || !bits(parts[4], &gamma)) {
    return false;
  }
  out->name = parts[0];
  out->vddScale = support::bitsFromDouble(vdd);
  out->vtShift = support::bitsFromDouble(vt);
  out->kpScale = support::bitsFromDouble(kp);
  out->gammaScale = support::bitsFromDouble(gamma);
  return true;
}

/// The demo cell at @p corner: the same NAND3 characterize_cell ships, with
/// the corner folded into its technology.
cells::CellSpec cellAtCorner(const cells::Corner& corner) {
  cells::CellSpec spec;
  spec.type = cells::GateType::Nand;
  spec.fanin = 3;
  spec.wn = 6e-6;
  spec.wp = 8e-6;
  spec.loadCap = 100e-15;
  spec.tech = cells::applyCorner(cells::Technology::generic5v(), corner);
  return spec;
}

characterize::CharacterizationConfig sweepConfig(bool quick, int threads,
                                                 double progressSecs) {
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
  return cfg;
}

std::string artifactPath(const std::string& workdir,
                         const std::string& corner) {
  return workdir + "/corner-" + corner + ".prox";
}

std::string journalPath(const std::string& workdir,
                        const std::string& corner) {
  return workdir + "/shard-" + corner + ".ckpt";
}

bool fileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Loads + CRC-checks the artifact; used both for --resume skip detection
/// and post-exit validation of every finished shard.
bool artifactValid(const std::string& path, std::string* reason) {
  try {
    (void)characterize::loadGateModelFile(path);
    return true;
  } catch (const std::exception& e) {
    if (reason != nullptr) *reason = e.what();
    return false;
  }
}

// --- worker mode ------------------------------------------------------------

/// One shard: characterize one corner with a journal, write the artifact
/// atomically.  Runs in its own process under the orchestrator (but is a
/// plain exit-coded program, so it can also be run by hand for debugging).
int runWorker(const cells::Corner& corner, const std::string& workdir,
              bool quick, int threads, int fsyncEveryN, bool resume,
              double progressSecs, long long crashAt, bool faultHang,
              bool faultCorrupt, support::CancelToken* cancel) {
  const cells::CellSpec spec = cellAtCorner(corner);
  characterize::CharacterizationConfig cfg =
      sweepConfig(quick, threads, progressSecs);
  cfg.cancel = cancel;

  support::Journal::Options journalOptions;
  if (fsyncEveryN >= 1) journalOptions.fsyncEveryN = fsyncEveryN;
  const std::string fingerprint = characterize::configFingerprint(spec, cfg);
  characterize::CheckpointSession checkpoint(journalPath(workdir, corner.name),
                                             fingerprint, resume,
                                             journalOptions);
  cfg.checkpoint = &checkpoint;
  if (resume && checkpoint.loadedRecords() > 0) {
    std::printf("[worker %s] resuming: %zu journaled results\n",
                corner.name.c_str(), checkpoint.loadedRecords());
  }

  if (crashAt >= 0) {
    support::FaultPlan::arm({.site = "par.task",
                             .kind = support::FaultKind::ProcessCrash,
                             .taskIndex = crashAt});
  } else if (faultHang) {
    support::FaultPlan::arm({.site = "fleet.worker.hang",
                             .kind = support::FaultKind::WorkerHang});
  } else if (faultCorrupt) {
    support::FaultPlan::arm({.site = "fleet.worker.artifact",
                             .kind = support::FaultKind::CorruptArtifact});
  }

  if (PROX_FAULT_POINT("fleet.worker.hang", WorkerHang)) {
    // Injected hang: alive but silent and unresponsive to cooperative
    // cancellation, so the supervisor's heartbeat -> SIGTERM -> SIGKILL
    // ladder is what ends this process.
    while (true) ::usleep(100 * 1000);
  }

  std::printf("[worker %s] characterizing (vdd x%g, vt %+g V, kp x%g, "
              "gamma x%g)\n",
              corner.name.c_str(), corner.vddScale, corner.vtShift,
              corner.kpScale, corner.gammaScale);

  characterize::CharacterizedGate gate;
  try {
    gate = characterize::characterizeGate(spec, cfg);
  } catch (const support::DiagnosticError&) {
    checkpoint.flush();  // the retry resumes from what this attempt computed
    throw;
  }
  checkpoint.flush();

  const std::string outPath = artifactPath(workdir, corner.name);
  characterize::saveGateModel(gate, outPath);

  if (PROX_FAULT_POINT("fleet.worker.artifact", CorruptArtifact)) {
    // Injected artifact damage *after* the atomic commit: the classic
    // "exit 0 but the output is garbage" failure the validate step exists
    // to catch.
    std::FILE* f = std::fopen(outPath.c_str(), "r+b");
    if (f != nullptr) {
      std::fseek(f, -16, SEEK_END);
      std::fputc('X', f);
      std::fclose(f);
    }
    std::printf("[worker %s] fault injection: corrupted %s\n",
                corner.name.c_str(), outPath.c_str());
  }

  std::printf("[worker %s] wrote %s (%zu replayed)\n", corner.name.c_str(),
              outPath.c_str(), checkpoint.replayCount());
  return 0;
}

// --- supervisor mode --------------------------------------------------------

struct InjectSpec {
  std::string kind;  // crash | hang | corrupt
  std::size_t shard = 0;
  int count = 1;
};

/// Parses --inject's comma-separated SPECs; a bad one is a usage error.
std::vector<InjectSpec> parseInject(const std::string& text) {
  std::vector<InjectSpec> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string spec = text.substr(start, comma - start);
    start = comma + 1;
    const std::size_t at = spec.find('@');
    InjectSpec is;
    is.kind = spec.substr(0, at);
    if (at == std::string::npos ||
        (is.kind != "crash" && is.kind != "hang" && is.kind != "corrupt")) {
      throw cli::UsageError("bad --inject spec \"" + spec + "\"");
    }
    const std::size_t star = spec.find('*', at);
    is.shard = static_cast<std::size_t>(cli::intValue(
        "--inject SHARD", spec.substr(at + 1, star - at - 1).c_str(), 0));
    if (star != std::string::npos) {
      is.count = static_cast<int>(
          cli::intValue("--inject COUNT", spec.c_str() + star + 1, 1));
    }
    out.push_back(std::move(is));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  cli::RunFlags flags;  // --stats, --threads and --timeout only
  flags.threads = 1;
  std::string cornersPath;
  std::string outPath = "corners.proxbundle";
  std::string workdir;
  std::string reportPath;
  std::string workerArg;  // --worker-corner: this process is one shard
  std::string progressArg;  // forwarded to workers as parsed
  std::vector<InjectSpec> injects;
  int shards = 2;
  int maxRetries = 2;
  int fsyncEveryN = 0;
  double retryBackoff = 0.25;
  double deadlineSecs = 0.0;
  double heartbeatSecs = 0.0;
  double progressSecs = 0.0;
  long long crashAt = -1;
  bool resume = false;
  bool quick = false;
  bool quiet = false;
  bool faultHang = false;
  bool faultCorrupt = false;
  cells::Corner workerCorner;

  try {
    for (int i = 1; i < argc; ++i) {
      const char* v = nullptr;
      if ((v = flagValue("--corners", argv, argc, &i)) != nullptr) {
        cornersPath = v;
      } else if ((v = flagValue("--out", argv, argc, &i)) != nullptr) {
        outPath = v;
      } else if ((v = flagValue("--workdir", argv, argc, &i)) != nullptr) {
        workdir = v;
      } else if ((v = flagValue("--report", argv, argc, &i)) != nullptr) {
        reportPath = v;
      } else if ((v = flagValue("--stats", argv, argc, &i)) != nullptr) {
        flags.statsPath = cli::nonEmpty("--stats", v);
      } else if ((v = flagValue("--shards", argv, argc, &i)) != nullptr) {
        shards = static_cast<int>(cli::intValue("--shards", v, 1));
      } else if ((v = flagValue("--max-retries", argv, argc, &i)) != nullptr) {
        maxRetries = static_cast<int>(cli::intValue("--max-retries", v, 0));
      } else if ((v = flagValue("--retry-backoff", argv, argc, &i)) !=
                 nullptr) {
        retryBackoff = cli::secondsValue("--retry-backoff", v, true);
      } else if ((v = flagValue("--deadline", argv, argc, &i)) != nullptr) {
        deadlineSecs = cli::secondsValue("--deadline", v, true);
      } else if ((v = flagValue("--heartbeat-timeout", argv, argc, &i)) !=
                 nullptr) {
        heartbeatSecs = cli::secondsValue("--heartbeat-timeout", v, true);
      } else if ((v = flagValue("--threads", argv, argc, &i)) != nullptr) {
        flags.threads = static_cast<int>(cli::intValue("--threads", v, 0));
      } else if ((v = flagValue("--fsync-every", argv, argc, &i)) != nullptr) {
        fsyncEveryN = static_cast<int>(cli::intValue("--fsync-every", v, 1));
      } else if ((v = flagValue("--progress", argv, argc, &i)) != nullptr) {
        progressSecs = cli::secondsValue("--progress", v);
        progressArg = v;
      } else if ((v = flagValue("--timeout", argv, argc, &i)) != nullptr) {
        flags.timeoutSecs = cli::secondsValue("--timeout", v);
      } else if ((v = flagValue("--inject", argv, argc, &i)) != nullptr) {
        injects = parseInject(v);
      } else if ((v = flagValue("--worker-corner", argv, argc, &i)) !=
                 nullptr) {
        workerArg = v;
      } else if ((v = flagValue("--crash-at", argv, argc, &i)) != nullptr) {
        crashAt = cli::intValue("--crash-at", v, 0, LLONG_MAX);
      } else if (std::strcmp(argv[i], "--fault-hang") == 0) {
        faultHang = true;
      } else if (std::strcmp(argv[i], "--fault-corrupt") == 0) {
        faultCorrupt = true;
      } else if (std::strcmp(argv[i], "--resume") == 0) {
        resume = true;
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        quick = true;
      } else if (std::strcmp(argv[i], "--quiet") == 0) {
        quiet = true;
      } else {
        throw cli::unknownFlag(argv[i]);
      }
    }
    if (!workerArg.empty() && !decodeCorner(workerArg, &workerCorner)) {
      throw cli::UsageError("bad --worker-corner encoding");
    }
  } catch (const cli::UsageError& e) {
    return cli::usageError(argv[0], kUsage, e.what());
  }
  if (workdir.empty()) workdir = outPath + ".work";
  if (reportPath.empty()) reportPath = outPath + ".fleet.json";

  cli::RunScope scope(argv[0], flags);
  if (!workerArg.empty()) {
    return scope.run([&] {
      return runWorker(workerCorner, workdir, quick, flags.threads,
                       fsyncEveryN, resume, progressSecs, crashAt, faultHang,
                       faultCorrupt, scope.cancel());
    });
  }

  // Supervisor mode.
  return scope.run([&] {
    const std::vector<cells::Corner> corners =
        cornersPath.empty() ? cells::defaultCorners()
                            : cells::loadCornersFile(cornersPath);

    if (::mkdir(workdir.c_str(), 0755) != 0 && errno != EEXIST) {
      throw std::runtime_error("cannot create workdir " + workdir);
    }

    // Fleet-level resume: a corner whose artifact already loads cleanly is
    // done (skipped entirely); one with a journal resumes from it.
    std::vector<bool> alreadyDone(corners.size(), false);
    std::vector<fleet::ShardSpec> specs;
    std::vector<std::size_t> shardCorner;  // spec index -> corner index
    for (std::size_t i = 0; i < corners.size(); ++i) {
      const cells::Corner& corner = corners[i];
      const std::string artifact = artifactPath(workdir, corner.name);
      if (resume && fileExists(artifact) && artifactValid(artifact, nullptr)) {
        alreadyDone[i] = true;
        continue;
      }
      fleet::ShardSpec spec;
      spec.name = corner.name;
      const bool hasJournal =
          resume && fileExists(journalPath(workdir, corner.name));
      spec.resumesFromJournal = hasJournal;
      const std::string self = argv[0];
      const std::size_t shardIndex = specs.size();
      spec.command = [=, &injects](int attempt) {
        std::vector<std::string> cmd{
            self, "--worker-corner=" + encodeCorner(corner),
            "--workdir=" + workdir,
            "--threads=" + std::to_string(flags.threads)};
        if (quick) cmd.push_back("--quick");
        if (fsyncEveryN >= 1) {
          cmd.push_back("--fsync-every=" + std::to_string(fsyncEveryN));
        }
        if (!progressArg.empty()) cmd.push_back("--progress=" + progressArg);
        // Any attempt after the first -- and the first attempt over a prior
        // run's journal -- replays instead of restarting.
        if (attempt > 0 || hasJournal) cmd.push_back("--resume");
        for (const InjectSpec& is : injects) {
          if (is.shard != shardIndex || attempt >= is.count) continue;
          if (is.kind == "crash") cmd.push_back("--crash-at=2");
          else if (is.kind == "hang") cmd.push_back("--fault-hang");
          else cmd.push_back("--fault-corrupt");
        }
        return cmd;
      };
      spec.validateArtifact = [artifact](std::string* reason) {
        return artifactValid(artifact, reason);
      };
      specs.push_back(std::move(spec));
      shardCorner.push_back(i);
    }

    fleet::FleetOptions options;
    options.maxParallel = shards;
    options.maxRetries = maxRetries;
    options.backoffBaseSeconds = retryBackoff;
    options.shardDeadlineSeconds = deadlineSecs;
    options.heartbeatTimeoutSeconds = heartbeatSecs;
    options.cancel = scope.cancel();
    options.echoWorkerOutput = !quiet;

    if (!quiet) {
      std::printf("fleet: %zu corner%s (%zu already done), up to %d worker%s"
                  ", max %d retr%s\n",
                  corners.size(), corners.size() == 1 ? "" : "s",
                  static_cast<std::size_t>(
                      std::count(alreadyDone.begin(), alreadyDone.end(), true)),
                  shards, shards == 1 ? "" : "s", maxRetries,
                  maxRetries == 1 ? "y" : "ies");
    }

    fleet::FleetReport report = fleet::runFleet(specs, options);

    // Merge the skipped (already-done) corners into the report so --resume
    // runs document the whole fleet, not just the relaunched slice.
    std::vector<fleet::ShardResult> merged;
    std::size_t ri = 0;
    for (std::size_t i = 0; i < corners.size(); ++i) {
      if (alreadyDone[i]) {
        fleet::ShardResult s;
        s.name = corners[i].name;
        s.state = fleet::ShardState::Done;
        s.attempts = 0;
        s.lastExitCode = 0;
        s.resumedFromJournal = true;
        merged.push_back(std::move(s));
      } else {
        merged.push_back(std::move(report.shards[ri++]));
      }
    }
    report.shards = std::move(merged);

    support::writeFileAtomic(reportPath, [&](std::ostream& os) {
      report.writeJson(os);
    });

    // Bundle assembly: every corner appears in the manifest; only the
    // characterized ones carry sections.
    std::vector<fleet::BundleWriteEntry> entries;
    for (std::size_t i = 0; i < corners.size(); ++i) {
      fleet::BundleWriteEntry e;
      e.corner = corners[i];
      const fleet::ShardResult& s = report.shards[i];
      if (s.state == fleet::ShardState::Done) {
        e.status = fleet::BundleCornerStatus::Ok;
        e.proxPath = artifactPath(workdir, corners[i].name);
      } else if (s.state == fleet::ShardState::Quarantined) {
        e.status = fleet::BundleCornerStatus::Quarantined;
        e.reason = "attempts=" + std::to_string(s.attempts) +
                   (s.lastSignal != 0
                        ? ",signal=" + std::to_string(s.lastSignal)
                        : ",exit=" + std::to_string(s.lastExitCode));
      } else {
        e.status = fleet::BundleCornerStatus::Missing;
        e.reason = fleet::shardStateName(s.state);
      }
      entries.push_back(std::move(e));
    }
    fleet::writeBundle(outPath, entries);

    const std::size_t quarantined =
        report.countIn(fleet::ShardState::Quarantined);
    if (!quiet) {
      for (const fleet::ShardResult& s : report.shards) {
        std::printf("  %-12s %-11s attempts=%d%s%s\n", s.name.c_str(),
                    fleet::shardStateName(s.state), s.attempts,
                    s.state == fleet::ShardState::Quarantined
                        ? (" exit=" + std::to_string(s.lastExitCode) +
                           " signal=" + std::to_string(s.lastSignal))
                              .c_str()
                        : "",
                    s.lastDiagnostic.empty()
                        ? ""
                        : ("  [" + s.lastDiagnostic + "]").c_str());
      }
      std::printf("wrote %s (%zu ok, %zu quarantined), report %s\n",
                  outPath.c_str(), report.countIn(fleet::ShardState::Done),
                  quarantined, reportPath.c_str());
    }

    return quarantined == 0 && report.allDone() ? 0 : 1;
  });
}
