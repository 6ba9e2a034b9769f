// Throughput comparison (google-benchmark): what the macromodel buys.
// A full transistor-level transient of the NAND3 costs milliseconds; the
// characterized proximity model answers the same query in sub-microsecond
// time -- the reason macromodels exist for timing analysis.
//
// Unless the caller passes its own --benchmark_out, results are written to
// BENCH_perf.json (google-benchmark's JSON schema) in the working directory,
// and the observability registry is dumped to BENCH_perf_stats.json -- the
// machine-readable perf trajectory that future changes diff against.
// PROX_BENCH_OUT_DIR overrides the output directory.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/collapse.hpp"
#include "bench_util.hpp"
#include "cells/fixture.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "spice/newton.hpp"
#include "spice/op.hpp"
#include "sta/blif.hpp"
#include "sta/synth.hpp"
#include "sta/timing_graph.hpp"
#include "support/durable_io.hpp"

using namespace prox;
using model::InputEvent;
using wave::Edge;

namespace {

std::vector<InputEvent> workloadEvents(int i) {
  // A small rotating set of queries so caches don't trivialize the model runs.
  const double taus[4] = {150e-12, 400e-12, 800e-12, 1500e-12};
  const double seps[4] = {-120e-12, -30e-12, 40e-12, 160e-12};
  const Edge e = i % 2 == 0 ? Edge::Rising : Edge::Falling;
  return {{0, e, 0.0, taus[i % 4]},
          {1, e, seps[i % 4], taus[(i + 1) % 4]},
          {2, e, seps[(i + 2) % 4], taus[(i + 2) % 4]}};
}

void BM_FullTransientSimulation(benchmark::State& state) {
  model::GateSimulator sim(benchutil::nand3Model().gate);
  int i = 0;
  for (auto _ : state) {
    const auto o = sim.simulate(workloadEvents(i++), 0);
    benchmark::DoNotOptimize(o.delay);
  }
}
BENCHMARK(BM_FullTransientSimulation)->Unit(benchmark::kMillisecond);

void BM_ProximityModelTabulated(benchmark::State& state) {
  const auto& cg = benchutil::nand3Model();
  const auto calc = cg.calculator();
  int i = 0;
  for (auto _ : state) {
    const auto r = calc.compute(workloadEvents(i++));
    benchmark::DoNotOptimize(r.delay);
  }
}
BENCHMARK(BM_ProximityModelTabulated)->Unit(benchmark::kMicrosecond);

void BM_ClassicSingleInputModel(benchmark::State& state) {
  const auto& cg = benchutil::nand3Model();
  const auto calc = cg.calculator();
  int i = 0;
  for (auto _ : state) {
    const auto r = calc.computeClassic(workloadEvents(i++));
    benchmark::DoNotOptimize(r.delay);
  }
}
BENCHMARK(BM_ClassicSingleInputModel)->Unit(benchmark::kMicrosecond);

void BM_CollapsedInverterBaseline(benchmark::State& state) {
  baseline::CollapsedInverterModel collapse(benchutil::nand3Model().gate);
  int i = 0;
  for (auto _ : state) {
    const auto r = collapse.compute(workloadEvents(i++), 0);
    benchmark::DoNotOptimize(r.delay);
  }
}
BENCHMARK(BM_CollapsedInverterBaseline)->Unit(benchmark::kMillisecond);

void BM_SingleInputTableLookup(benchmark::State& state) {
  const auto& cg = benchutil::nand3Model();
  const auto& m = cg.singles->at(0, Edge::Rising);
  double tau = 100e-12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.delay(tau));
    tau = tau < 2000e-12 ? tau + 1e-12 : 100e-12;
  }
}
BENCHMARK(BM_SingleInputTableLookup);

// -- thread scaling ----------------------------------------------------------
// The parallel sweep engine's wall-time at 1/2/8 workers.  Results are
// bit-identical at every thread count (determinism_test proves it); these
// series record what the parallelism buys on the host.  UseRealTime because
// the work happens on pool threads, not the benchmark thread.

characterize::CharacterizationConfig sweepConfig(int threads) {
  characterize::CharacterizationConfig c;
  c.tauGrid = {100e-12, 600e-12};
  c.dualTauIndices = {0, 1};
  c.vGrid = {0.3, 1.0, 3.0};
  c.wGrid = {-1.0, 0.0, 0.5, 1.0};
  c.vGridTransition = {0.3, 1.0, 3.0};
  c.wGridTransition = {-1.0, 0.0, 1.0, 3.0};
  c.vtcStep = 0.05;
  c.threads = threads;
  return c;
}

cells::CellSpec nand2Spec() {
  cells::CellSpec s;
  s.type = cells::GateType::Nand;
  s.fanin = 2;
  return s;
}

void BM_CharacterizationSweep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto cfg = sweepConfig(threads);
  model::GateSimulator sim(model::makeGate(nand2Spec(), cfg.vtcStep));
  const auto singles =
      model::SingleInputModelSet::characterizeAll(sim, cfg.tauGrid);
  for (auto _ : state) {
    model::DualTable dt;
    model::DualTable tt;
    characterize::buildDualTables(sim, singles, 0, 1, Edge::Rising, cfg, &dt,
                                  &tt, nullptr);
    benchmark::DoNotOptimize(dt.ratio.data());
    benchmark::DoNotOptimize(tt.ratio.data());
  }
}
// One thread count: after the first iteration every point is a memo hit
// at any thread count, so more workers would time the same hits.
BENCHMARK(BM_CharacterizationSweep)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The sweep above reuses one simulator, so after its first iteration every
// point is a hit in that simulator's oracle memo.  This one builds the same
// tables on a fresh GateSimulator (empty memo) each iteration: every point
// runs its transient, the cost a first characterization pays.
void BM_CharacterizationSweepCold(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto cfg = sweepConfig(threads);
  const model::Gate gate = model::makeGate(nand2Spec(), cfg.vtcStep);
  model::GateSimulator singlesSim(gate);
  const auto singles =
      model::SingleInputModelSet::characterizeAll(singlesSim, cfg.tauGrid);
  for (auto _ : state) {
    model::GateSimulator sim(gate);
    model::DualTable dt;
    model::DualTable tt;
    characterize::buildDualTables(sim, singles, 0, 1, Edge::Rising, cfg, &dt,
                                  &tt, nullptr);
    benchmark::DoNotOptimize(dt.ratio.data());
    benchmark::DoNotOptimize(tt.ratio.data());
  }
}
BENCHMARK(BM_CharacterizationSweepCold)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Levelized STA over a wide fanout cone: 32 sibling arcs per level give the
// pool something to chew on; threads = 1 runs on the calling thread.
const characterize::CharacterizedGate& coarseNand2() {
  static const characterize::CharacterizedGate g =
      characterize::characterizeGate(nand2Spec(), sweepConfig(1));
  return g;
}

void BM_StaLevelizedRun(benchmark::State& state) {
  const auto& cell = coarseNand2();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  constexpr int kWidth = 32;
  for (int i = 0; i < kWidth; ++i) {
    nl.addInstance("u" + std::to_string(i), cell, {"a", "b"},
                   "n" + std::to_string(i));
  }
  for (int i = 0; i < kWidth; i += 2) {
    nl.addInstance("v" + std::to_string(i), cell,
                   {"n" + std::to_string(i), "n" + std::to_string(i + 1)},
                   "m" + std::to_string(i));
  }
  sta::DelayCalcOptions opt;
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sta::TimingAnalyzer ta(nl, sta::DelayMode::Proximity, opt);
    ta.setInputArrival("a", {0.0, 250e-12, Edge::Rising});
    ta.setInputArrival("b", {40e-12, 400e-12, Edge::Rising});
    ta.run();
    benchmark::DoNotOptimize(ta.arrival("m0"));
  }
}
BENCHMARK(BM_StaLevelizedRun)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// -- netlist-scale STA -------------------------------------------------------
// A 100k-gate synthetic circuit (100 layers x 1000 gates) over the analytic
// cell library: the arena-backed graph at a size where storage layout and
// levelization cost actually show, and the circuit e2ebench's sta_wide
// workload times.  BM_StaLargeBuild times graph construction (string
// interning + CSR assembly); BM_StaBlifRead times the BLIF reader on the
// same circuit's text (lexing, building, dropping the card form);
// BM_StaLevelizeCold times the first levelize() of a netlist that has no
// schedule yet.  BM_StaLargeCircuit times the full proximity delay
// calculation on the pre-built graph, with the thread-scaling series on the
// same netlist.  The netlist keeps its levelized schedule, so the first
// iteration levelizes and every later one reuses the schedule: the cost of
// re-timing an unchanged netlist.

sta::SynthSpec largeCircuitSpec() {
  sta::SynthSpec spec;
  spec.seed = 7;
  spec.depth = 100;
  spec.width = 1000;  // 100000 gates
  spec.primaryInputs = 1000;
  spec.maxFanin = 3;
  return spec;
}

const sta::GateLibrary& largeCircuitLibrary() {
  static const sta::GateLibrary lib = sta::analyticLibrary();
  return lib;
}

const sta::Netlist& largeCircuitNetlist() {
  static const sta::Netlist nl = [] {
    sta::Netlist built;
    sta::buildNetlist(largeCircuitSpec(), largeCircuitLibrary(), &built);
    return built;
  }();
  return nl;
}

void BM_StaLargeBuild(benchmark::State& state) {
  const sta::SynthSpec spec = largeCircuitSpec();
  for (auto _ : state) {
    sta::Netlist nl;
    sta::buildNetlist(spec, largeCircuitLibrary(), &nl);
    benchmark::DoNotOptimize(nl.nodeCount());
  }
}
BENCHMARK(BM_StaLargeBuild)->Unit(benchmark::kMillisecond);

void BM_StaBlifRead(benchmark::State& state) {
  const std::string blif = sta::generateBlifString(largeCircuitSpec());
  for (auto _ : state) {
    sta::Netlist nl;
    sta::readBlifString(blif, largeCircuitLibrary(), &nl);
    benchmark::DoNotOptimize(nl.nodeCount());
  }
}
BENCHMARK(BM_StaBlifRead)->Unit(benchmark::kMillisecond);

void BM_StaLevelizeCold(benchmark::State& state) {
  // A copied netlist starts with no schedule.  The copy and the previous
  // copy's destruction happen with the clock paused.
  std::optional<sta::Netlist> nl;
  for (auto _ : state) {
    state.PauseTiming();
    nl.reset();
    nl.emplace(largeCircuitNetlist());
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        nl->levelize(sta::StructuralPolicy::Reject).levelCount());
  }
}
BENCHMARK(BM_StaLevelizeCold)->Unit(benchmark::kMillisecond);

void BM_StaLargeCircuit(benchmark::State& state) {
  const sta::SynthSpec spec = largeCircuitSpec();
  const sta::Netlist& nl = largeCircuitNetlist();
  // Resolve stimulus nets to ids once: the benchmark measures the analysis,
  // not 1000 hash lookups per iteration.
  std::vector<std::pair<sta::NetId, sta::Arrival>> stimulus;
  for (const auto& [net, arr] : sta::synthInputArrivals(spec)) {
    stimulus.emplace_back(nl.findNet(net), arr);
  }
  sta::DelayCalcOptions opt;
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sta::TimingAnalyzer ta(nl, sta::DelayMode::Proximity, opt);
    for (const auto& [net, arr] : stimulus) ta.setInputArrival(net, arr);
    ta.run();
    benchmark::DoNotOptimize(ta.degradedArcs());
  }
}
BENCHMARK(BM_StaLargeCircuit)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// -- solver micro-benchmarks -------------------------------------------------
// The layers of one Newton iteration on the NAND3 cell fixture (the same
// circuit BM_FullTransientSimulation integrates), isolated: stamp assembly,
// full LU factorization, numeric-only refactorization, and a complete Newton
// solve through the reusable workspace.  BM_NewtonSolve is the CI perf-smoke
// regression gate (bench/check_perf_regression.py).

struct SolverFixture {
  cells::CellFixture fix{benchutil::nand3Spec()};
  spice::NewtonWorkspace ws;
  linalg::Vector x;

  SolverFixture() {
    fix.setAllNonControlling();
    spice::Circuit& ckt = fix.circuit();
    ckt.finalize();
    ws.bind(ckt);
    const auto sol = spice::operatingPoint(ckt, {}, nullptr, ws);
    x = sol ? *sol
            : linalg::Vector(static_cast<std::size_t>(ckt.unknownCount()), 0.0);
  }

  /// Stamps the DC system at iterate @p xi into the workspace matrix/RHS.
  void stamp(const linalg::Vector& xi) {
    spice::Circuit& ckt = fix.circuit();
    ws.g.setZero();
    std::fill(ws.rhs.begin(), ws.rhs.end(), 0.0);
    const spice::StampArgs args{ws.g, ws.rhs, xi, 0.0, 0.0, false, true, 1.0};
    for (const auto& dev : ckt.devices()) dev->stamp(args);
    for (const std::size_t slot : ws.diagSlots) ws.g.at(slot) += 1e-12;
  }
};

SolverFixture& solverFixture() {
  static SolverFixture f;
  return f;
}

void BM_StampAssembly(benchmark::State& state) {
  SolverFixture& f = solverFixture();
  for (auto _ : state) {
    f.stamp(f.x);
    benchmark::DoNotOptimize(f.ws.g.data());
  }
}
BENCHMARK(BM_StampAssembly);

void BM_LuFactor(benchmark::State& state) {
  SolverFixture& f = solverFixture();
  f.stamp(f.x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ws.lu.factor(f.ws.g));
  }
}
BENCHMARK(BM_LuFactor);

void BM_LuRefactor(benchmark::State& state) {
  SolverFixture& f = solverFixture();
  f.stamp(f.x);
  f.ws.lu.factor(f.ws.g);  // freeze pivot order + structure
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ws.lu.refactor(f.ws.g));
  }
}
BENCHMARK(BM_LuRefactor);

void BM_NewtonSolve(benchmark::State& state) {
  SolverFixture& f = solverFixture();
  spice::StampContext sc;
  linalg::Vector xWork;
  for (auto _ : state) {
    xWork.assign(f.x.begin(), f.x.end());
    f.ws.invalidateFactor();  // measure real refactor + solve work
    const auto st = spice::solveNewton(f.fix.circuit(), xWork, sc, {}, f.ws);
    benchmark::DoNotOptimize(st.converged);
  }
}
BENCHMARK(BM_NewtonSolve);

// One delayRatio() call: evaluateMany() over a batch of one query.
void BM_DualTableInterpolation(benchmark::State& state) {
  const auto& cg = benchutil::nand3Model();
  model::DualQuery q;
  q.refPin = 0;
  q.otherPin = 1;
  q.edge = Edge::Rising;
  q.tauRef = 300e-12;
  q.tauOther = 500e-12;
  q.sep = 50e-12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cg.dual->delayRatio(q));
    q.sep = q.sep < 200e-12 ? q.sep + 1e-12 : -200e-12;
  }
}
BENCHMARK(BM_DualTableInterpolation);

// Bulk dual-table throughput: one evaluateMany() over a fixed mixed batch
// of delay/transition queries vs the same queries as 4,096 batches of one.
// delayRatio()/transitionRatio() run evaluateMany() over a single query, so
// the loop times the per-call cost of a lone query, not a second lookup
// implementation.  perf_baseline.json gates the batch entry; the loop
// documents the denominator.
std::vector<model::DualQuery> dualBatchQueries() {
  std::vector<model::DualQuery> qs(4096);
  std::uint64_t s = 0x00beefu;
  auto rnd = [&s]() {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  auto unit = [&rnd]() {
    return static_cast<double>(rnd() >> 11) * 0x1.0p-53;
  };
  for (model::DualQuery& q : qs) {
    q.refPin = 0;
    q.otherPin = 1 + static_cast<int>(rnd() % 2);
    q.edge = Edge::Rising;
    q.kind = (rnd() & 1) != 0 ? model::DualKind::Delay
                              : model::DualKind::Transition;
    // In-window separations so every lane reaches the trilinear blend (the
    // shortcut and missing-table lanes are covered by determinism_test).
    q.tauRef = 100e-12 + 600e-12 * unit();
    q.tauOther = 100e-12 + 600e-12 * unit();
    q.sep = -150e-12 + 200e-12 * unit();
  }
  return qs;
}

void BM_DualLookupBatch(benchmark::State& state) {
  const auto& cg = benchutil::nand3Model();
  const auto qs = dualBatchQueries();
  std::vector<model::DualResult> rs(qs.size());
  for (auto _ : state) {
    cg.dual->evaluateMany(qs, rs);
    benchmark::DoNotOptimize(rs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(qs.size()));
}
BENCHMARK(BM_DualLookupBatch)->Unit(benchmark::kMicrosecond);

void BM_DualLookupScalarLoop(benchmark::State& state) {
  const auto& cg = benchutil::nand3Model();
  const auto qs = dualBatchQueries();
  for (auto _ : state) {
    double acc = 0.0;
    for (const model::DualQuery& q : qs) {
      acc += q.kind == model::DualKind::Delay ? cg.dual->delayRatio(q)
                                              : cg.dual->transitionRatio(q);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(qs.size()));
}
BENCHMARK(BM_DualLookupScalarLoop)->Unit(benchmark::kMicrosecond);

// Provenance stamps for the perf trajectory: the commit this binary was
// built from (configure-time git rev-parse, "unknown" outside a checkout)
// and the wall-clock moment the run happened, so BENCH_perf.json /
// BENCH_perf_stats.json files from different PRs are distinguishable.
const char* buildGitSha() {
#ifdef PROX_GIT_SHA
  return PROX_GIT_SHA;
#else
  return "unknown";
#endif
}

std::string isoTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef NDEBUG
  const bool optimizedBuild = true;
#else
  const bool optimizedBuild = false;
#endif
  if (!optimizedBuild) {
    std::fprintf(stderr,
                 "*** WARNING: bench_perf was built WITHOUT optimization "
                 "(no NDEBUG -- configure with CMAKE_BUILD_TYPE=Release); "
                 "timings below are NOT comparable to release numbers ***\n");
  }

  std::string outDir;
  if (const char* dir = std::getenv("PROX_BENCH_OUT_DIR")) {
    outDir = std::string(dir) + "/";
  }

  bool callerProvidedOut = false;
  bool statsOff = false;
  std::string tracePath;
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    // --stats=off: runtime-disable the observability registry, for measuring
    // instrumentation overhead against an identical binary.
    if (i > 0 && std::strcmp(argv[i], "--stats=off") == 0) {
      statsOff = true;
      continue;
    }
    // --trace=FILE: record the whole benchmark run into a Chrome trace.
    if (i > 0 && std::strncmp(argv[i], "--trace=", 8) == 0) {
      tracePath = argv[i] + 8;
      if (tracePath.empty()) {
        std::fprintf(stderr, "bench_perf: --trace= requires a file name\n");
        return 1;
      }
      continue;
    }
    // --threads N / --threads=N: process-wide default worker count (the
    // explicit Arg(1)/Arg(2)/Arg(8) scaling series are unaffected).
    if (i > 0 && std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      prox::par::setDefaultThreadCount(std::atoi(argv[++i]));
      continue;
    }
    if (i > 0 && std::strncmp(argv[i], "--threads=", 10) == 0) {
      prox::par::setDefaultThreadCount(std::atoi(argv[i] + 10));
      continue;
    }
    if (i > 0 && std::strncmp(argv[i], "--benchmark_out", 15) == 0) {
      callerProvidedOut = true;
    }
    args.push_back(argv[i]);
  }
  if (statsOff) prox::obs::setEnabled(false);

  std::unique_ptr<prox::obs::trace::TraceSession> traceSession;
  if (!tracePath.empty()) {
    traceSession = std::make_unique<prox::obs::trace::TraceSession>();
  }

  // benchmark::Initialize consumes recognized flags from argv, so the
  // injected defaults must live in a mutable argv copy.
  if (!callerProvidedOut) {
    args.push_back("--benchmark_out=" + outDir + "BENCH_perf.json");
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argvAug;
  argvAug.reserve(args.size());
  for (std::string& a : args) argvAug.push_back(a.data());
  int argcAug = static_cast<int>(argvAug.size());

  const std::string runTimestamp = isoTimestampUtc();
  benchmark::Initialize(&argcAug, argvAug.data());
  if (benchmark::ReportUnrecognizedArguments(argcAug, argvAug.data())) {
    return 1;
  }
  // Stamp BENCH_perf.json's context block: google-benchmark copies custom
  // context verbatim into the JSON output, so the trajectory tooling can key
  // runs by commit without consulting the stats file.
  benchmark::AddCustomContext("git_sha", buildGitSha());
  benchmark::AddCustomContext("run_timestamp", runTimestamp);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Always write the registry dump, even with a caller-chosen benchmark_out:
  // the build_type tag is what lets downstream tooling reject debug timings.
  obs::Report report = obs::snapshot();
  report.buildType = optimizedBuild ? "release" : "debug";
  report.gitSha = buildGitSha();
  report.runTimestamp = runTimestamp;
  try {
    // Atomic commit, so downstream tooling never parses a torn dump.
    prox::support::writeFileAtomic(
        outDir + "BENCH_perf_stats.json",
        [&](std::ostream& os) { obs::writeJson(report, os); });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_perf: stats dump failed: %s\n", e.what());
  }
  if (traceSession != nullptr) {
    try {
      prox::support::writeFileAtomic(tracePath, [&](std::ostream& os) {
        traceSession->exportJson(os);
      });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_perf: trace dump failed: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
