// Engine-performance benchmark (google-benchmark): DC operating point and
// transient throughput on CML buffer chains of increasing length, the
// LU kernels (dense, sparse, sparse numeric-only refactorization), the
// parallel defect-screening campaign, and stuck-at fault simulation
// (serial vs 64-way bit-parallel). Not a paper experiment — documents
// what the substrate costs so sweep sizes in the other benches are
// explainable. Record a baseline with:
//   ./bench/perf_simulator --benchmark_format=json > BENCH_perf.json
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/paper_bench.h"
#include "core/screening.h"
#include "digital/faultsim.h"
#include "digital/patterns.h"
#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "sim/dc.h"
#include "sim/mna.h"
#include "sim/transient.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace cmldft;

namespace {

void BM_DcOperatingPoint(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const cml::DiffPort in = cells.AddDifferentialDc("in", true);
  cells.AddBufferChain("x", in, n);
  for (auto _ : state) {
    auto r = sim::SolveDc(nl);
    if (!r.ok()) state.SkipWithError("dc failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(nl.Summary());
}
BENCHMARK(BM_DcOperatingPoint)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_TransientNsPerStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const cml::DiffPort in = cells.AddDifferentialClock("in", 100e6);
  cells.AddBufferChain("x", in, n);
  sim::TransientOptions opts;
  opts.tstop = 10e-9;
  int64_t steps = 0;
  for (auto _ : state) {
    auto r = sim::RunTransient(nl, opts);
    if (!r.ok()) state.SkipWithError("transient failed");
    steps += r->stats().accepted_steps;
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_TransientNsPerStep)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_DenseLuFactorSolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(42);
  linalg::Matrix a(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) a(r, c) = rng.NextDouble(-1, 1);
    a(r, r) += static_cast<double>(n);  // diagonally dominant
  }
  linalg::Vector b(n, 1.0);
  for (auto _ : state) {
    linalg::LuFactorization lu;
    if (!lu.Factor(a).ok()) state.SkipWithError("factor failed");
    auto x = lu.Solve(b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_DenseLuFactorSolve)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Full sparse factorization (pivot search included) on an MNA-like
// pattern (~5 entries/row), beside BM_DenseLuFactorSolve at the same sizes.
void BM_SparseLuFactorSolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(42);
  linalg::SparseBuilder b(n);
  for (size_t r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (int k = 0; k < 4; ++k) {
      const size_t c = rng.NextBelow(n);
      const double v = rng.NextDouble(-1, 1);
      b.Add(r, c, v);
      row_sum += std::abs(v);
    }
    b.Add(r, r, row_sum + 1.0);
  }
  linalg::Vector rhs(n, 1.0);
  for (auto _ : state) {
    linalg::SparseLu lu;
    if (!lu.Factor(b).ok()) state.SkipWithError("factor failed");
    auto x = lu.Solve(rhs);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_SparseLuFactorSolve)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Numeric-only refactorization vs full factorization on the MNA-like
// pattern — the Newton-iteration hot path after the first factor.
void BM_SparseLuRefactor(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(42);
  linalg::SparseBuilder b(n);
  for (size_t r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (int k = 0; k < 4; ++k) {
      const size_t c = rng.NextBelow(n);
      const double v = rng.NextDouble(-1, 1);
      b.Add(r, c, v);
      row_sum += std::abs(v);
    }
    b.Add(r, r, row_sum + 1.0);
  }
  linalg::Vector rhs(n, 1.0);
  linalg::SparseLu lu;
  if (!lu.Factor(b).ok()) state.SkipWithError("factor failed");
  for (auto _ : state) {
    if (!lu.Refactor(b).ok()) state.SkipWithError("refactor failed");
    auto x = lu.Solve(rhs);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_SparseLuRefactor)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Defect-screening campaign throughput: the paper's coverage sweep on a
// small universe. Arg = worker threads (1 = serial reference, 0 = auto).
void BM_DefectScreening(benchmark::State& state) {
  core::ScreeningOptions opt;
  opt.chain_length = 2;
  opt.sim_time = 40e-9;
  opt.detector.load_cap = 1e-12;
  opt.enumeration.pipe_values = {2e3, 4e3};
  opt.enumeration.transistor_shorts = false;
  opt.enumeration.transistor_opens = false;
  opt.enumeration.resistor_shorts = false;
  opt.enumeration.resistor_opens = false;
  opt.enumeration.output_bridges = false;
  opt.threads = static_cast<int>(state.range(0));
  int64_t defects = 0;
  for (auto _ : state) {
    auto report = core::ScreenBufferChain(opt);
    if (!report.ok()) state.SkipWithError("screening failed");
    defects += report->total();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(defects);
  state.SetLabel(opt.threads == 1
                     ? "serial"
                     : std::to_string(util::ResolveThreadCount(
                           SIZE_MAX, opt.threads)) + " threads");
}
BENCHMARK(BM_DefectScreening)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Stuck-at fault-simulation throughput on a >500-fault netlist.
// Arg 0 = serial reference, 1 = bit-parallel single-threaded,
// 2 = bit-parallel all cores.
void BM_StuckAtFaultSim(benchmark::State& state) {
  const digital::GateNetlist nl = digital::MakeScrambler(128);
  const auto faults = digital::EnumerateStuckAtFaults(nl);
  const auto patterns = digital::GeneratePatterns(
      static_cast<int>(nl.inputs().size()), 128, 0xACE1u);
  digital::FaultSimOptions opt;
  opt.threads = state.range(0) == 1 ? 1 : 0;
  int64_t sims = 0;
  for (auto _ : state) {
    auto r = state.range(0) == 0
                 ? digital::RunStuckAtFaultSimSerial(nl, faults, patterns)
                 : digital::RunStuckAtFaultSim(nl, faults, patterns, opt);
    benchmark::DoNotOptimize(r);
    sims += r.total_faults;
  }
  state.SetItemsProcessed(sims);
  state.SetLabel(state.range(0) == 0
                     ? "serial/" + std::to_string(faults.size()) + " faults"
                     : (state.range(0) == 1 ? "packed x1" : "packed all-cores"));
}
BENCHMARK(BM_StuckAtFaultSim)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Raw MNA assembly cost on the BM_DcOperatingPoint/32 system (133
// unknowns): every Assemble() after the first replays the compiled stamp
// targets into the sparse builder. The Arg(1) row name is kept for the
// committed baselines and the CI regression gate.
void BM_Assemble(benchmark::State& state) {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const cml::DiffPort in = cells.AddDifferentialDc("in", true);
  cells.AddBufferChain("x", in, 32);
  sim::MnaSystem mna(nl);
  mna.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
  mna.set_initializing_state(true);
  linalg::Vector x(static_cast<size_t>(mna.num_unknowns()), 0.0);
  for (auto _ : state) {
    mna.Assemble(x);
    benchmark::DoNotOptimize(mna.rhs().data());
  }
  state.SetLabel("sparse");
}
BENCHMARK(BM_Assemble)->Arg(1);

// End-to-end transient on a 32-buffer clocked chain. The name and the
// single Arg(0) ("exact") row are kept for the committed baselines and the
// CI regression gate, which track this family.
void BM_TransientFastPath(benchmark::State& state) {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const cml::DiffPort in = cells.AddDifferentialClock("in", 100e6);
  // Same 32-buffer chain (133 unknowns) as BM_Assemble.
  cells.AddBufferChain("x", in, 32);
  sim::TransientOptions opts;
  opts.tstop = 10e-9;
  int64_t steps = 0;
  for (auto _ : state) {
    auto r = sim::RunTransient(nl, opts);
    if (!r.ok()) state.SkipWithError("transient failed");
    steps += r->stats().accepted_steps;
  }
  state.SetItemsProcessed(steps);
  state.SetLabel("exact");
}
BENCHMARK(BM_TransientFastPath)->Arg(0);

// Hierarchical bordered-block-diagonal solver (sim/hier.h) on clocked
// buffer chains of growing cell count. Arg = chain length; a short
// transient window keeps the 1024-cell point tractable while still
// covering both clock edges. Flat-vs-hier equivalence is gated in
// tests/equivalence_test.cc; this benchmark tracks throughput only
// (items = accepted steps).
void BM_HierTransient(benchmark::State& state) {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const cml::DiffPort in = cells.AddDifferentialClock("in", 500e6);
  cells.AddBufferChain("x", in, static_cast<int>(state.range(0)));
  sim::TransientOptions opts;
  opts.tstop = 2e-9;
  opts.dc.newton.hierarchical = true;
  int64_t steps = 0;
  for (auto _ : state) {
    auto r = sim::RunTransient(nl, opts);
    if (!r.ok()) state.SkipWithError("transient failed");
    steps += r->stats().accepted_steps;
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_HierTransient)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): perf numbers from a build with
// assertions enabled are meaningless (the first committed BENCH_perf.json
// was captured that way by accident), so the binary tags every JSON report
// with the build type and refuses to run without NDEBUG unless
// CMLDFT_ALLOW_DEBUG_BENCH=1 is set (ctest sets it so the regression
// tier's *structural* check still works in Debug configurations).
//
// One provenance tag is outside this binary's reach: google-benchmark
// stamps its own "library_build_type" into the JSON context from the
// NDEBUG state *the library* was compiled with, and exposes no runtime
// API to query it (Debian's libbenchmark-dev ships without NDEBUG, so it
// self-reports "debug" even under a -O2 distro build — that flavour only
// shifts the harness timing-loop overhead, not the cmldft code being
// measured). The guard for it therefore lives where the JSON is
// consumed: golden_check --bench-perf refuses to compare reports whose
// library_build_type is absent or differs from the baseline's, and the
// CI smoke step greps that the tag is present.
int main(int argc, char** argv) {
#ifdef CMLDFT_BUILD_TYPE
  benchmark::AddCustomContext("cmldft_build_type", CMLDFT_BUILD_TYPE);
#else
  benchmark::AddCustomContext("cmldft_build_type", "unknown");
#endif
#ifdef NDEBUG
  benchmark::AddCustomContext("cmldft_assertions", "disabled");
#else
  benchmark::AddCustomContext("cmldft_assertions", "enabled");
  std::fprintf(stderr,
               "perf_simulator: WARNING: assertions are enabled (non-release "
               "build) — timings are not comparable to release baselines.\n");
  if (std::getenv("CMLDFT_ALLOW_DEBUG_BENCH") == nullptr) {
    std::fprintf(stderr,
                 "perf_simulator: refusing to benchmark a debug build; "
                 "rebuild with -DCMAKE_BUILD_TYPE=Release or set "
                 "CMLDFT_ALLOW_DEBUG_BENCH=1 to override.\n");
    return 1;
  }
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
