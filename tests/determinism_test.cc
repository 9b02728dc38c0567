// Parallel == serial determinism guarantees for the campaign engine:
//  - defect screening classifications are bit-identical for any thread
//    count (each defect simulates an independent netlist copy),
//  - bit-parallel (PPSFP) stuck-at fault simulation reproduces the serial
//    reference's detected_at exactly on the seed circuits,
//  - Monte-Carlo sweeps return bit-identical trial results regardless of
//    thread count (technologies are pre-sampled serially).
//  - telemetry counters and histograms (never timers) are bit-identical
//    across thread counts for the same workload.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "cml/builder.h"
#include "cml/variation.h"
#include "core/screening.h"
#include "digital/faultsim.h"
#include "digital/generators.h"
#include "digital/patterns.h"
#include "sim/dc.h"
#include "sim/hier.h"
#include "sim/mna.h"
#include "sim/transient.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft {
namespace {

core::ScreeningOptions SmallScreening() {
  core::ScreeningOptions opt;
  opt.chain_length = 2;
  opt.sim_time = 40e-9;
  opt.detector.load_cap = 1e-12;
  // Pipes only: a small, fast universe that still exercises every
  // classification input (amplitude, iddq, logic measurements).
  opt.enumeration.pipe_values = {2e3};
  opt.enumeration.transistor_shorts = false;
  opt.enumeration.transistor_opens = false;
  opt.enumeration.resistor_shorts = false;
  opt.enumeration.resistor_opens = false;
  opt.enumeration.output_bridges = false;
  return opt;
}

TEST(ScreeningDeterminism, ParallelMatchesSerialBitExact) {
  core::ScreeningOptions serial_opt = SmallScreening();
  serial_opt.threads = 1;
  core::ScreeningOptions parallel_opt = SmallScreening();
  parallel_opt.threads = 4;

  auto serial = core::ScreenBufferChain(serial_opt);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = core::ScreenBufferChain(parallel_opt);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_GT(serial->total(), 0);
  ASSERT_EQ(serial->total(), parallel->total());
  for (int i = 0; i < serial->total(); ++i) {
    const core::DefectOutcome& a = serial->outcomes[static_cast<size_t>(i)];
    const core::DefectOutcome& b = parallel->outcomes[static_cast<size_t>(i)];
    ASSERT_EQ(a.defect.Id(), b.defect.Id());
    EXPECT_EQ(a.Classify(), b.Classify()) << a.defect.Id();
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.logic_fail, b.logic_fail);
    EXPECT_EQ(a.delay_fail, b.delay_fail);
    EXPECT_EQ(a.iddq_fail, b.iddq_fail);
    EXPECT_EQ(a.amplitude_detected, b.amplitude_detected);
    // Measured quantities must be bit-identical, not merely close: the
    // per-defect computation is untouched by the parallel dispatch.
    EXPECT_EQ(a.min_detector_vout, b.min_detector_vout) << a.defect.Id();
    EXPECT_EQ(a.max_gate_amplitude, b.max_gate_amplitude) << a.defect.Id();
    EXPECT_EQ(a.supply_current, b.supply_current) << a.defect.Id();
  }
  EXPECT_EQ(serial->ConventionalCoverage(), parallel->ConventionalCoverage());
  EXPECT_EQ(serial->CombinedCoverage(), parallel->CombinedCoverage());
}

// The hierarchical BBD solver runs its per-cell phases on a thread pool,
// but every parallel phase writes disjoint per-cell storage and every
// reduction is serial in cell order — so its solutions are bit-identical
// for any worker count, not merely tolerance-equivalent.
TEST(HierDeterminism, SolverThreadCountInvariantBitExact) {
  auto solve = [](int hier_threads) {
    netlist::Netlist nl;
    cml::CmlTechnology tech;
    cml::CellBuilder cells(nl, tech);
    const cml::DiffPort in = cells.AddDifferentialClock("in", 500e6);
    cells.AddBufferChain("x", in, 8);
    sim::DcOptions opt;
    opt.newton.hierarchical = true;
    opt.newton.hier_threads = hier_threads;
    auto r = sim::SolveDc(nl, opt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->node_voltages : std::vector<double>{};
  };
  const std::vector<double> one = solve(1);
  ASSERT_FALSE(one.empty());
  for (int threads : {2, 4, 7}) {
    const std::vector<double> many = solve(threads);
    ASSERT_EQ(one.size(), many.size()) << "threads=" << threads;
    for (size_t i = 0; i < one.size(); ++i) {
      // Bit-exact, not NEAR: the reduction order is thread-independent.
      EXPECT_EQ(one[i], many[i]) << "node " << i << " threads=" << threads;
    }
  }
}

// The solver reuses its factor storage across solves. A cell served by
// the previous solve's factors must read exactly those factors even when
// the cell that computed them is refactored in the same solve: the
// second solve below mixes such cross-timepoint shares with fresh
// factorizations and must match a solver that has never solved before.
TEST(HierDeterminism, ReusedFactorStorageMatchesFreshSolverBitExact) {
  constexpr int kCells = 64;
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  cells.AddBufferChain("x", cells.AddDifferentialDc("in", true), kCells);
  auto dc = sim::SolveDc(nl);
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();

  // The operating point, with every cell's nodes set to the values deep in
  // the chain: cells 1..63 then stamp bit-identical blocks and share one
  // factorization, computed by cell 1.
  auto unknown = [&](const sim::MnaSystem& mna, int cell, const char* node) {
    const netlist::NodeId id =
        nl.FindNode(util::StrPrintf("x%d.%s", cell, node));
    return static_cast<size_t>(mna.UnknownOfNode(id));
  };
  sim::MnaSystem layout(nl);
  linalg::Vector x(static_cast<size_t>(layout.num_unknowns()), 0.0);
  for (netlist::NodeId n = 1; n < nl.num_nodes(); ++n) {
    x[static_cast<size_t>(layout.UnknownOfNode(n))] = dc->V(n);
  }
  for (int k = 0; k < kCells; ++k) {
    for (const char* node : {"e", "ve", "op", "opb"}) {
      x[unknown(layout, k, node)] = x[unknown(layout, kCells / 2, node)];
    }
  }

  for (int parity : {0, 1}) {
    // Move the internal nodes of every other cell (including cell 1 when
    // parity is 1), each by its own amount.
    linalg::Vector y = x;
    for (int k = parity; k < kCells; k += 2) {
      for (const char* node : {"e", "ve"}) {
        y[unknown(layout, k, node)] += 1e-4 * (k + 1);
      }
    }
    for (int threads : {1, 4}) {
      sim::NewtonOptions opts;
      opts.hierarchical = true;
      opts.hier_threads = threads;

      sim::MnaSystem warm_mna(nl);
      warm_mna.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
      sim::HierSolver* warm = warm_mna.GetHierSolver();
      ASSERT_NE(warm, nullptr);
      linalg::Vector first, reused;
      ASSERT_TRUE(warm->AssembleAndSolve(x, &first, opts).ok());
      const auto before = util::telemetry::Capture();
      ASSERT_TRUE(warm->AssembleAndSolve(y, &reused, opts).ok());
      const auto after = util::telemetry::Capture();
      EXPECT_GT(after.Value("sim.hier.schur_factor_shares"),
                before.Value("sim.hier.schur_factor_shares"));
      EXPECT_GT(after.Value("sim.hier.cell_refactors"),
                before.Value("sim.hier.cell_refactors"));

      sim::MnaSystem fresh_mna(nl);
      fresh_mna.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
      linalg::Vector fresh;
      ASSERT_TRUE(
          fresh_mna.GetHierSolver()->AssembleAndSolve(y, &fresh, opts).ok());
      ASSERT_EQ(reused.size(), fresh.size());
      for (size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(reused[i], fresh[i])
            << "unknown " << i << " parity=" << parity
            << " threads=" << threads;
      }
    }
  }
}

// A share quantum so small that every nonzero block entry divided by it
// overflows int64 must key those entries on their raw bits — the same
// sharing as quantum 0 — instead of collapsing them onto one value.
TEST(HierDeterminism, TinyShareQuantumSharesLikeExactKeys) {
  auto run = [](double quantum, uint64_t* shares) {
    netlist::Netlist nl;
    cml::CmlTechnology tech;
    cml::CellBuilder cells(nl, tech);
    cells.AddBufferChain("x", cells.AddDifferentialClock("in", 500e6), 64);
    sim::TransientOptions opt;
    opt.tstop = 2e-10;
    opt.dc.newton.hierarchical = true;
    opt.dc.newton.hier_threads = 1;
    opt.dc.newton.hier_share_quantum = quantum;
    const auto before = util::telemetry::Capture();
    auto r = sim::RunTransient(nl, opt);
    *shares = util::telemetry::Capture().Value("sim.hier.schur_factor_shares") -
              before.Value("sim.hier.schur_factor_shares");
    EXPECT_TRUE(r.ok()) << "quantum " << quantum << ": "
                        << r.status().ToString();
    std::vector<double> waves;
    if (!r.ok()) return waves;
    for (netlist::NodeId n = 1; n < nl.num_nodes(); ++n) {
      const waveform::Trace t = r->Voltage(nl.NodeName(n));
      waves.insert(waves.end(), t.value.begin(), t.value.end());
    }
    return waves;
  };
  uint64_t exact_shares = 0, tiny_shares = 0;
  const std::vector<double> exact = run(0.0, &exact_shares);
  const std::vector<double> tiny = run(1e-300, &tiny_shares);
  ASSERT_FALSE(exact.empty());
  EXPECT_EQ(exact_shares, tiny_shares);
  ASSERT_EQ(exact.size(), tiny.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(exact[i], tiny[i]) << "sample " << i;
  }
}

// End-to-end: a hierarchical screening campaign classifies every defect
// identically whether the defect sweep and the solver run serial or wide.
TEST(ScreeningDeterminism, HierThreadInvariant) {
  core::ScreeningOptions serial_opt = SmallScreening();
  serial_opt.hierarchical = true;
  serial_opt.threads = 1;
  core::ScreeningOptions parallel_opt = serial_opt;
  parallel_opt.threads = 4;

  auto serial = core::ScreenBufferChain(serial_opt);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = core::ScreenBufferChain(parallel_opt);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_GT(serial->total(), 0);
  ASSERT_EQ(serial->total(), parallel->total());
  for (int i = 0; i < serial->total(); ++i) {
    const core::DefectOutcome& a = serial->outcomes[static_cast<size_t>(i)];
    const core::DefectOutcome& b = parallel->outcomes[static_cast<size_t>(i)];
    ASSERT_EQ(a.defect.Id(), b.defect.Id());
    EXPECT_EQ(a.Classify(), b.Classify()) << a.defect.Id();
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.logic_fail, b.logic_fail);
    EXPECT_EQ(a.delay_fail, b.delay_fail);
    EXPECT_EQ(a.iddq_fail, b.iddq_fail);
    EXPECT_EQ(a.amplitude_detected, b.amplitude_detected);
    EXPECT_EQ(a.min_detector_vout, b.min_detector_vout) << a.defect.Id();
    EXPECT_EQ(a.max_gate_amplitude, b.max_gate_amplitude) << a.defect.Id();
    EXPECT_EQ(a.supply_current, b.supply_current) << a.defect.Id();
  }
  EXPECT_EQ(serial->ConventionalCoverage(), parallel->ConventionalCoverage());
  EXPECT_EQ(serial->CombinedCoverage(), parallel->CombinedCoverage());
}

void ExpectFaultSimEquivalence(const digital::GateNetlist& nl,
                               int num_patterns) {
  const auto faults = digital::EnumerateStuckAtFaults(nl);
  const auto patterns = digital::GeneratePatterns(
      static_cast<int>(nl.inputs().size()), num_patterns, 0xACE1u);

  const auto serial = digital::RunStuckAtFaultSimSerial(nl, faults, patterns);
  for (int threads : {1, 4}) {
    digital::FaultSimOptions opt;
    opt.threads = threads;
    const auto packed = digital::RunStuckAtFaultSim(nl, faults, patterns, opt);
    ASSERT_EQ(packed.total_faults, serial.total_faults);
    EXPECT_EQ(packed.detected, serial.detected);
    ASSERT_EQ(packed.detected_at.size(), serial.detected_at.size());
    for (size_t f = 0; f < faults.size(); ++f) {
      ASSERT_EQ(packed.detected_at[f], serial.detected_at[f])
          << faults[f].Id(nl) << " threads=" << threads;
    }
  }
}

TEST(FaultSimDeterminism, ScramblerMatchesSerial) {
  ExpectFaultSimEquivalence(digital::MakeScrambler(7), 96);
}

TEST(FaultSimDeterminism, Counter4MatchesSerial) {
  ExpectFaultSimEquivalence(digital::MakeCounter4(), 64);
}

TEST(FaultSimDeterminism, ParityMuxMatchesSerial) {
  ExpectFaultSimEquivalence(digital::MakeParityMux(8), 80);
}

TEST(FaultSimDeterminism, C17MatchesSerial) {
  ExpectFaultSimEquivalence(digital::MakeC17(), 40);
}

// The generator-built sequential benchmarks (digital/generators.h) are
// what the pattern-coverage campaign simulates; the 64-way bit-parallel
// engine must agree with the serial reference on every one of them, fault
// by fault, at every detection index.

TEST(FaultSimDeterminism, CounterNMatchesSerial) {
  ExpectFaultSimEquivalence(digital::MakeCounterN(6), 96);
}

TEST(FaultSimDeterminism, ShiftRegisterMatchesSerial) {
  ExpectFaultSimEquivalence(digital::MakeShiftRegister(12), 80);
}

TEST(FaultSimDeterminism, JohnsonCounterMatchesSerial) {
  ExpectFaultSimEquivalence(digital::MakeJohnsonCounter(6), 96);
}

TEST(FaultSimDeterminism, RandomFsmMatchesSerial) {
  ExpectFaultSimEquivalence(digital::MakeRandomFsm(4), 128);
}

TEST(FaultSimDeterminism, MultiBatchBoundary) {
  // > 64 and not a multiple of 64 faults: exercises the last ragged batch.
  digital::GateNetlist nl = digital::MakeScrambler(32);
  auto faults = digital::EnumerateStuckAtFaults(nl);
  ASSERT_GT(faults.size(), 64u);
  faults.resize(67);
  const auto patterns = digital::GeneratePatterns(
      static_cast<int>(nl.inputs().size()), 48, 0xBEEFu);
  const auto serial = digital::RunStuckAtFaultSimSerial(nl, faults, patterns);
  const auto packed = digital::RunStuckAtFaultSim(nl, faults, patterns);
  EXPECT_EQ(packed.detected_at, serial.detected_at);
}

TEST(FaultSimDeterminism, ExactWordBoundary) {
  // Exactly 64 faults: one full bit-parallel word, no ragged tail.
  digital::GateNetlist nl = digital::MakeScrambler(32);
  auto faults = digital::EnumerateStuckAtFaults(nl);
  ASSERT_GE(faults.size(), 64u);
  faults.resize(64);
  const auto patterns = digital::GeneratePatterns(
      static_cast<int>(nl.inputs().size()), 48, 0xBEEFu);
  const auto serial = digital::RunStuckAtFaultSimSerial(nl, faults, patterns);
  const auto packed = digital::RunStuckAtFaultSim(nl, faults, patterns);
  EXPECT_EQ(packed.detected_at, serial.detected_at);
}

TEST(FaultSimDeterminism, OddThreadCountMatchesSerial) {
  // 3 threads never divides the batch count evenly.
  digital::GateNetlist nl = digital::MakeParityMux(8);
  const auto faults = digital::EnumerateStuckAtFaults(nl);
  const auto patterns = digital::GeneratePatterns(
      static_cast<int>(nl.inputs().size()), 80, 0xACE1u);
  const auto serial = digital::RunStuckAtFaultSimSerial(nl, faults, patterns);
  digital::FaultSimOptions opt;
  opt.threads = 3;
  const auto packed = digital::RunStuckAtFaultSim(nl, faults, patterns, opt);
  EXPECT_EQ(packed.detected, serial.detected);
  EXPECT_EQ(packed.detected_at, serial.detected_at);
}

TEST(ScreeningDeterminism, OddThreadCountMatchesSerial) {
  core::ScreeningOptions serial_opt = SmallScreening();
  serial_opt.threads = 1;
  core::ScreeningOptions odd_opt = SmallScreening();
  odd_opt.threads = 3;  // more threads than defects is also legal

  auto serial = core::ScreenBufferChain(serial_opt);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto odd = core::ScreenBufferChain(odd_opt);
  ASSERT_TRUE(odd.ok()) << odd.status().ToString();
  ASSERT_EQ(serial->total(), odd->total());
  for (int i = 0; i < serial->total(); ++i) {
    const core::DefectOutcome& a = serial->outcomes[static_cast<size_t>(i)];
    const core::DefectOutcome& b = odd->outcomes[static_cast<size_t>(i)];
    EXPECT_EQ(a.Classify(), b.Classify()) << a.defect.Id();
    EXPECT_EQ(a.min_detector_vout, b.min_detector_vout) << a.defect.Id();
  }
}

// Runs `work` in a fresh telemetry window and returns the non-timer
// metrics. Timers record wall-clock and are machine/schedule-dependent;
// their Kind marks them for exclusion — everything else must merge exactly.
std::vector<util::telemetry::MetricValue> DeterministicMetrics(
    const std::function<void()>& work) {
  util::telemetry::Reset();
  work();
  util::telemetry::Snapshot snap = util::telemetry::Capture();
  std::vector<util::telemetry::MetricValue> out;
  for (auto& m : snap.metrics) {
    if (m.kind != util::telemetry::Kind::kTimer) out.push_back(std::move(m));
  }
  return out;
}

void ExpectSameMetrics(const std::vector<util::telemetry::MetricValue>& a,
                       const std::vector<util::telemetry::MetricValue>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].count, b[i].count) << a[i].name;
    EXPECT_EQ(a[i].buckets, b[i].buckets) << a[i].name;
  }
}

TEST(TelemetryDeterminism, FaultSimCountersAreThreadCountInvariant) {
  const digital::GateNetlist nl = digital::MakeScrambler(16);
  const auto faults = digital::EnumerateStuckAtFaults(nl);
  const auto patterns = digital::GeneratePatterns(
      static_cast<int>(nl.inputs().size()), 96, 0xACE1u);
  auto run = [&](int threads) {
    return DeterministicMetrics([&] {
      digital::FaultSimOptions opt;
      opt.threads = threads;
      (void)digital::RunStuckAtFaultSim(nl, faults, patterns, opt);
    });
  };
  const auto serial = run(1);
  const auto threaded = run(7);
  ExpectSameMetrics(serial, threaded);
}

TEST(TelemetryDeterminism, ScreeningCountersAreThreadCountInvariant) {
  // The strong form of ParallelMatchesSerialBitExact: not just the
  // reported outcomes but every counter recorded along the way — Newton
  // iterations, transient step accounting, LU factor counts, per-class
  // tallies — must be identical when 7 threads split the defect sweep.
  auto run = [&](int threads) {
    return DeterministicMetrics([&] {
      core::ScreeningOptions opt = SmallScreening();
      opt.threads = threads;
      auto rep = core::ScreenBufferChain(opt);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    });
  };
  const auto serial = run(1);
  const auto threaded = run(7);
  ExpectSameMetrics(serial, threaded);
}

TEST(MonteCarloDeterminism, TrialMajorDrawOrderMatchesManualSampling) {
  // The pre-draw contract the characterization fingerprint relies on:
  // SampleTrialTechnologies consumes the rng serially in trial-major
  // order, so a manual nested loop of SampleTechnology reproduces every
  // sampled technology bit-for-bit — including the conditional beta draw
  // — and leaves the rng at exactly the same point.
  cml::CmlTechnology nominal;
  cml::VariationModel model;
  model.beta_spread = 0.08;  // exercise the fourth (conditional) draw
  util::Rng rng_a(0xC0A1u), rng_b(0xC0A1u);
  const auto trials =
      cml::SampleTrialTechnologies(nominal, model, 9, 4, rng_a);
  ASSERT_EQ(trials.size(), 9u);
  for (int t = 0; t < 9; ++t) {
    ASSERT_EQ(trials[t].size(), 4u);
    for (int g = 0; g < 4; ++g) {
      const cml::CmlTechnology manual =
          cml::SampleTechnology(nominal, model, rng_b);
      EXPECT_EQ(trials[t][g].swing, manual.swing) << t << "," << g;
      EXPECT_EQ(trials[t][g].wire_cap, manual.wire_cap) << t << "," << g;
      EXPECT_EQ(trials[t][g].npn.is, manual.npn.is) << t << "," << g;
      EXPECT_EQ(trials[t][g].npn.bf, manual.npn.bf) << t << "," << g;
    }
  }
  EXPECT_EQ(rng_a.NextDouble(0.0, 1.0), rng_b.NextDouble(0.0, 1.0));
}

TEST(MonteCarloDeterminism, SweepIsThreadCountInvariant) {
  cml::CmlTechnology nominal;
  cml::VariationModel model;
  util::Rng rng_a(77), rng_b(77);
  const auto trials_a =
      cml::SampleTrialTechnologies(nominal, model, 12, 5, rng_a);
  const auto trials_b =
      cml::SampleTrialTechnologies(nominal, model, 12, 5, rng_b);

  auto fn = [](const std::vector<cml::CmlTechnology>& techs, int trial) {
    double acc = static_cast<double>(trial);
    for (const auto& t : techs) acc += t.swing + t.wire_cap * 1e12 + t.npn.is * 1e15;
    return acc;
  };
  const auto serial = cml::MonteCarloSweep(trials_a, fn, 1);
  const auto parallel = cml::MonteCarloSweep(trials_b, fn, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
  }
}

}  // namespace
}  // namespace cmldft
