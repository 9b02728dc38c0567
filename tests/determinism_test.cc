// Parallel == serial determinism guarantees for the campaign engine:
//  - defect screening classifications are bit-identical for any thread
//    count (each defect simulates an independent netlist copy),
//  - bit-parallel (PPSFP) stuck-at fault simulation reproduces the serial
//    reference's detected_at exactly on the seed circuits,
//  - Monte-Carlo sweeps return bit-identical trial results regardless of
//    thread count (technologies are pre-sampled serially).
//  - telemetry counters and histograms (never timers) are bit-identical
//    across thread counts for the same workload.
//  - the hierarchical solver's reused factor storage matches a fresh
//    solver bit for bit.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
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

// A 64-cell chain at its DC operating point, with every cell's nodes set
// to the values deep in the chain: cells 1..63 then stamp bit-identical
// blocks, each factored by its own cell.
class HierDeterminism : public ::testing::Test {
 protected:
  static constexpr int kCells = 64;

  void SetUp() override {
    cml::CmlTechnology tech;
    cml::CellBuilder cells(nl_, tech);
    cells.AddBufferChain("x", cells.AddDifferentialDc("in", true), kCells);
    auto dc = sim::SolveDc(nl_);
    ASSERT_TRUE(dc.ok()) << dc.status().ToString();
    layout_ = std::make_unique<sim::MnaSystem>(nl_);
    x_.assign(static_cast<size_t>(layout_->num_unknowns()), 0.0);
    for (netlist::NodeId n = 1; n < nl_.num_nodes(); ++n) {
      x_[static_cast<size_t>(layout_->UnknownOfNode(n))] = dc->V(n);
    }
    for (int k = 0; k < kCells; ++k) {
      for (const char* node : {"e", "ve", "op", "opb"}) {
        x_[Unknown(k, node)] = x_[Unknown(kCells / 2, node)];
      }
    }
  }

  size_t Unknown(int cell, const char* node) const {
    const netlist::NodeId id =
        nl_.FindNode(util::StrPrintf("x%d.%s", cell, node));
    return static_cast<size_t>(layout_->UnknownOfNode(id));
  }

  /// One hierarchical solve of `iterate` by a solver that has never
  /// solved before.
  linalg::Vector FreshSolve(const linalg::Vector& iterate) const {
    sim::MnaSystem mna(nl_);
    mna.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
    sim::HierSolver* hier = mna.GetHierSolver();
    EXPECT_NE(hier, nullptr);
    linalg::Vector x;
    if (hier == nullptr) return x;
    const util::Status st = hier->AssembleAndSolve(iterate, &x, {});
    EXPECT_TRUE(st.ok()) << st.ToString();
    return x;
  }

  netlist::Netlist nl_;
  std::unique_ptr<sim::MnaSystem> layout_;
  linalg::Vector x_;
};

// The solver reuses each cell's factor storage across solves, and
// refactors every cell on every solve: a warm solver's second solve,
// where every other cell's block has moved, must match a solver that has
// never solved before, bit for bit.
TEST_F(HierDeterminism, ReusedFactorStorageMatchesFreshSolverBitExact) {
  for (int parity : {0, 1}) {
    // Move the internal nodes of every other cell (including cell 1 when
    // parity is 1), each by its own amount.
    linalg::Vector y = x_;
    for (int k = parity; k < kCells; k += 2) {
      for (const char* node : {"e", "ve"}) {
        y[Unknown(k, node)] += 1e-4 * (k + 1);
      }
    }
    sim::MnaSystem warm_mna(nl_);
    warm_mna.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
    sim::HierSolver* warm = warm_mna.GetHierSolver();
    ASSERT_NE(warm, nullptr);
    linalg::Vector first, reused;
    ASSERT_TRUE(warm->AssembleAndSolve(x_, &first, {}).ok());
    const auto before = util::telemetry::Capture();
    ASSERT_TRUE(warm->AssembleAndSolve(y, &reused, {}).ok());
    const auto after = util::telemetry::Capture();
    EXPECT_EQ(after.Value("sim.hier.cell_refactors") -
                  before.Value("sim.hier.cell_refactors"),
              static_cast<uint64_t>(warm->num_cells()));

    const linalg::Vector fresh = FreshSolve(y);
    ASSERT_EQ(reused.size(), fresh.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(reused[i], fresh[i]) << "unknown " << i << " parity=" << parity;
    }
  }
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
