// Cross-engine equivalence: independent numerical paths through the
// simulator must agree on the same circuit. Covers the one Newton linear
// solver (sparse LU) against a dense reference, the two integration
// methods (trapezoidal vs backward Euler) on the paper's buffer chain, and
// the hierarchical solver against the flat one. The digital engines'
// serial == bit-parallel and serial == threaded guarantees live in
// determinism_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "bench/paper_bench.h"
#include "cml/builder.h"
#include "core/characterize.h"
#include "defects/defect.h"
#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "sim/dc.h"
#include "sim/mna.h"
#include "sim/newton.h"
#include "sim/transient.h"
#include "util/telemetry.h"
#include "waveform/measure.h"

namespace cmldft {
namespace {

// A 4-buffer CML chain with a differential clock — representative of every
// bench circuit (exponential BJT devices, differential pairs, caps).
struct Chain {
  netlist::Netlist nl;
  std::vector<cml::DiffPort> outs;
};

Chain MakeChain(double freq) {
  Chain c;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(c.nl, tech);
  cml::DiffPort cur = cells.AddDifferentialClock("va", freq);
  for (int i = 0; i < 4; ++i) {
    cur = cells.AddBuffer("x" + std::to_string(i), cur);
    c.outs.push_back(cur);
  }
  return c;
}

// At a converged DC point the assembled system J x = rhs reproduces the
// Newton solution; the sparse LU the Newton loop uses and the dense
// reference LU must both solve it to roundoff.
TEST(SolverEquivalence, SparseAndDenseLuSolveTheConvergedDcSystem) {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  cells.AddBufferChain("x", cells.AddDifferentialDc("in", true), 6);
  auto dc = sim::SolveDc(nl);
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();

  sim::MnaSystem mna(nl);
  mna.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
  mna.set_initializing_state(true);
  linalg::Vector guess(static_cast<size_t>(mna.num_unknowns()), 0.0);
  for (netlist::NodeId n = 1; n < nl.num_nodes(); ++n) {
    guess[static_cast<size_t>(mna.UnknownOfNode(n))] = dc->V(n);
  }
  // Polish from the operating point so the last Newton step is tiny.
  auto newton = sim::SolveNewton(mna, guess, sim::NewtonOptions{});
  ASSERT_TRUE(newton.ok()) << newton.status().ToString();
  const linalg::Vector& x = newton->solution;

  mna.Assemble(x);
  linalg::SparseLu sparse;
  ASSERT_TRUE(sparse.Factor(mna.sparse_jacobian()).ok());
  auto xs = sparse.Solve(mna.rhs());
  linalg::LuFactorization dense;
  ASSERT_TRUE(dense.Factor(mna.jacobian()).ok());
  auto xd = dense.Solve(mna.rhs());
  ASSERT_TRUE(xs.ok() && xd.ok());
  for (size_t i = 0; i < x.size(); ++i) {
    const double tol = 1e-9 * std::max(std::fabs(x[i]), 1e-3);
    EXPECT_NEAR((*xs)[i], x[i], tol) << "sparse, unknown " << i;
    EXPECT_NEAR((*xd)[i], x[i], tol) << "dense, unknown " << i;
  }
}

// Every flat Newton solve factors with the sparse LU: no DC operating
// point, transient or characterization unit reaches the dense LU (which
// remains for AC, the hierarchical solver and as the tests' reference).
TEST(SolverEquivalence, FlatAnalysesNeverFactorDense) {
  Chain c = MakeChain(100e6);
  core::CharacterizationConfig config;
  config.temperatures_c = {27.0};
  config.supplies = {3.3};
  config.vtests = {3.7};
  config.trials = 0;
  const util::telemetry::Snapshot before = util::telemetry::Capture();
  ASSERT_TRUE(sim::SolveDc(c.nl).ok());
  sim::TransientOptions opts;
  opts.tstop = 2e-9;
  ASSERT_TRUE(sim::RunTransient(c.nl, opts).ok());
  ASSERT_TRUE(core::EvaluateCharacterizationUnit(config, 0).ok());
  const util::telemetry::Snapshot after = util::telemetry::Capture();
  EXPECT_EQ(after.Value("linalg.dense_lu.factors"),
            before.Value("linalg.dense_lu.factors"));
  EXPECT_GT(after.Value("linalg.sparse_lu.refactors"),
            before.Value("linalg.sparse_lu.refactors"));
}

TEST(IntegrationEquivalence, TrapezoidalMatchesBackwardEuler) {
  // Backward Euler is first-order (more numerical damping), so it needs a
  // smaller ceiling to land on the same waveform; the settled levels and
  // swing must then agree within integration error.
  auto run = [&](netlist::IntegrationMethod m, double dt_max) {
    Chain c = MakeChain(100e6);
    sim::TransientOptions opts;
    opts.tstop = 12e-9;
    opts.method = m;
    opts.dt_max = dt_max;
    auto r = sim::RunTransient(c.nl, opts);
    // Lambdas returning values can't use ASSERT_*; hard-stop instead of
    // dereferencing an error StatusOr.
    if (!r.ok()) {
      ADD_FAILURE() << r.status().ToString();
      std::abort();
    }
    return waveform::MeasureSwing(r->Voltage(c.outs.back().p_name), 5e-9,
                                  12e-9);
  };
  const auto trap = run(netlist::IntegrationMethod::kTrapezoidal, 2.5e-11);
  const auto be = run(netlist::IntegrationMethod::kBackwardEuler, 5e-12);
  EXPECT_NEAR(trap.vhigh, be.vhigh, 10e-3);
  EXPECT_NEAR(trap.vlow, be.vlow, 10e-3);
  EXPECT_NEAR(trap.swing, be.swing, 10e-3);
}

TEST(IntegrationEquivalence, MethodsAgreeOnDcOperatingPoint) {
  // At t=0 no integration has happened yet: both methods must produce an
  // identical operating point (it comes from the same DC solve).
  auto run = [&](netlist::IntegrationMethod m) {
    Chain c = MakeChain(100e6);
    sim::TransientOptions opts;
    opts.tstop = 1e-10;
    opts.method = m;
    auto r = sim::RunTransient(c.nl, opts);
    // Lambdas returning values can't use ASSERT_*; hard-stop instead of
    // dereferencing an error StatusOr.
    if (!r.ok()) {
      ADD_FAILURE() << r.status().ToString();
      std::abort();
    }
    return r->Voltage(c.outs.back().p_name).value.front();
  };
  const double vt = run(netlist::IntegrationMethod::kTrapezoidal);
  const double vb = run(netlist::IntegrationMethod::kBackwardEuler);
  EXPECT_EQ(vt, vb);
}

// --- transient stepper properties on the paper's Fig. 4 chain -------------

// One structural contract, checked two ways at once: the per-run Stats the
// stepper reports and the process-wide telemetry counters must describe the
// same events, and both must satisfy the stepper's own invariants.
void CheckStepperAccounting(const netlist::Netlist& nl,
                            const sim::TransientOptions& opts) {
  util::telemetry::Reset();
  const sim::TransientResult r = bench::MustRunTransient(nl, opts);
  const sim::TransientResult::Stats& stats = r.stats();
  const util::telemetry::Snapshot snap = util::telemetry::Capture();

  EXPECT_EQ(snap.Value("sim.tran.runs"), 1u);
  EXPECT_EQ(snap.Value("sim.tran.accepted_steps"),
            static_cast<uint64_t>(stats.accepted_steps));
  EXPECT_EQ(snap.Value("sim.tran.rejected_steps"),
            static_cast<uint64_t>(stats.rejected_steps));
  EXPECT_EQ(snap.Value("sim.tran.newton_rejections"),
            static_cast<uint64_t>(stats.newton_rejections));
  EXPECT_EQ(snap.Value("sim.tran.voltage_step_rejections"),
            static_cast<uint64_t>(stats.voltage_step_rejections));
  EXPECT_EQ(snap.Value("sim.tran.breakpoint_hits"),
            static_cast<uint64_t>(stats.breakpoint_hits));
  EXPECT_EQ(snap.Value("sim.dc.gmin_stages") + snap.Value("sim.dc.source_steps"),
            static_cast<uint64_t>(stats.dc_homotopy_stages));

  // Every rejection has exactly one cause.
  EXPECT_EQ(stats.rejected_steps,
            stats.newton_rejections + stats.voltage_step_rejections);
  // Each accepted timepoint was recorded (plus the t=0 operating point).
  EXPECT_EQ(r.time().size(), static_cast<size_t>(stats.accepted_steps) + 1);
  // A healthy run on the healing chain accepts the overwhelming majority
  // of its steps; a rejection storm is a step-control regression.
  EXPECT_GT(stats.accepted_steps, 0);
  EXPECT_LE(stats.rejected_steps * 4, stats.accepted_steps);
  // The differential clock has corners inside the window; each must have
  // been landed on exactly (they are also accepted steps).
  EXPECT_GT(stats.breakpoint_hits, 0);
  EXPECT_LE(stats.breakpoint_hits, stats.accepted_steps);

  // The step-size histogram samples exactly the accepted steps, and no
  // accepted step may exceed the configured ceiling.
  const util::telemetry::MetricValue* hist = snap.Find("sim.tran.step_size");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<uint64_t>(stats.accepted_steps));
  EXPECT_EQ(std::accumulate(hist->buckets.begin(), hist->buckets.end(),
                            uint64_t{0}),
            hist->count);
  // Bucket b+1 holds values > bounds[b]: every bucket whose lower edge is
  // at or above the ceiling must stay empty.
  for (size_t b = 0; b + 1 < hist->buckets.size(); ++b) {
    if (hist->bounds[b] >= opts.dt_max) {
      EXPECT_EQ(hist->buckets[b + 1], 0u)
          << "accepted a step above dt_max (bucket edge " << hist->bounds[b]
          << ")";
    }
  }
}

TEST(TransientStepperProperties, PaperChainFaultFree) {
  bench::PaperChain chain = bench::MakePaperChain(500e6);
  sim::TransientOptions opts;
  opts.tstop = 6e-9;
  CheckStepperAccounting(chain.nl, opts);
}

// --- hierarchical (bordered-block-diagonal) solver vs flat ----------------
//
// sim/hier.h eliminates each annotated CML cell's internal unknowns via a
// Schur complement and solves only the border globally — the same linear
// system as flat in a different elimination order, so solutions agree to
// solver noise, not bitwise.

sim::DcOptions HierDc() {
  sim::DcOptions o;
  o.newton.hierarchical = true;
  return o;
}

void ExpectDcMatch(const netlist::Netlist& nl, const char* label) {
  auto flat = sim::SolveDc(nl, sim::DcOptions());
  auto hier = sim::SolveDc(nl, HierDc());
  ASSERT_TRUE(flat.ok()) << label << ": " << flat.status().ToString();
  ASSERT_TRUE(hier.ok()) << label << ": " << hier.status().ToString();
  ASSERT_EQ(flat->node_voltages.size(), hier->node_voltages.size()) << label;
  for (size_t i = 0; i < flat->node_voltages.size(); ++i) {
    EXPECT_NEAR(flat->node_voltages[i], hier->node_voltages[i], 5e-6)
        << label << " node " << i;
  }
}

TEST(HierEquivalence, DcMatchesFlat) {
  Chain c = MakeChain(100e6);
  util::telemetry::Reset();
  ExpectDcMatch(c.nl, "chain4");
  // The hier path must actually have engaged — a silent flat fallback
  // would make this test vacuous.
  const util::telemetry::Snapshot snap = util::telemetry::Capture();
  EXPECT_GT(snap.Value("sim.hier.cells"), 0u);
}

TEST(HierEquivalence, DcMatchesFlatWithDefect) {
  // A pipe defect adds a global (non-cell) device bridging two cell
  // internals — those unknowns must reclassify as border and still match.
  Chain c = MakeChain(100e6);
  defects::Defect d;
  d.type = defects::DefectType::kTransistorPipe;
  d.device = "x1.q3";
  d.resistance = 2e3;
  auto faulty = defects::WithDefect(c.nl, d);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  ExpectDcMatch(*faulty, "chain4+pipe");
}

TEST(HierEquivalence, TransientMatchesFlat) {
  sim::TransientOptions base;
  base.tstop = 12e-9;
  auto run = [&](bool hier) {
    Chain c = MakeChain(100e6);
    sim::TransientOptions opts = base;
    opts.dc.newton.hierarchical = hier;
    auto r = sim::RunTransient(c.nl, opts);
    if (!r.ok()) {
      ADD_FAILURE() << r.status().ToString();
      std::abort();
    }
    return std::make_pair(std::move(*r), c.outs.back());
  };
  auto [rf, out_f] = run(false);
  auto [rh, out_h] = run(true);
  const auto sf = waveform::MeasureSwing(rf.Voltage(out_f.p_name), 5e-9, 12e-9);
  const auto sh = waveform::MeasureSwing(rh.Voltage(out_h.p_name), 5e-9, 12e-9);
  EXPECT_NEAR(sf.vhigh, sh.vhigh, 2e-3);
  EXPECT_NEAR(sf.vlow, sh.vlow, 2e-3);
  EXPECT_NEAR(sf.swing, sh.swing, 2e-3);
  const auto cf = waveform::Crossings(rf.Voltage(out_f.p_name), 3.175,
                                      waveform::Edge::kRising);
  const auto ch = waveform::Crossings(rh.Voltage(out_h.p_name), 3.175,
                                      waveform::Edge::kRising);
  ASSERT_FALSE(cf.empty());
  ASSERT_EQ(cf.size(), ch.size());
  for (size_t i = 0; i < cf.size(); ++i) {
    EXPECT_NEAR(cf[i], ch[i], 5e-12) << "crossing " << i;
  }
}

TEST(HierEquivalence, PaperChainTransientMatchesFlat) {
  // The paper's Fig. 4 story — DUT pipe healed by downstream stages —
  // must read identically through either solver.
  auto run = [&](bool hier) {
    bench::PaperChain chain = bench::MakePaperChain(500e6);
    netlist::Netlist faulty = bench::WithDutPipe(chain, 2e3);
    sim::TransientOptions opts;
    opts.tstop = 6e-9;
    opts.dc.newton.hierarchical = hier;
    const std::string out = chain.outs.back().p_name;
    return std::make_pair(bench::MustRunTransient(faulty, opts), out);
  };
  auto [rf, out_f] = run(false);
  auto [rh, out_h] = run(true);
  const auto sf = waveform::MeasureSwing(rf.Voltage(out_f), 3e-9, 6e-9);
  const auto sh = waveform::MeasureSwing(rh.Voltage(out_h), 3e-9, 6e-9);
  EXPECT_NEAR(sf.vhigh, sh.vhigh, 2e-3);
  EXPECT_NEAR(sf.vlow, sh.vlow, 2e-3);
  EXPECT_NEAR(sf.swing, sh.swing, 2e-3);
}

TEST(HierEquivalence, BenchMatrixDcMatchesFlat) {
  // 16 bench circuits spanning every cell the builder annotates (buffer,
  // levelshifter, and2/or2 [and2-typed], xor2, mux2, latch, dff) plus the
  // paper chain with each defect flavour that perturbs the partition:
  // pipes (global resistor between internals), wire opens (node split),
  // and bridges (global resistor between cells).
  struct BenchCase {
    const char* name;
    netlist::Netlist nl;
  };
  std::vector<BenchCase> benches;
  auto add = [&](const char* name, auto&& build) {
    BenchCase b;
    b.name = name;
    cml::CmlTechnology tech;
    cml::CellBuilder cells(b.nl, tech);
    build(cells);
    benches.push_back(std::move(b));
  };

  add("buffer_chain8", [](cml::CellBuilder& c) {
    c.AddBufferChain("x", c.AddDifferentialClock("in", 500e6), 8);
  });
  add("buffer_tree7", [](cml::CellBuilder& c) {
    c.AddBufferTree("t", c.AddDifferentialClock("in", 500e6), 7);
  });
  add("levelshifter_pair", [](cml::CellBuilder& c) {
    const cml::DiffPort in = c.AddDifferentialDc("in", true);
    c.AddLevelShifter("ls1", c.AddLevelShifter("ls0", c.AddBuffer("b0", in)));
  });
  add("and2", [](cml::CellBuilder& c) {
    c.AddAnd2("g", c.AddDifferentialDc("a", true),
              c.AddDifferentialDc("b", false));
  });
  add("or2", [](cml::CellBuilder& c) {
    c.AddOr2("g", c.AddDifferentialDc("a", false),
             c.AddDifferentialDc("b", true));
  });
  add("xor2", [](cml::CellBuilder& c) {
    c.AddXor2("g", c.AddDifferentialDc("a", true),
              c.AddDifferentialDc("b", true));
  });
  add("mux2", [](cml::CellBuilder& c) {
    c.AddMux2("g", c.AddDifferentialDc("a", true),
              c.AddDifferentialDc("b", false),
              c.AddDifferentialDc("s", true));
  });
  add("latch", [](cml::CellBuilder& c) {
    c.AddLatch("g", c.AddDifferentialDc("d", true),
               c.AddDifferentialClock("ck", 250e6));
  });
  add("dff", [](cml::CellBuilder& c) {
    c.AddDff("g", c.AddDifferentialDc("d", true),
             c.AddDifferentialClock("ck", 250e6));
  });
  add("mixed_logic", [](cml::CellBuilder& c) {
    const cml::DiffPort a = c.AddDifferentialClock("a", 250e6);
    const cml::DiffPort b = c.AddDifferentialDc("b", true);
    const cml::DiffPort x = c.AddXor2("x", a, b);
    const cml::DiffPort m = c.AddMux2("m", x, c.AddAnd2("n", a, b), b);
    c.AddDff("q", m, a);
  });

  // Paper chain, fault-free and with the DUT pipe across the resistance
  // range the detector study sweeps.
  {
    bench::PaperChain chain = bench::MakePaperChain(500e6);
    benches.push_back({"paper_chain", std::move(chain.nl)});
  }
  for (double r : {500.0, 2e3, 8e3}) {
    bench::PaperChain chain = bench::MakePaperChain(500e6);
    benches.push_back(
        {r < 1e3 ? "paper_pipe_500" : (r < 4e3 ? "paper_pipe_2k" : "paper_pipe_8k"),
         bench::WithDutPipe(chain, r)});
  }

  // Defects that change the partition shape on the plain chain.
  {
    Chain c = MakeChain(100e6);
    defects::Defect d;
    d.type = defects::DefectType::kWireOpen;
    d.device = "x2.q1";
    d.terminal_a = 0;
    auto faulty = defects::WithDefect(c.nl, d);
    ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
    benches.push_back({"chain_wire_open", std::move(*faulty)});
  }
  {
    Chain c = MakeChain(100e6);
    defects::Defect d;
    d.type = defects::DefectType::kBridge;
    d.node_a = "x1.op";
    d.node_b = "x2.op";
    d.resistance = 1e3;
    auto faulty = defects::WithDefect(c.nl, d);
    ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
    benches.push_back({"chain_bridge", std::move(*faulty)});
  }

  ASSERT_EQ(benches.size(), 16u);
  for (const BenchCase& b : benches) {
    ExpectDcMatch(b.nl, b.name);
  }
}

TEST(TransientStepperProperties, PaperChainWithHealedPipeDefect) {
  // The paper's central defect: a C-E pipe on the DUT whose amplitude
  // collapse is healed by the downstream stages (Fig. 4). The stepper
  // accounting must hold on the defective circuit too.
  bench::PaperChain chain = bench::MakePaperChain(500e6);
  netlist::Netlist faulty = bench::WithDutPipe(chain, 2e3);
  sim::TransientOptions opts;
  opts.tstop = 6e-9;
  CheckStepperAccounting(faulty, opts);
}

}  // namespace
}  // namespace cmldft
