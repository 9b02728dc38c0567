// Tests for the analysis engines: MNA stamps against hand-built matrices,
// Newton convergence and homotopy fallbacks, DC sweep continuation, and
// transient accuracy (analytic RC responses, integration-method ordering,
// breakpoint handling, adaptive-step statistics).
#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "devices/diode.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "netlist/netlist.h"
#include "sim/dc.h"
#include "sim/mna.h"
#include "sim/newton.h"
#include "sim/transient.h"
#include "util/units.h"

namespace cmldft::sim {
namespace {

using namespace util::literals;
using netlist::kGroundNode;

TEST(Mna, ResistorStampMatchesHandMatrix) {
  netlist::Netlist nl;
  const auto a = nl.AddNode("a");
  const auto b = nl.AddNode("b");
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", a, b, 2.0));
  nl.AddDevice(std::make_unique<devices::Resistor>("R2", b, kGroundNode, 4.0));
  MnaSystem mna(nl);
  EXPECT_EQ(mna.num_unknowns(), 2);
  linalg::Vector x(2, 0.0);
  mna.Assemble(x);
  // G = [[0.5, -0.5], [-0.5, 0.75]]
  EXPECT_DOUBLE_EQ(mna.jacobian()(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(mna.jacobian()(0, 1), -0.5);
  EXPECT_DOUBLE_EQ(mna.jacobian()(1, 0), -0.5);
  EXPECT_DOUBLE_EQ(mna.jacobian()(1, 1), 0.75);
}

TEST(Mna, VsourceBranchStamp) {
  netlist::Netlist nl;
  const auto a = nl.AddNode("a");
  nl.AddDevice(std::make_unique<devices::VSource>("V1", a, kGroundNode,
                                                  devices::Waveform::Dc(5.0)));
  MnaSystem mna(nl);
  EXPECT_EQ(mna.num_unknowns(), 2);  // node + branch
  linalg::Vector x(2, 0.0);
  mna.Assemble(x);
  EXPECT_DOUBLE_EQ(mna.jacobian()(0, 1), 1.0);   // KCL row <- branch
  EXPECT_DOUBLE_EQ(mna.jacobian()(1, 0), 1.0);   // branch row <- node
  EXPECT_DOUBLE_EQ(mna.rhs()[1], 5.0);
}

TEST(Newton, LinearCircuitConvergesThroughDamping) {
  netlist::Netlist nl;
  const auto a = nl.AddNode("a");
  nl.AddDevice(std::make_unique<devices::VSource>("V1", a, kGroundNode,
                                                  devices::Waveform::Dc(1.0)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", a, kGroundNode, 10.0));
  MnaSystem mna(nl);
  auto r = SolveNewton(mna, linalg::Vector(2, 0.0), {});
  ASSERT_TRUE(r.ok());
  // The global 0.25 V damping clamp walks the 1 V unknown up in a few
  // steps; convergence must still be prompt.
  EXPECT_LE(r->iterations, 10);
  NewtonOptions loose;
  loose.max_delta_v = 10.0;  // no clamp engaged -> direct solve
  auto r2 = SolveNewton(mna, linalg::Vector(2, 0.0), loose);
  ASSERT_TRUE(r2.ok());
  EXPECT_LE(r2->iterations, 2);
}

TEST(Dc, SeriesDiodesNeedHomotopy) {
  // A stiff stack of diodes from a high supply: plain Newton from zero is
  // hard; the homotopy ladder must still land on the solution.
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  nl.AddDevice(std::make_unique<devices::VSource>("V1", vin, kGroundNode,
                                                  devices::Waveform::Dc(30.0)));
  devices::DiodeParams dp;
  dp.is = 1e-16;
  netlist::NodeId prev = vin;
  for (int i = 0; i < 6; ++i) {
    const auto next = nl.AddNode("n" + std::to_string(i));
    nl.AddDevice(std::make_unique<devices::Diode>("D" + std::to_string(i),
                                                  prev, next, dp));
    prev = next;
  }
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", prev, kGroundNode, 1e3));
  auto r = SolveDc(nl);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Roughly 30 V minus six ~0.8 V drops across 1k.
  const double i_load = r->V(nl, "n5") / 1e3;
  EXPECT_NEAR(i_load, (30.0 - 6 * 0.8) / 1e3, 3e-3);
}

TEST(Dc, SweepContinuationTracksDiodeCurve) {
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto a = nl.AddNode("a");
  nl.AddDevice(std::make_unique<devices::VSource>("V1", vin, kGroundNode,
                                                  devices::Waveform::Dc(0.0)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, a, 1e3));
  nl.AddDevice(std::make_unique<devices::Diode>("D1", a, kGroundNode));
  std::vector<double> values;
  for (double v = 0.0; v <= 5.0; v += 0.5) values.push_back(v);
  auto sweep = DcSweepVSource(nl, "V1", values);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep->size(), values.size());
  // Diode voltage is monotone nondecreasing along the sweep.
  double prev = -1.0;
  for (const auto& pt : *sweep) {
    const double vd = pt.result.V(nl, "a");
    EXPECT_GE(vd, prev - 1e-9);
    prev = vd;
  }
}

TEST(Dc, SweepRejectsUnknownSource) {
  netlist::Netlist nl;
  EXPECT_EQ(DcSweepVSource(nl, "nope", {1.0}).status().code(),
            util::StatusCode::kNotFound);
}

void ExpectSameWaveform(const devices::Waveform& a,
                        const devices::Waveform& b) {
  EXPECT_EQ(a.kind(), b.kind());
  for (const double t : {0.0, 1.05e-9, 3e-9, 5.15e-9, 12e-9}) {
    EXPECT_EQ(a.ValueAt(t), b.ValueAt(t)) << "t = " << t;
    EXPECT_EQ(a.NextBreakpoint(t), b.NextBreakpoint(t)) << "t = " << t;
  }
}

// A sweep drives the caller's source in place: converged or not, the
// source gets its waveform back, and the points are those of a sweep of a
// copy of the netlist.
TEST(DcSweep, SweepsInPlaceAndRestoresTheSource) {
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto a = nl.AddNode("a");
  const devices::Waveform pulse =
      devices::Waveform::Pulse(0.2, 1.0, 1e-9, 1e-10, 1e-10, 4e-9, 10e-9);
  const auto* src = static_cast<const devices::VSource*>(nl.AddDevice(
      std::make_unique<devices::VSource>("V1", vin, kGroundNode, pulse)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, a, 1e3));
  nl.AddDevice(std::make_unique<devices::Diode>("D1", a, kGroundNode));
  netlist::Netlist copy = nl;

  const std::vector<double> values = {0.0, 0.5, 1.0, 1.5};
  auto in_place = DcSweepVSource(nl, "V1", values);
  ASSERT_TRUE(in_place.ok()) << in_place.status().ToString();
  ExpectSameWaveform(src->waveform(), pulse);
  auto of_copy = DcSweepVSource(copy, "V1", values);
  ASSERT_TRUE(of_copy.ok()) << of_copy.status().ToString();
  ASSERT_EQ(in_place->size(), of_copy->size());
  for (size_t i = 0; i < values.size(); ++i) {
    const DcSweepPoint& p = (*in_place)[i];
    const DcSweepPoint& q = (*of_copy)[i];
    EXPECT_EQ(p.sweep_value, q.sweep_value);
    EXPECT_EQ(p.result.node_voltages, q.result.node_voltages) << "point " << i;
    EXPECT_EQ(p.result.branch_currents, q.result.branch_currents)
        << "point " << i;
    EXPECT_EQ(p.result.newton_iterations, q.result.newton_iterations);
    EXPECT_EQ(p.result.homotopy_stages, q.result.homotopy_stages);
  }

  // 1 kV lies beyond 150 Newton steps of max_delta_v = 0.25 V from any
  // start, so the last point fails after two converged ones.
  auto failed = DcSweepVSource(nl, "V1", {0.5, 1.0, 1e3});
  EXPECT_EQ(failed.status().code(), util::StatusCode::kNoConvergence);
  ExpectSameWaveform(src->waveform(), pulse);
}

// --- transient ------------------------------------------------------------

// RC low-pass driven by a step: compare against the analytic exponential at
// several points, for both integration methods.
class RcStepTest : public ::testing::TestWithParam<netlist::IntegrationMethod> {};

TEST_P(RcStepTest, MatchesAnalyticResponse) {
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto out = nl.AddNode("out");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "V1", vin, kGroundNode,
      devices::Waveform::Pulse(0, 1, 1_ns, 1.0_ps, 1.0_ps, 500_ns, 1000_ns)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, out, 1_kOhm));
  nl.AddDevice(std::make_unique<devices::Capacitor>("C1", out, kGroundNode, 2_pF));
  TransientOptions opts;
  opts.tstop = 15_ns;
  opts.method = GetParam();
  auto r = RunTransient(nl, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto v = r->Voltage("out");
  const double tau = 2e-9;
  for (double t : {2e-9, 3e-9, 5e-9, 9e-9}) {
    const double expected = 1.0 - std::exp(-(t - 1e-9) / tau);
    EXPECT_NEAR(v.At(t), expected, 0.01) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, RcStepTest,
                         ::testing::Values(netlist::IntegrationMethod::kBackwardEuler,
                                           netlist::IntegrationMethod::kTrapezoidal));

TEST(Transient, TrapezoidalMoreAccurateThanBackwardEuler) {
  auto run_error = [](netlist::IntegrationMethod m) {
    netlist::Netlist nl;
    const auto vin = nl.AddNode("vin");
    const auto out = nl.AddNode("out");
    nl.AddDevice(std::make_unique<devices::VSource>(
        "V1", vin, kGroundNode, devices::Waveform::Sin(0.0, 1.0, 200e6)));
    nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, out, 1_kOhm));
    nl.AddDevice(std::make_unique<devices::Capacitor>("C1", out, kGroundNode, 1_pF));
    TransientOptions opts;
    opts.tstop = 20_ns;
    opts.method = m;
    opts.dt_initial = 25_ps;
    opts.dt_max = 25_ps;  // fixed step so the comparison is fair
    opts.max_voltage_step = 10.0;
    auto r = RunTransient(nl, opts);
    EXPECT_TRUE(r.ok());
    auto v = r->Voltage("out");
    // Analytic steady state of the RC filter at 200 MHz.
    const double w = 2 * M_PI * 200e6, tau = 1e-9;
    double err = 0;
    for (double t = 10e-9; t < 20e-9; t += 0.1e-9) {
      const double mag = 1.0 / std::sqrt(1 + w * w * tau * tau);
      const double ph = -std::atan(w * tau);
      err = std::max(err, std::fabs(v.At(t) - mag * std::sin(w * t + ph)));
    }
    return err;
  };
  const double be = run_error(netlist::IntegrationMethod::kBackwardEuler);
  const double trap = run_error(netlist::IntegrationMethod::kTrapezoidal);
  EXPECT_LT(trap, be);
}

// Every step is capped at min(dt_max, 5% of the shortest source period).
// The sources swing 10 mV, far below max_voltage_step, so between source
// corners the steps grow until the ceiling stops them: each run's largest
// step is its ceiling.
TEST(Transient, StepCeilingFollowsTheShortestSourcePeriod) {
  auto largest_step = [](devices::Waveform w, TransientOptions opts) {
    netlist::Netlist nl;
    const auto vin = nl.AddNode("vin");
    const auto out = nl.AddNode("out");
    nl.AddDevice(std::make_unique<devices::VSource>("V1", vin, kGroundNode,
                                                    std::move(w)));
    nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, out, 1_kOhm));
    nl.AddDevice(
        std::make_unique<devices::Capacitor>("C1", out, kGroundNode, 0.1_pF));
    auto r = RunTransient(nl, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    double largest = 0.0;
    for (size_t i = 1; r.ok() && i < r->time().size(); ++i) {
      largest = std::max(largest, r->time()[i] - r->time()[i - 1]);
    }
    return largest;
  };
  auto pulse = [](double period) {
    return devices::Waveform::Pulse(0, 10e-3, 0, 50_ps, 50_ps, 0.45 * period,
                                    period);
  };
  // Time differences carry the rounding of the absolute times (~1e-23 s).
  constexpr double kSlack = 1e-21;
  TransientOptions opts;
  opts.tstop = 30_ns;
  EXPECT_NEAR(largest_step(pulse(10_ns), opts), 100_ps, kSlack);  // dt_max
  opts.tstop = 3_ns;
  EXPECT_NEAR(largest_step(pulse(1_ns), opts), 50_ps, kSlack);
  EXPECT_NEAR(largest_step(devices::Waveform::Sin(0, 10e-3, 2e9), opts), 25_ps,
              kSlack);

  opts.tstop = 30_ns;
  opts.dt_max = 10_ps;
  EXPECT_NEAR(largest_step(pulse(10_ns), opts), 10_ps, kSlack);
}

TEST(Transient, CapacitorDividerInitialCondition) {
  // Two caps in series across a stepped source divide by 1/C ratio.
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto mid = nl.AddNode("mid");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "V1", vin, kGroundNode,
      devices::Waveform::Pulse(0, 3, 1_ns, 0.1_ns, 0.1_ns, 100_ns, 300_ns)));
  nl.AddDevice(std::make_unique<devices::Capacitor>("C1", vin, mid, 2_pF));
  nl.AddDevice(std::make_unique<devices::Capacitor>("C2", mid, kGroundNode, 1_pF));
  // Weak bleed so the DC point is defined.
  nl.AddDevice(std::make_unique<devices::Resistor>("Rb", mid, kGroundNode, 1e12));
  TransientOptions opts;
  opts.tstop = 3_ns;
  auto r = RunTransient(nl, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Right after the step: Vmid = 3 * C1/(C1+C2) = 2.
  EXPECT_NEAR(r->Voltage("mid").At(1.5e-9), 2.0, 0.05);
}

TEST(Transient, LandsOnBreakpoints) {
  netlist::Netlist nl;
  const auto a = nl.AddNode("a");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "V1", a, kGroundNode,
      devices::Waveform::Pulse(0, 1, 5_ns, 0.5_ns, 0.5_ns, 2_ns, 20_ns)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", a, kGroundNode, 1e3));
  TransientOptions opts;
  opts.tstop = 10_ns;
  auto r = RunTransient(nl, opts);
  ASSERT_TRUE(r.ok());
  // A timepoint lands exactly (to fp tolerance) on the 5 ns corner.
  bool found = false;
  for (double t : r->time()) {
    if (std::fabs(t - 5e-9) < 1e-15) found = true;
  }
  EXPECT_TRUE(found);
  // And the pre-edge value is exactly 0 (no smearing across the corner).
  EXPECT_NEAR(r->Voltage("a").At(4.999e-9), 0.0, 1e-9);
}

TEST(Transient, RecordsBranchCurrents) {
  netlist::Netlist nl;
  const auto a = nl.AddNode("a");
  nl.AddDevice(std::make_unique<devices::VSource>("V1", a, kGroundNode,
                                                  devices::Waveform::Dc(2.0)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", a, kGroundNode, 100.0));
  TransientOptions opts;
  opts.tstop = 1_ns;
  auto r = RunTransient(nl, opts);
  ASSERT_TRUE(r.ok());
  auto i = r->BranchCurrent("V1");
  EXPECT_NEAR(i.value.back(), -0.02, 1e-9);
}

TEST(Transient, ChargeConservedThroughSeriesRC) {
  // Integrate the source branch current over the step response: the charge
  // delivered must equal C * dV on the capacitor (trapezoidal integrator
  // conserves charge by construction).
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto out = nl.AddNode("out");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "V1", vin, kGroundNode,
      devices::Waveform::Pulse(0, 2, 1_ns, 0.1_ns, 0.1_ns, 100_ns, 300_ns)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, out, 1_kOhm));
  nl.AddDevice(std::make_unique<devices::Capacitor>("C1", out, kGroundNode, 3_pF));
  TransientOptions opts;
  opts.tstop = 30_ns;
  auto r = RunTransient(nl, opts);
  ASSERT_TRUE(r.ok());
  const auto i = r->BranchCurrent("V1");
  double charge = 0.0;
  for (size_t k = 1; k < i.size(); ++k) {
    charge += 0.5 * (i.value[k] + i.value[k - 1]) * (i.time[k] - i.time[k - 1]);
  }
  const auto v = r->Voltage("out");
  const double dv = v.value.back() - v.value.front();
  // Source current is negative when delivering (SPICE convention).
  EXPECT_NEAR(-charge, 3e-12 * dv, 3e-12 * dv * 0.02 + 1e-15);
}

TEST(Transient, RejectsNonPositiveTstop) {
  netlist::Netlist nl;
  EXPECT_EQ(RunTransient(nl, {}).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(Transient, StatsAreSane) {
  netlist::Netlist nl;
  const auto a = nl.AddNode("a");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "V1", a, kGroundNode, devices::Waveform::Sin(0, 1, 100e6)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", a, kGroundNode, 1e3));
  TransientOptions opts;
  opts.tstop = 20_ns;
  auto r = RunTransient(nl, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats().accepted_steps, 10);
  EXPECT_EQ(static_cast<size_t>(r->stats().accepted_steps) + 1, r->num_points());
  EXPECT_GT(r->stats().total_newton_iterations, r->stats().accepted_steps);
}

}  // namespace
}  // namespace cmldft::sim
