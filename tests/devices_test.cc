// Unit + property tests for device models: junction math (continuity,
// monotonicity), source waveforms (values + breakpoints), and DC
// characteristics of diode/BJT/multi-emitter devices solved in-circuit.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "devices/bjt.h"
#include "devices/diode.h"
#include "devices/junction.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "netlist/netlist.h"
#include "sim/dc.h"
#include "util/units.h"

namespace cmldft::devices {
namespace {

using netlist::kGroundNode;
using namespace util::literals;

// --- junction math -------------------------------------------------------

TEST(Junction, LimitedExpMatchesExpBelowLimit) {
  double d = 0.0;
  const double v = LimitedExp(0.5, 0.025, &d);
  EXPECT_NEAR(v, std::exp(20.0), std::exp(20.0) * 1e-12);
  EXPECT_NEAR(d, std::exp(20.0) / 0.025, std::exp(20.0) / 0.025 * 1e-12);
}

TEST(Junction, LimitedExpContinuousAtLimit) {
  const double nvt = 0.025;
  const double vmax = 40.0 * nvt;
  double dl = 0.0, dr = 0.0;
  const double left = LimitedExp(vmax - 1e-9, nvt, &dl);
  const double right = LimitedExp(vmax + 1e-9, nvt, &dr);
  EXPECT_NEAR(left, right, left * 1e-6);
  EXPECT_NEAR(dl, dr, dl * 1e-6);
}

TEST(Junction, LimitedExpMonotone) {
  double prev = 0.0;
  for (double v = -1.0; v < 3.0; v += 0.01) {
    const double e = LimitedExp(v, 0.025, nullptr);
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST(Junction, EvalJunctionZeroBias) {
  const JunctionEval j = EvalJunction(0.0, 1e-16, 1.0, 0.025, 1e-12);
  EXPECT_DOUBLE_EQ(j.current, 0.0);
  EXPECT_GT(j.conductance, 0.0);
}

TEST(Junction, DepletionChargeContinuousAtFcVj) {
  const double cj0 = 30e-15, vj = 0.9, m = 0.33, fc = 0.5;
  const DepletionSplit split = DepletionSplitAt(cj0, vj, m, fc);
  double cl = 0.0, cr = 0.0;
  const double ql =
      DepletionCharge(fc * vj - 1e-9, cj0, vj, m, fc, split, &cl);
  const double qr =
      DepletionCharge(fc * vj + 1e-9, cj0, vj, m, fc, split, &cr);
  EXPECT_NEAR(ql, qr, std::fabs(ql) * 1e-5 + 1e-20);
  EXPECT_NEAR(cl, cr, cl * 1e-5);
}

TEST(Junction, DepletionCapIncreasesWithForwardBias) {
  const DepletionSplit split = DepletionSplitAt(30e-15, 0.9, 0.33, 0.5);
  double c_rev = 0.0, c_fwd = 0.0;
  DepletionCharge(-1.0, 30e-15, 0.9, 0.33, 0.5, split, &c_rev);
  DepletionCharge(0.6, 30e-15, 0.9, 0.33, 0.5, split, &c_fwd);
  EXPECT_GT(c_fwd, c_rev);
}

TEST(Junction, ZeroCj0GivesZero) {
  double c = 1.0;
  EXPECT_DOUBLE_EQ(DepletionCharge(0.3, 0.0, 0.9, 0.33, 0.5,
                                   DepletionSplitAt(0.0, 0.9, 0.33, 0.5), &c),
                   0.0);
  EXPECT_DOUBLE_EQ(c, 0.0);
}

// --- waveforms -----------------------------------------------------------

TEST(Waveform, DcConstant) {
  const Waveform w = Waveform::Dc(2.5);
  EXPECT_DOUBLE_EQ(w.ValueAt(0.0), 2.5);
  EXPECT_DOUBLE_EQ(w.ValueAt(1.0), 2.5);
  EXPECT_TRUE(std::isinf(w.NextBreakpoint(0.0)));
}

TEST(Waveform, PulseShape) {
  // 0->1, delay 1n, rise 1n, width 3n, fall 1n, period 10n.
  const Waveform w = Waveform::Pulse(0, 1, 1e-9, 1e-9, 1e-9, 3e-9, 10e-9);
  EXPECT_DOUBLE_EQ(w.ValueAt(0.5e-9), 0.0);
  EXPECT_NEAR(w.ValueAt(1.5e-9), 0.5, 1e-12);   // mid-rise
  EXPECT_DOUBLE_EQ(w.ValueAt(3e-9), 1.0);       // plateau
  EXPECT_NEAR(w.ValueAt(5.5e-9), 0.5, 1e-12);   // mid-fall
  EXPECT_DOUBLE_EQ(w.ValueAt(8e-9), 0.0);
  // Periodicity.
  EXPECT_NEAR(w.ValueAt(13e-9), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(w.DcValue(), 0.0);
}

TEST(Waveform, PulseBreakpointsAreEdgeCorners) {
  const Waveform w = Waveform::Pulse(0, 1, 1e-9, 1e-9, 1e-9, 3e-9, 10e-9);
  EXPECT_NEAR(w.NextBreakpoint(0.0), 1e-9, 1e-18);
  EXPECT_NEAR(w.NextBreakpoint(1e-9), 2e-9, 1e-18);
  EXPECT_NEAR(w.NextBreakpoint(2e-9), 5e-9, 1e-18);
  EXPECT_NEAR(w.NextBreakpoint(5e-9), 6e-9, 1e-18);
  EXPECT_NEAR(w.NextBreakpoint(6e-9), 11e-9, 1e-18);  // next period's rise
}

TEST(Waveform, SinValueAndDelay) {
  const Waveform w = Waveform::Sin(1.0, 0.5, 1e9, 1e-9);
  EXPECT_DOUBLE_EQ(w.ValueAt(0.5e-9), 1.0);  // before delay: offset
  EXPECT_NEAR(w.ValueAt(1e-9 + 0.25e-9), 1.5, 1e-9);  // quarter period peak
}

TEST(Waveform, PwlInterpolatesAndClamps) {
  const Waveform w = Waveform::Pwl({{0, 0}, {1e-9, 1}, {2e-9, 1}, {3e-9, 0}});
  EXPECT_DOUBLE_EQ(w.ValueAt(-1e-9), 0.0);
  EXPECT_NEAR(w.ValueAt(0.5e-9), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(w.ValueAt(1.5e-9), 1.0);
  EXPECT_DOUBLE_EQ(w.ValueAt(10e-9), 0.0);
  EXPECT_NEAR(w.NextBreakpoint(0.0), 1e-9, 1e-18);
}

// --- devices in circuit ----------------------------------------------------

TEST(Bjt, DcBetaAndVbe) {
  // Common-emitter: base driven through ideal source, collector to 3.3 V
  // through nothing (direct) - measure IB/IC via source branch currents.
  netlist::Netlist nl;
  const auto vb = nl.AddNode("vb");
  const auto vc = nl.AddNode("vc");
  nl.AddDevice(std::make_unique<VSource>("Vb", vb, kGroundNode,
                                         Waveform::Dc(0.885)));
  nl.AddDevice(std::make_unique<VSource>("Vc", vc, kGroundNode,
                                         Waveform::Dc(3.3)));
  BjtParams p;  // defaults: is=8e-19, bf=100
  nl.AddDevice(std::make_unique<Bjt>("Q1", vc, vb, kGroundNode, p));
  auto r = sim::SolveDc(nl);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const double ic = -r->source_currents.at("Vc");
  const double ib = -r->source_currents.at("Vb");
  // Calibration target: VBE = 885 mV -> IC ~ 0.6 mA.
  EXPECT_NEAR(ic, 0.6e-3, 0.12e-3);
  // Forward beta.
  EXPECT_NEAR(ic / ib, p.bf, p.bf * 0.02);
}

TEST(Bjt, CollectorCurrentExponentialInVbe) {
  // 60 mV per decade: IC(0.885+0.0595)/IC(0.885) ~ 10.
  auto ic_at = [&](double vbe) {
    netlist::Netlist nl;
    const auto vb = nl.AddNode("vb");
    const auto vc = nl.AddNode("vc");
    nl.AddDevice(std::make_unique<VSource>("Vb", vb, kGroundNode, Waveform::Dc(vbe)));
    nl.AddDevice(std::make_unique<VSource>("Vc", vc, kGroundNode, Waveform::Dc(3.3)));
    nl.AddDevice(std::make_unique<Bjt>("Q1", vc, vb, kGroundNode));
    auto r = sim::SolveDc(nl);
    EXPECT_TRUE(r.ok());
    return -r->source_currents.at("Vc");
  };
  const double decade = util::ThermalVoltage() * std::log(10.0);
  EXPECT_NEAR(ic_at(0.80 + decade) / ic_at(0.80), 10.0, 0.2);
}

TEST(Bjt, VbeDriftsMinusTwoMillivoltsPerKelvin) {
  // At constant collector current, VBE must fall ~2 mV/K — the classic
  // bipolar signature, produced by the IS(T) bandgap scaling.
  auto vbe_at = [&](double temp_k) {
    netlist::Netlist nl;
    const auto vc = nl.AddNode("vc");
    const auto b = nl.AddNode("b");
    nl.AddDevice(std::make_unique<VSource>("Vc", vc, kGroundNode, Waveform::Dc(3.3)));
    // Low current density (VBE ~ 0.6 V) where the -2 mV/K rule of thumb
    // applies: dVBE/dT = (VBE - EG - XTI*VT)/T.
    nl.AddDevice(std::make_unique<ISource>("Ib", b, kGroundNode,
                                           Waveform::Dc(-1e-10)));
    nl.AddDevice(std::make_unique<Bjt>("Q1", vc, b, kGroundNode));
    sim::DcOptions opt;
    opt.temperature_k = temp_k;
    auto r = sim::SolveDc(nl, opt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->V(nl, "b") : 0.0;
  };
  const double v_cold = vbe_at(273.15);
  const double v_hot = vbe_at(373.15);
  const double drift_mv_per_k = (v_hot - v_cold) * 1e3 / 100.0;
  EXPECT_LT(drift_mv_per_k, -1.5);
  EXPECT_GT(drift_mv_per_k, -3.0);
}

TEST(Bjt, SaturationCurrentGrowsWithTemperature) {
  BjtParams p;
  EXPECT_NEAR(SaturationCurrentAt(p, p.tnom), p.is, p.is * 1e-12);
  EXPECT_GT(SaturationCurrentAt(p, 360.0), 100.0 * p.is);
  EXPECT_LT(SaturationCurrentAt(p, 250.0), 0.01 * p.is);
}

TEST(MultiEmitterBjt, TwoEmittersTiedEqualsDoubleCurrent) {
  // One two-emitter device with both emitters grounded conducts like two
  // parallel B-E junctions.
  auto ic_of = [&](bool multi) {
    netlist::Netlist nl;
    const auto vb = nl.AddNode("vb");
    const auto vc = nl.AddNode("vc");
    nl.AddDevice(std::make_unique<VSource>("Vb", vb, kGroundNode, Waveform::Dc(0.85)));
    nl.AddDevice(std::make_unique<VSource>("Vc", vc, kGroundNode, Waveform::Dc(3.3)));
    if (multi) {
      nl.AddDevice(std::make_unique<MultiEmitterBjt>(
          "Q1", vc, vb, std::vector<netlist::NodeId>{kGroundNode, kGroundNode}));
    } else {
      nl.AddDevice(std::make_unique<Bjt>("Q1", vc, vb, kGroundNode));
      nl.AddDevice(std::make_unique<Bjt>("Q2", vc, vb, kGroundNode));
    }
    auto r = sim::SolveDc(nl);
    EXPECT_TRUE(r.ok());
    return -r->source_currents.at("Vc");
  };
  EXPECT_NEAR(ic_of(true), ic_of(false), std::fabs(ic_of(false)) * 0.02);
}

TEST(Diode, ForwardDropTracksCurrentDensity) {
  auto vd_at = [&](double r_series) {
    netlist::Netlist nl;
    const auto vin = nl.AddNode("vin");
    const auto a = nl.AddNode("a");
    nl.AddDevice(std::make_unique<VSource>("V1", vin, kGroundNode, Waveform::Dc(3.0)));
    nl.AddDevice(std::make_unique<Resistor>("R1", vin, a, r_series));
    DiodeParams dp;
    dp.is = 8e-19;
    nl.AddDevice(std::make_unique<Diode>("D1", a, kGroundNode, dp));
    auto r = sim::SolveDc(nl);
    EXPECT_TRUE(r.ok());
    return r->V(nl, "a");
  };
  const double vd_small_i = vd_at(1e6);
  const double vd_large_i = vd_at(1e3);
  EXPECT_GT(vd_large_i, vd_small_i);
  // Three decades of current -> ~3 * 60 mV more drop.
  EXPECT_NEAR(vd_large_i - vd_small_i, 3 * util::ThermalVoltage() * std::log(10.0),
              0.02);
}

TEST(Vcvs, AmplifiesDifferentialInput) {
  netlist::Netlist nl;
  const auto a = nl.AddNode("a");
  const auto out = nl.AddNode("out");
  nl.AddDevice(std::make_unique<VSource>("V1", a, kGroundNode, Waveform::Dc(0.1)));
  nl.AddDevice(std::make_unique<Vcvs>("E1", out, kGroundNode, a, kGroundNode, 20.0));
  nl.AddDevice(std::make_unique<Resistor>("RL", out, kGroundNode, 1e3));
  auto r = sim::SolveDc(nl);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->V(nl, "out"), 2.0, 1e-9);
}

TEST(Capacitor, OpenInDc) {
  netlist::Netlist nl;
  const auto a = nl.AddNode("a");
  const auto b = nl.AddNode("b");
  nl.AddDevice(std::make_unique<VSource>("V1", a, kGroundNode, Waveform::Dc(5)));
  nl.AddDevice(std::make_unique<Resistor>("R1", a, b, 1e3));
  nl.AddDevice(std::make_unique<Capacitor>("C1", b, kGroundNode, 1e-12));
  auto r = sim::SolveDc(nl);
  ASSERT_TRUE(r.ok());
  // No DC path through the cap: node b floats to the source level.
  EXPECT_NEAR(r->V(nl, "b"), 5.0, 1e-6);
}

TEST(DeviceClone, PreservesParameters) {
  Resistor r("R1", 1, 2, 4e3);
  auto clone = r.Clone();
  EXPECT_EQ(clone->name(), "R1");
  EXPECT_DOUBLE_EQ(static_cast<Resistor&>(*clone).resistance(), 4e3);
  Bjt q("Q1", 1, 2, 3);
  auto qc = q.Clone();
  EXPECT_EQ(qc->kind(), "bjt");
  EXPECT_EQ(qc->num_states(), 4);
}

}  // namespace
}  // namespace cmldft::devices
