// Unit + property tests for device models: junction math (continuity,
// monotonicity), source waveforms (values + breakpoints), and DC
// characteristics of diode/BJT/multi-emitter devices solved in-circuit;
// and the junction stamps with their charge companions folded in, against
// a reference that stamps the companions separately.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "devices/bjt.h"
#include "devices/diode.h"
#include "devices/junction.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "linalg/sparse.h"
#include "netlist/netlist.h"
#include "sim/dc.h"
#include "sim/mna.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/units.h"

namespace cmldft::devices {
namespace {

using netlist::kGroundNode;
using namespace util::literals;

// --- junction math -------------------------------------------------------

TEST(Junction, LimitedExpMatchesExpBelowLimit) {
  double d = 0.0;
  const double v = LimitedExp(0.5, 1.0 / 0.025, &d);
  EXPECT_NEAR(v, std::exp(20.0), std::exp(20.0) * 1e-12);
  EXPECT_NEAR(d, std::exp(20.0) / 0.025, std::exp(20.0) / 0.025 * 1e-12);
}

TEST(Junction, LimitedExpContinuousAtLimit) {
  const double nvt = 0.025;
  const double vmax = 40.0 * nvt;
  double dl = 0.0, dr = 0.0;
  const double left = LimitedExp(vmax - 1e-9, 1.0 / nvt, &dl);
  const double right = LimitedExp(vmax + 1e-9, 1.0 / nvt, &dr);
  EXPECT_NEAR(left, right, left * 1e-6);
  EXPECT_NEAR(dl, dr, dl * 1e-6);
}

TEST(Junction, LimitedExpMonotone) {
  double prev = 0.0;
  for (double v = -1.0; v < 3.0; v += 0.01) {
    const double e = LimitedExp(v, 1.0 / 0.025, nullptr);
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST(Junction, EvalJunctionZeroBias) {
  const JunctionEval j = EvalJunction(0.0, 1e-16, 1.0 / 0.025, 1e-12);
  EXPECT_DOUBLE_EQ(j.current, 0.0);
  EXPECT_GT(j.conductance, 0.0);
}

TEST(Junction, DepletionChargeContinuousAtFcVj) {
  const double cj0 = 30e-15, vj = 0.9, m = 0.33, fc = 0.5;
  const DepletionConstants d = DepletionConstantsOf(cj0, vj, m, fc);
  double cl = 0.0, cr = 0.0;
  const double ql = DepletionCharge(fc * vj - 1e-9, d, &cl);
  const double qr = DepletionCharge(fc * vj + 1e-9, d, &cr);
  EXPECT_NEAR(ql, qr, std::fabs(ql) * 1e-5 + 1e-20);
  EXPECT_NEAR(cl, cr, cl * 1e-5);
}

TEST(Junction, DepletionCapIncreasesWithForwardBias) {
  const DepletionConstants d = DepletionConstantsOf(30e-15, 0.9, 0.33, 0.5);
  double c_rev = 0.0, c_fwd = 0.0;
  DepletionCharge(-1.0, d, &c_rev);
  DepletionCharge(0.6, d, &c_fwd);
  EXPECT_GT(c_fwd, c_rev);
}

TEST(Junction, ZeroCj0GivesZero) {
  double c = 1.0;
  EXPECT_DOUBLE_EQ(
      DepletionCharge(0.3, DepletionConstantsOf(0.0, 0.9, 0.33, 0.5), &c),
      0.0);
  EXPECT_DOUBLE_EQ(c, 0.0);
}

// The one-pow form (C = cj0 * p, q = prefactor * (1 - u * p), p = u^-m)
// against the closed forms it replaces, below the split point.
TEST(Junction, OnePowDepletionMatchesClosedForm) {
  const double cj0 = 30e-15, vj = 0.9, m = 0.33, fc = 0.5;
  const DepletionConstants d = DepletionConstantsOf(cj0, vj, m, fc);
  int points = 0;
  for (double v = -5.0; v < fc * vj; v += 0.0137) {
    const double u = 1.0 - v / vj;
    const double q_closed = cj0 * vj / (1.0 - m) * (1.0 - std::pow(u, 1.0 - m));
    const double c_closed = cj0 * std::pow(u, -m);
    double c = 0.0;
    const double q = DepletionCharge(v, d, &c);
    EXPECT_NEAR(q, q_closed, 1e-14 * std::fabs(q_closed)) << "v=" << v;
    EXPECT_NEAR(c, c_closed, 1e-14 * c_closed) << "v=" << v;
    ++points;
  }
  EXPECT_GT(points, 300);
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
  const double ic = -r->BranchCurrent(nl, "Vc").value();
  const double ib = -r->BranchCurrent(nl, "Vb").value();
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
    return -r->BranchCurrent(nl, "Vc").value();
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
    return -r->BranchCurrent(nl, "Vc").value();
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

// --- charge companions folded into the junction stamps --------------------

using netlist::NodeId;

// The reference form of a BJT stamp: the Ebers-Moll block and its rhs
// first, then each charge companion as its own StampCurrent (skipped while
// it is {0, 0}), in the models' expression order. The folded stamps of Bjt,
// MultiEmitterBjt and Diode must match it to rounding in transient, and
// exactly in DC.
void StampBjtSeparately(netlist::StampContext& ctx, const netlist::Device& dev,
                        NodeId c, NodeId b, NodeId e, const BjtParams& p,
                        const double* k, int state_base) {
  const double gmin = ctx.gmin();
  const double vbe = ctx.V(b) - ctx.V(e);
  const double vbc = ctx.V(b) - ctx.V(c);
  double dee = 0.0, dec = 0.0;
  const double ee = LimitedExp(vbe, k[kBjtInvNfVt], &dee);
  const double ec = LimitedExp(vbc, k[kBjtInvNrVt], &dec);
  const double icc = k[kBjtIs] * (ee - 1.0);
  const double gf = k[kBjtIs] * dee;
  const double iec = k[kBjtIsReverse] * (ec - 1.0);
  const double gr = k[kBjtIsReverse] * dec;
  const double ibe = icc * k[kBjtInvBf] + gmin * vbe;
  const double gpi = gf * k[kBjtInvBf] + gmin;
  const double ibc = iec * k[kBjtInvBr] + gmin * vbc;
  const double gmu = gr * k[kBjtInvBr] + gmin;

  // Rows and columns in (c, b, e) order.
  const NodeId n[3] = {c, b, e};
  const double v[3] = {ctx.V(c), ctx.V(b), ctx.V(e)};
  const double ic = icc - iec - ibc;
  const double ib = ibe + ibc;
  const double i[3] = {ic, ib, -(ic + ib)};
  const double dic_dvbc = -gr - gmu;
  double jac[3][3] = {{-dic_dvbc, gf + dic_dvbc, -gf},
                      {-gmu, gpi + gmu, -gpi},
                      {}};
  for (int col = 0; col < 3; ++col) {
    jac[2][col] = -(jac[0][col] + jac[1][col]);
  }
  for (int r = 0; r < 3; ++r) {
    for (int col = 0; col < 3; ++col) {
      ctx.AddNodeMatrix(n[r], n[col], jac[r][col]);
    }
  }
  for (int r = 0; r < 3; ++r) {
    ctx.AddNodeRhs(n[r], -(i[r] - (jac[r][0] * v[0] + jac[r][1] * v[1] +
                                   jac[r][2] * v[2])));
  }

  const ChargeCompanion be =
      IntegrateCharge(ctx, dev, state_base, state_base + 1, [&] {
        double cdep = 0.0;
        const double q =
            DepletionCharge(vbe, LoadDepletion(k + kBjtBeDepletion), &cdep) +
            p.tf * icc;
        return Charge{q, cdep + p.tf * gf};
      });
  if (be.conductance != 0.0 || be.current != 0.0) {
    ctx.StampCurrent(b, e, be.current, be.conductance);
  }
  const ChargeCompanion bc =
      IntegrateCharge(ctx, dev, state_base + 2, state_base + 3, [&] {
        double cdep = 0.0;
        const double q =
            DepletionCharge(vbc, LoadDepletion(k + kBjtBcDepletion), &cdep) +
            p.tr * iec;
        return Charge{q, cdep + p.tr * gr};
      });
  if (bc.conductance != 0.0 || bc.current != 0.0) {
    ctx.StampCurrent(b, c, bc.current, bc.conductance);
  }
}

// A BJT with one emitter (Bjt) or several (MultiEmitterBjt), stamped by
// the reference form. Terminals: {collector, base, e0, e1, ...}.
class SeparateCompanionBjt : public netlist::Device {
 public:
  SeparateCompanionBjt(std::string name, std::vector<NodeId> terminals,
                       BjtParams params)
      : Device(std::move(name), std::move(terminals)), params_(params) {}

  int num_emitters() const { return num_terminals() - 2; }
  bool is_nonlinear() const override { return true; }
  int num_states() const override { return 4 * num_emitters(); }
  int num_constants() const override { return kBjtConstants; }
  void ComputeConstants(double temp_k, double* out) const override {
    ComputeBjtConstants(params_, 1.0 / num_emitters(), temp_k, out);
  }
  void Stamp(netlist::StampContext& ctx) const override {
    const double* k = ctx.Constants(*this);
    for (int i = 0; i < num_emitters(); ++i) {
      StampBjtSeparately(ctx, *this, node(0), node(1), node(2 + i), params_,
                         k, 4 * i);
    }
  }
  std::unique_ptr<netlist::Device> Clone() const override {
    return std::make_unique<SeparateCompanionBjt>(*this);
  }
  std::string_view kind() const override { return "bjt_reference"; }

 private:
  BjtParams params_;
};

// A diode stamped by the reference form: junction, then companion.
class SeparateCompanionDiode : public netlist::Device {
 public:
  SeparateCompanionDiode(std::string name, NodeId a, NodeId c,
                         DiodeParams params)
      : Device(name, {a, c}), model_(name, a, c, params) {}

  bool is_nonlinear() const override { return true; }
  int num_states() const override { return model_.num_states(); }
  int num_constants() const override { return model_.num_constants(); }
  void ComputeConstants(double temp_k, double* out) const override {
    model_.ComputeConstants(temp_k, out);
  }
  void Stamp(netlist::StampContext& ctx) const override {
    const double v = ctx.V(node(0)) - ctx.V(node(1));
    const double* k = ctx.Constants(*this);
    const JunctionEval j = EvalJunction(v, k[0], k[1], ctx.gmin());
    ctx.StampCurrent(node(0), node(1), j.current, j.conductance);
    const double tt = model_.params().tt;
    const ChargeCompanion cc = IntegrateCharge(ctx, *this, 0, 1, [&] {
      double cdep = 0.0;
      const double q =
          DepletionCharge(v, LoadDepletion(k + 2), &cdep) + tt * j.current;
      return Charge{q, cdep + tt * j.conductance};
    });
    if (cc.conductance != 0.0 || cc.current != 0.0) {
      ctx.StampCurrent(node(0), node(1), cc.current, cc.conductance);
    }
  }
  std::unique_ptr<netlist::Device> Clone() const override {
    return std::make_unique<SeparateCompanionDiode>(*this);
  }
  std::string_view kind() const override { return "diode_reference"; }

 private:
  Diode model_;
};

// A BJT, a two-emitter BJT and a diode on shared nodes (ground included),
// as the models or as their references.
netlist::Netlist JunctionNetlist(bool reference) {
  netlist::Netlist nl;
  const NodeId c = nl.AddNode("c"), b = nl.AddNode("b"), e = nl.AddNode("e"),
               e2 = nl.AddNode("e2"), a = nl.AddNode("a");
  BjtParams q1;
  q1.tr = 5e-12;  // a B-C diffusion charge too
  DiodeParams dp;
  dp.cj0 = 40e-15;
  dp.tt = 3e-12;
  if (reference) {
    nl.AddDevice(std::make_unique<SeparateCompanionBjt>(
        "q1", std::vector<NodeId>{c, b, e}, q1));
    nl.AddDevice(std::make_unique<SeparateCompanionBjt>(
        "q2", std::vector<NodeId>{a, b, e2, kGroundNode}, BjtParams{}));
    nl.AddDevice(std::make_unique<SeparateCompanionDiode>("d1", a, e, dp));
  } else {
    nl.AddDevice(std::make_unique<Bjt>("q1", c, b, e, q1));
    nl.AddDevice(std::make_unique<MultiEmitterBjt>(
        "q2", a, b, std::vector<NodeId>{e2, kGroundNode}));
    nl.AddDevice(std::make_unique<Diode>("d1", a, e, dp));
  }
  return nl;
}

// Every Jacobian and rhs entry of `folded` within `rel_tol` of
// `separate`'s, relative to the larger magnitude of the two.
void ExpectAssembliesAgree(const sim::MnaSystem& folded,
                           const sim::MnaSystem& separate, double rel_tol,
                           double* worst) {
  auto check = [&](double x, double y, const char* what, size_t i) {
    const double scale = std::max(std::fabs(x), std::fabs(y));
    const double rel = scale > 0.0 ? std::fabs(x - y) / scale : 0.0;
    *worst = std::max(*worst, rel);
    EXPECT_LE(rel, rel_tol) << what << "[" << i << "]: " << x << " vs " << y;
  };
  const linalg::Matrix jf = folded.jacobian(), js = separate.jacobian();
  ASSERT_EQ(jf.rows(), js.rows());
  for (size_t r = 0; r < jf.rows(); ++r) {
    for (size_t c = 0; c < jf.cols(); ++c) {
      check(jf(r, c), js(r, c), "J", r * jf.cols() + c);
    }
  }
  for (size_t i = 0; i < folded.rhs().size(); ++i) {
    check(folded.rhs()[i], separate.rhs()[i], "rhs", i);
  }
}

TEST(JunctionStamp, FoldedChargeCompanionsMatchSeparateStamps) {
  const netlist::Netlist folded_nl = JunctionNetlist(false);
  const netlist::Netlist separate_nl = JunctionNetlist(true);
  util::Rng rng(0x5EEDull);
  double worst_dc = 0.0, worst_tran = 0.0;
  for (const auto method : {netlist::IntegrationMethod::kTrapezoidal,
                            netlist::IntegrationMethod::kBackwardEuler}) {
    for (int trial = 0; trial < 40; ++trial) {
      sim::MnaSystem folded(folded_nl), separate(separate_nl);
      sim::MnaSystem* both[] = {&folded, &separate};
      auto assemble = [&](double rel_tol, double* worst) {
        linalg::Vector x(static_cast<size_t>(folded.num_unknowns()));
        for (double& v : x) v = rng.NextDouble(-1.0, 1.0);
        for (sim::MnaSystem* s : both) s->Assemble(x);
        ExpectAssembliesAgree(folded, separate, rel_tol, worst);
      };
      // DC (states seeded, companions {0, 0}): exactly equal.
      for (sim::MnaSystem* s : both) {
        s->set_mode(netlist::AnalysisMode::kDcOperatingPoint);
        s->set_initializing_state(true);
        s->set_method(method);
      }
      assemble(0.0, &worst_dc);
      // Two transient steps at a random dt, so the second integrates
      // against random previous charges and companion currents.
      const double dt = rng.NextDouble(1e-12, 50e-12);
      for (sim::MnaSystem* s : both) {
        s->RotateStates();
        s->set_mode(netlist::AnalysisMode::kTransient);
        s->set_initializing_state(false);
        s->set_dt(dt);
      }
      for (int step = 0; step < 2; ++step) {
        assemble(1e-13, &worst_tran);
        for (sim::MnaSystem* s : both) s->RotateStates();
      }
    }
  }
  RecordProperty("worst_transient_rel", util::StrPrintf("%.3g", worst_tran));
  EXPECT_EQ(worst_dc, 0.0);
}

// --- plain DC evaluates no charge -----------------------------------------

// Assembles a netlist through a fresh StampContext per pass, recording
// straight into a cleared sparse builder as an MnaSystem's recording pass
// does (a first write keeps -0.0), over state arrays of its own. The
// current states start as a NaN sentinel, so a test sees which slots a
// pass writes.
class DirectAssembly final : public netlist::StampContext::Owner {
 public:
  explicit DirectAssembly(const netlist::Netlist& nl) : nl_(nl) {
    int unknowns = nl.num_nodes() - 1, states = 0, constants = 0;
    for (int i = 0; i < nl.num_devices(); ++i) {
      const netlist::Device& dev = nl.device(i);
      netlist::DeviceSlots& s = slots_.emplace_back();
      if (dev.num_branches() > 0) s.branch_offset = unknowns;
      if (dev.num_states() > 0) s.state_offset = states;
      if (dev.num_constants() > 0) s.constant_offset = constants;
      unknowns += dev.num_branches();
      states += dev.num_states();
      constants += dev.num_constants();
    }
    jacobian = linalg::SparseBuilder(static_cast<size_t>(unknowns));
    rhs.assign(static_cast<size_t>(unknowns), 0.0);
    prev_states_.assign(static_cast<size_t>(states), 0.0);
    curr_states.assign(static_cast<size_t>(states), kSentinel);
    constants_.assign(static_cast<size_t>(constants), 0.0);
    revisions_.assign(slots_.size(), 0);
  }

  static constexpr double kSentinel = std::numeric_limits<double>::quiet_NaN();

  void Assemble(const netlist::AnalysisState& analysis,
                const linalg::Vector& x) {
    jacobian.Clear();
    std::fill(rhs.begin(), rhs.end(), 0.0);
    netlist::StampFrame frame;
    frame.analysis = &analysis;
    frame.slots = slots_.data();
    frame.iterate = x.data();
    frame.prev_states = prev_states_.data();
    frame.curr_states = curr_states.data();
    frame.constants = constants_.data();
    frame.constants_revision = revisions_.data();
    netlist::StampContext ctx;
    ctx.Bind(frame);
    ctx.BeginRecord(*this);
    for (int i = 0; i < nl_.num_devices(); ++i) ctx.Record(nl_.device(i));
  }

  void RecordMatrix(int row, int col, double value) override {
    jacobian.Add(static_cast<size_t>(row), static_cast<size_t>(col), value);
  }
  double* MatrixTarget(int, int) override { return nullptr; }  // no replay
  double* RhsTarget(int row) override {
    return &rhs[static_cast<size_t>(row)];
  }

  linalg::SparseBuilder jacobian{0};
  linalg::Vector rhs;
  std::vector<double> curr_states;

 private:
  const netlist::Netlist& nl_;
  std::vector<netlist::DeviceSlots> slots_;
  std::vector<double> prev_states_, constants_;
  std::vector<uint64_t> revisions_;
};

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// A plain DC (no transient, no initializing_state) evaluates no charge and
// writes no state, yet assembles bit for bit what a seeding operating
// point does: the junctions still add their {0, 0} companions.
TEST(JunctionStamp, PlainDcEvaluatesNoCharge) {
  netlist::Netlist nl = JunctionNetlist(false);
  nl.AddDevice(std::make_unique<Capacitor>("c1", nl.FindNode("b"),
                                           nl.FindNode("e2"), 20e-15));
  DirectAssembly plain(nl), seeding(nl);
  const netlist::AnalysisState plain_dc;
  netlist::AnalysisState seeding_dc;
  seeding_dc.initializing_state = true;
  util::Rng rng(0xD0C5ull);
  for (int trial = 0; trial < 40; ++trial) {
    linalg::Vector x(plain.rhs.size());
    for (double& v : x) v = rng.NextDouble(-1.0, 1.0);
    std::fill(seeding.curr_states.begin(), seeding.curr_states.end(),
              DirectAssembly::kSentinel);
    plain.Assemble(plain_dc, x);
    seeding.Assemble(seeding_dc, x);

    std::vector<std::pair<std::pair<size_t, size_t>, double>> pj, sj;
    plain.jacobian.ForEach(
        [&](size_t r, size_t c, double v) { pj.push_back({{r, c}, v}); });
    seeding.jacobian.ForEach(
        [&](size_t r, size_t c, double v) { sj.push_back({{r, c}, v}); });
    ASSERT_EQ(pj.size(), sj.size());
    for (size_t k = 0; k < pj.size(); ++k) {
      EXPECT_EQ(pj[k].first, sj[k].first) << "entry " << k;
      EXPECT_TRUE(BitEqual(pj[k].second, sj[k].second))
          << "J entry " << k << ": " << pj[k].second << " vs "
          << sj[k].second;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_TRUE(BitEqual(plain.rhs[i], seeding.rhs[i]))
          << "rhs[" << i << "]: " << plain.rhs[i] << " vs " << seeding.rhs[i];
    }
    ASSERT_EQ(plain.curr_states.size(), 4u + 8u + 2u + 2u);
    for (size_t i = 0; i < plain.curr_states.size(); ++i) {
      EXPECT_TRUE(std::isnan(plain.curr_states[i])) << "state " << i;
      EXPECT_FALSE(std::isnan(seeding.curr_states[i])) << "state " << i;
    }
  }
}

}  // namespace
}  // namespace cmldft::devices
