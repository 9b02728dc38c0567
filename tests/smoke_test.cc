// End-to-end smoke: RC divider DC, RC transient step response, and a
// diode-resistor DC solve — exercises MNA, Newton, homotopy and the
// transient integrator before the module-level suites exist.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "devices/diode.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "netlist/netlist.h"
#include "sim/dc.h"
#include "sim/transient.h"
#include "util/units.h"

namespace cmldft {
namespace {

using namespace util::literals;

TEST(Smoke, ResistorDividerDc) {
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto mid = nl.AddNode("mid");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "V1", vin, netlist::kGroundNode, devices::Waveform::Dc(10.0)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, mid, 1_kOhm));
  nl.AddDevice(std::make_unique<devices::Resistor>("R2", mid,
                                                   netlist::kGroundNode, 3_kOhm));
  auto r = sim::SolveDc(nl);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NEAR(r->V(nl, "mid"), 7.5, 1e-9);
  // SPICE convention: a source delivering power has negative branch current.
  EXPECT_NEAR(r->BranchCurrent(nl, "V1").value(), -10.0 / 4000.0, 1e-12);
  // A name with no branch current behind it is refused.
  EXPECT_EQ(r->BranchCurrent(nl, "V9").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(r->BranchCurrent(nl, "R1").status().code(),
            util::StatusCode::kNotFound);
}

TEST(Smoke, DiodeResistorDc) {
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto a = nl.AddNode("a");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "V1", vin, netlist::kGroundNode, devices::Waveform::Dc(5.0)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, a, 1_kOhm));
  devices::DiodeParams dp;
  dp.is = 1e-14;
  nl.AddDevice(std::make_unique<devices::Diode>("D1", a, netlist::kGroundNode, dp));
  auto r = sim::SolveDc(nl);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const double vd = r->V(nl, "a");
  // Forward drop in the usual silicon range; KCL: (5 - vd)/1k == Id(vd).
  EXPECT_GT(vd, 0.5);
  EXPECT_LT(vd, 0.8);
  const double id = 1e-14 * (std::exp(vd / util::ThermalVoltage()) - 1.0);
  EXPECT_NEAR((5.0 - vd) / 1000.0, id, 1e-6);
}

TEST(Smoke, RcTransientStep) {
  netlist::Netlist nl;
  const auto vin = nl.AddNode("vin");
  const auto out = nl.AddNode("out");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "V1", vin, netlist::kGroundNode,
      devices::Waveform::Pulse(0.0, 1.0, 1_ns, 1.0_ps, 1.0_ps, 100_ns, 300_ns)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", vin, out, 1_kOhm));
  nl.AddDevice(std::make_unique<devices::Capacitor>("C1", out,
                                                    netlist::kGroundNode, 1_pF));
  sim::TransientOptions opts;
  opts.tstop = 11_ns;
  opts.dt_max = 50_ps;
  auto r = sim::RunTransient(nl, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto v = r->Voltage("out");
  // tau = 1 ns: at t = 1 ns + tau the response should be ~63.2%.
  EXPECT_NEAR(v.At(2_ns), 1.0 - std::exp(-1.0), 0.01);
  // Fully settled by 10 ns.
  EXPECT_NEAR(v.At(10.5_ns), 1.0, 0.01);
}

}  // namespace
}  // namespace cmldft
