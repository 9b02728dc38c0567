// Focused coverage of public-API corners not exercised by the module
// suites: DFF cell behaviour, variation sampling, insertion report
// contents, writer round-trips for exotic devices, response-model duty,
// and assorted edge cases.
#include <gtest/gtest.h>

#include "cml/builder.h"
#include "cml/synthesis.h"
#include "cml/variation.h"
#include "core/characterize.h"
#include "core/insertion.h"
#include "core/response_model.h"
#include "defects/defect.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "devices/spice_parser.h"
#include "sim/ac.h"
#include "sim/transient.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/units.h"
#include "waveform/measure.h"

namespace cmldft {
namespace {

using namespace util::literals;

TEST(CmlDff, LatchesOnRisingEdgeOnly) {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  // d toggles at 100 MHz; clk at 50 MHz with rising edges at 10, 30 ns...
  const cml::DiffPort d = cells.AddDifferentialClock("d", 100_MHz);
  const cml::DiffPort clk = cells.AddDifferentialClock("clk", 50_MHz, 10_ns);
  const cml::DiffPort q = cells.AddDff("ff", d, clk);
  sim::TransientOptions opts;
  opts.tstop = 40_ns;
  auto r = sim::RunTransient(nl, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto qd = r->Differential(q.p_name, q.n_name);
  // Between rising edges (e.g. 12..29 ns) the slave holds one value even
  // though d toggles twice per clock period.
  auto hold = qd.Window(12_ns, 29_ns);
  EXPECT_TRUE(hold.Min() > 0.05 || hold.Max() < -0.05)
      << "DFF output changed between clock edges: [" << hold.Min() << ", "
      << hold.Max() << "]";
}

TEST(CmlVariation, SamplerDeterministicAndBounded) {
  cml::CmlTechnology nominal;
  cml::VariationModel model;
  util::Rng a(42), b(42);
  const auto t1 = cml::SampleTechnology(nominal, model, a);
  const auto t2 = cml::SampleTechnology(nominal, model, b);
  EXPECT_DOUBLE_EQ(t1.swing, t2.swing);
  EXPECT_DOUBLE_EQ(t1.wire_cap, t2.wire_cap);
  for (int i = 0; i < 200; ++i) {
    const auto t = cml::SampleTechnology(nominal, model, a);
    EXPECT_NEAR(t.swing, nominal.swing, nominal.swing * model.load_resistance_spread * 1.001);
    EXPECT_NEAR(t.wire_cap, nominal.wire_cap,
                nominal.wire_cap * model.wire_cap_spread * 1.001);
  }
}

TEST(CmlVariation, SlowGateActuallySlower) {
  cml::CmlTechnology nominal;
  const cml::CmlTechnology slow = cml::SlowGate(nominal, 2.0);
  EXPECT_GT(slow.wire_cap, 2.0 * nominal.wire_cap);
  EXPECT_DOUBLE_EQ(slow.swing, nominal.swing);  // only the speed changes
}

TEST(Insertion, ReportListsClusterMembers) {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const cml::DiffPort in = cells.AddDifferentialDc("in", true);
  cells.AddBufferChain("x", in, 5);
  core::InsertionOptions opt;
  opt.max_gates_per_load = 3;
  auto report = core::InsertDft(cells, opt);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->clusters.size(), 2u);
  EXPECT_EQ(report->clusters[0].size(), 3u);
  EXPECT_EQ(report->clusters[1].size(), 2u);
  // Members are the chain cells, in deterministic order.
  EXPECT_EQ(report->clusters[0][0], "x0");
  EXPECT_EQ(report->clusters[1][1], "x4");
  // Device accounting: 2 tap transistors per gate plus 5 per shared load
  // (Q0, QA, QB, QT, QLS).
  EXPECT_EQ(report->added_transistors, 5 * 2 + 2 * 5);
}

TEST(Writer, MultiEmitterRoundTrip) {
  auto nl = devices::ParseSpice(R"(
.model m npn (is=8e-19)
q1 c b e1 e2 m
r1 c 0 1k
r2 b 0 1k
r3 e1 0 1k
r4 e2 0 1k
)");
  ASSERT_TRUE(nl.ok());
  const std::string text = devices::WriteSpice(*nl);
  auto back = devices::ParseSpice(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << text;
  const auto* q = back->FindDevice("q1");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->kind(), "bjt_multi_emitter");
  EXPECT_EQ(q->num_terminals(), 4);
}

TEST(ResponseModel, DutyScalesStability) {
  cml::CmlTechnology tech;
  core::DetectorOptions dopt;
  const auto full = core::PredictVariant2Response(tech, dopt, 0.5, 1.0);
  const auto half = core::PredictVariant2Response(tech, dopt, 0.5, 0.5);
  EXPECT_NEAR(half.t_stability, 2.0 * full.t_stability,
              full.t_stability * 1e-9);
}

TEST(Characterize, MultiEmitterSharingMatchesTwoTransistor) {
  core::DetectorOptions me;
  me.multi_emitter = true;
  auto p2 = core::MeasureLoadSharing(10, {}, 3.7);
  auto pme = core::MeasureLoadSharing(10, me, 3.7);
  ASSERT_TRUE(p2.ok() && pme.ok());
  EXPECT_NEAR(p2->vout, pme->vout, 0.02);
  EXPECT_EQ(p2->flagged, pme->flagged);
}

TEST(Defects, WireOpenInjects) {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const auto in = cells.AddDifferentialDc("in", true);
  cells.AddBuffer("buf", in);
  defects::Defect d;
  d.type = defects::DefectType::kWireOpen;
  d.device = "buf.rc1";
  d.terminal_a = 1;
  ASSERT_TRUE(defects::InjectDefect(nl, d).ok());
  EXPECT_NE(nl.FindDevice("fault.ro_" + d.Id()), nullptr);
}

TEST(Waveform, PwlBreakpointPastEndIsInfinite) {
  const auto w = devices::Waveform::Pwl({{0, 0}, {1e-9, 1}});
  EXPECT_TRUE(std::isinf(w.NextBreakpoint(2e-9)));
}

TEST(Ac, UnknownNodeMagnitudeIsZero) {
  netlist::Netlist nl;
  const auto a = nl.AddNode("a");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "V1", a, netlist::kGroundNode, devices::Waveform::Dc(1.0)));
  nl.AddDevice(std::make_unique<devices::Resistor>("R1", a,
                                                   netlist::kGroundNode, 1e3));
  auto r = sim::RunAc(nl, "V1", {1e6});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->Magnitude("no_such_node")[0], 0.0);
}

TEST(Synthesis, ReadLogicDeadBandIsX) {
  // Two equal DC sources -> zero differential -> X.
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const auto p = nl.AddNode("p");
  const auto n = nl.AddNode("n");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "Vp", p, netlist::kGroundNode, devices::Waveform::Dc(3.2)));
  nl.AddDevice(std::make_unique<devices::VSource>(
      "Vn", n, netlist::kGroundNode, devices::Waveform::Dc(3.2)));
  sim::TransientOptions opts;
  opts.tstop = 1_ns;
  auto r = sim::RunTransient(nl, opts);
  ASSERT_TRUE(r.ok());
  cml::DiffPort port{p, n, "p", "n"};
  EXPECT_EQ(cml::ReadLogic(*r, port, 0.5e-9), digital::Logic::kX);
}

TEST(Status, AllCodesHaveNames) {
  using util::StatusCode;
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kNoConvergence,
        StatusCode::kSingularMatrix, StatusCode::kParseError,
        StatusCode::kOutOfRange, StatusCode::kInternal}) {
    EXPECT_FALSE(util::StatusCodeName(c).empty());
    EXPECT_NE(util::StatusCodeName(c), "UNKNOWN");
  }
}

TEST(TechnologyApi, DerivedQuantitiesConsistent) {
  cml::CmlTechnology tech;
  EXPECT_NEAR(tech.load_resistance() * tech.tail_current, tech.swing, 1e-12);
  EXPECT_NEAR(tech.v_mid(), (tech.v_high() + tech.v_low()) / 2, 1e-12);
  // Bias voltage yields the tail current through VbeAt (self-consistency).
  EXPECT_NEAR(tech.VbeAt(tech.tail_current) + tech.tail_current * tech.re,
              tech.bias_voltage(), 1e-12);
  // Warmer bias is lower (VBE falls with T).
  EXPECT_LT(tech.bias_voltage(360.0), tech.bias_voltage(300.15));
}

}  // namespace
}  // namespace cmldft
