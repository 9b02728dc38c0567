// Tests for defect modeling: injection semantics of every defect type,
// electrical effect sanity, universe enumeration, and copy isolation.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "cml/builder.h"
#include "defects/defect.h"
#include "devices/passive.h"
#include "sim/dc.h"

namespace cmldft::defects {
namespace {

// A one-buffer CML circuit to inject into.
struct Fixture {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::DiffPort out;
};

Fixture MakeFixture() {
  Fixture f;
  cml::CellBuilder cells(f.nl, f.tech);
  const auto in = cells.AddDifferentialDc("in", true);
  f.out = cells.AddBuffer("buf", in);
  return f;
}

TEST(Inject, PipeAddsResistorAcrossCE) {
  Fixture f = MakeFixture();
  const int before = f.nl.num_devices();
  Defect d;
  d.type = DefectType::kTransistorPipe;
  d.device = "buf.q3";
  d.resistance = 4e3;
  ASSERT_TRUE(InjectDefect(f.nl, d).ok());
  EXPECT_EQ(f.nl.num_devices(), before + 1);
  auto* r = f.nl.FindDevice("fault." + d.Id());
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->kind(), "resistor");
  // Electrically: the buffer's low level sinks below nominal.
  auto dc = sim::SolveDc(f.nl);
  ASSERT_TRUE(dc.ok());
  EXPECT_LT(dc->V(f.nl, "buf.opb"), f.tech.v_low() - 0.1);
}

TEST(Inject, ShortCollapsesVoltages) {
  Fixture f = MakeFixture();
  Defect d;
  d.type = DefectType::kTransistorShort;
  d.device = "buf.q2";
  d.terminal_a = 0;  // collector (op)
  d.terminal_b = 2;  // emitter
  d.resistance = kShortResistance;
  ASSERT_TRUE(InjectDefect(f.nl, d).ok());
  auto dc = sim::SolveDc(f.nl);
  ASSERT_TRUE(dc.ok());
  // The short steals the tail current through the OFF branch, so op sits
  // at the logic-low level even though the input drives it high: the
  // classic stuck-at-0 of the paper's Figure 2.
  EXPECT_LT(dc->V(f.nl, "buf.op"), f.tech.v_low() + 0.05);
  EXPECT_NEAR(dc->V(f.nl, "buf.opb"), f.tech.vgnd, 0.05);
}

TEST(Inject, OpenRewiresTerminalThroughHighImpedance) {
  Fixture f = MakeFixture();
  Defect d;
  d.type = DefectType::kTransistorOpen;
  d.device = "buf.q3";
  d.terminal_a = 2;  // emitter open -> tail current gone
  ASSERT_TRUE(InjectDefect(f.nl, d).ok());
  // The open adds a 100 MOhm + 1 fF pair.
  EXPECT_NE(f.nl.FindDevice("fault.ro_" + d.Id()), nullptr);
  EXPECT_NE(f.nl.FindDevice("fault.co_" + d.Id()), nullptr);
  auto dc = sim::SolveDc(f.nl);
  ASSERT_TRUE(dc.ok());
  // With no tail current both outputs float to vgnd.
  EXPECT_NEAR(dc->V(f.nl, "buf.op"), f.tech.vgnd, 0.05);
  EXPECT_NEAR(dc->V(f.nl, "buf.opb"), f.tech.vgnd, 0.05);
}

TEST(Inject, ResistorShortAndOpen) {
  Fixture f = MakeFixture();
  Defect dshort;
  dshort.type = DefectType::kResistorShort;
  dshort.device = "buf.rc1";
  ASSERT_TRUE(InjectDefect(f.nl, dshort).ok());
  auto dc = sim::SolveDc(f.nl);
  ASSERT_TRUE(dc.ok());
  // The shorted collector load pins opb at vgnd always.
  EXPECT_NEAR(dc->V(f.nl, "buf.opb"), f.tech.vgnd, 0.01);

  Fixture f2 = MakeFixture();
  Defect dopen;
  dopen.type = DefectType::kResistorOpen;
  dopen.device = "buf.rc1";
  ASSERT_TRUE(InjectDefect(f2.nl, dopen).ok());
  auto dc2 = sim::SolveDc(f2.nl);
  ASSERT_TRUE(dc2.ok());
  // Load open: the ON branch has no pull-up; opb collapses far down.
  EXPECT_LT(dc2->V(f2.nl, "buf.opb"), 2.5);
}

TEST(Inject, BridgeBetweenOutputs) {
  Fixture f = MakeFixture();
  Defect d;
  d.type = DefectType::kBridge;
  d.node_a = "buf.op";
  d.node_b = "buf.opb";
  d.resistance = kShortResistance;
  ASSERT_TRUE(InjectDefect(f.nl, d).ok());
  auto dc = sim::SolveDc(f.nl);
  ASSERT_TRUE(dc.ok());
  // Differential output collapses.
  EXPECT_NEAR(dc->V(f.nl, "buf.op") - dc->V(f.nl, "buf.opb"), 0.0, 0.01);
}

TEST(Inject, ErrorsOnBadTargets) {
  Fixture f = MakeFixture();
  Defect d;
  d.type = DefectType::kTransistorPipe;
  d.device = "nonexistent";
  EXPECT_EQ(InjectDefect(f.nl, d).code(), util::StatusCode::kNotFound);
  d.device = "buf.q3";
  d.terminal_a = d.terminal_b = 0;
  EXPECT_EQ(InjectDefect(f.nl, d).code(), util::StatusCode::kInvalidArgument);
  Defect rs;
  rs.type = DefectType::kResistorShort;
  rs.device = "buf.q1";  // not a resistor
  EXPECT_EQ(InjectDefect(f.nl, rs).code(), util::StatusCode::kInvalidArgument);
  // A pipe, transistor short or bridge needs a finite resistance > 0.
  for (DefectType type : {DefectType::kTransistorPipe,
                          DefectType::kTransistorShort, DefectType::kBridge}) {
    for (double r : {0.0, -1.0, std::nan("")}) {
      Defect bad;
      bad.type = type;
      bad.device = "buf.q3";
      bad.node_a = "buf.op";
      bad.node_b = "buf.opb";
      bad.resistance = r;
      const util::Status st = InjectDefect(f.nl, bad);
      EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument) << bad.Id();
      EXPECT_NE(st.message().find(bad.Id()), std::string::npos) << st.message();
    }
  }
}

TEST(WithDefect, DoesNotMutateOriginal) {
  Fixture f = MakeFixture();
  const int before = f.nl.num_devices();
  Defect d;
  d.type = DefectType::kTransistorPipe;
  d.device = "buf.q3";
  auto faulty = WithDefect(f.nl, d);
  ASSERT_TRUE(faulty.ok());
  EXPECT_EQ(f.nl.num_devices(), before);
  EXPECT_EQ(faulty->num_devices(), before + 1);
}

TEST(Enumerate, CountsMatchStructure) {
  Fixture f = MakeFixture();
  EnumerationOptions opt;
  opt.pipe_values = {1e3, 4e3};
  const auto universe = EnumerateDefects(f.nl, opt);
  // Buffer: 3 BJTs x (2 pipes + 3 shorts + 3 opens) + 3 resistors x 2
  // + 1 op/opb bridge = 24 + 6 + 1 = 31.
  EXPECT_EQ(universe.size(), 31u);
  // Ids are unique.
  std::set<std::string> ids;
  for (const auto& d : universe) ids.insert(d.Id());
  EXPECT_EQ(ids.size(), universe.size());
}

TEST(Enumerate, RespectsExclusions) {
  Fixture f = MakeFixture();
  EnumerationOptions opt;
  opt.exclude_prefixes = {"V", "buf."};
  EXPECT_TRUE(EnumerateDefects(f.nl, opt).size() <= 1u);  // only the bridge
}

TEST(Enumerate, ClassTogglesWork) {
  Fixture f = MakeFixture();
  EnumerationOptions opt;
  opt.transistor_pipes = false;
  opt.transistor_shorts = false;
  opt.transistor_opens = false;
  opt.output_bridges = false;
  const auto universe = EnumerateDefects(f.nl, opt);
  for (const auto& d : universe) {
    EXPECT_TRUE(d.type == DefectType::kResistorShort ||
                d.type == DefectType::kResistorOpen);
  }
}

TEST(DefectId, Readable) {
  Defect d;
  d.type = DefectType::kTransistorPipe;
  d.device = "dut.q3";
  d.resistance = 4e3;
  EXPECT_EQ(d.Id(), "pipe(dut.q3,4k)");
}

// Every enumerated defect on a buffer must be injectable and solvable (or
// fail injection loudly, never crash) — a robustness sweep.
TEST(Enumerate, AllDefectsInjectAndBias) {
  Fixture f = MakeFixture();
  EnumerationOptions opt;
  opt.pipe_values = {4e3};
  const auto universe = EnumerateDefects(f.nl, opt);
  int solved = 0;
  for (const auto& d : universe) {
    auto faulty = WithDefect(f.nl, d);
    ASSERT_TRUE(faulty.ok()) << d.Id();
    auto dc = sim::SolveDc(*faulty);
    if (dc.ok()) ++solved;
  }
  // The vast majority of single defects still have a bias point.
  EXPECT_GT(solved, static_cast<int>(universe.size()) * 8 / 10);
}

}  // namespace
}  // namespace cmldft::defects
