// Tests for the SPICE netlist parser/writer: element grammar, models,
// continuation lines, subcircuit flattening, error reporting, round-trip.
#include <gtest/gtest.h>

#include "devices/bjt.h"
#include "devices/diode.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "devices/spice_parser.h"
#include "sim/dc.h"

namespace cmldft::devices {
namespace {

TEST(Parser, BasicElements) {
  auto nl = ParseSpice(R"(
* a comment
r1 a b 4k
c1 b 0 10p
v1 a 0 dc 3.3
i1 b 0 1m
e1 out 0 a b 2.0
)");
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  EXPECT_EQ(nl->num_devices(), 5);
  auto* r = static_cast<const Resistor*>(nl->FindDevice("r1"));
  ASSERT_NE(r, nullptr);
  EXPECT_DOUBLE_EQ(r->resistance(), 4000.0);
  auto* c = static_cast<const Capacitor*>(nl->FindDevice("c1"));
  EXPECT_DOUBLE_EQ(c->capacitance(), 1e-11);
}

TEST(Parser, ContinuationAndInlineComments) {
  auto nl = ParseSpice("r1 a b\n+ 4k ; trailing comment\n");
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  auto* r = static_cast<const Resistor*>(nl->FindDevice("r1"));
  ASSERT_NE(r, nullptr);
  EXPECT_DOUBLE_EQ(r->resistance(), 4000.0);
}

TEST(Parser, SourceWaveforms) {
  auto nl = ParseSpice(R"(
v1 a 0 pulse(0 1 1n 0.1n 0.1n 3n 10n)
v2 b 0 sin(1.65 0.25 100meg)
v3 c 0 pwl(0 0, 1n 1, 2n 0)
)");
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  auto* v1 = static_cast<const VSource*>(nl->FindDevice("v1"));
  EXPECT_EQ(v1->waveform().kind(), Waveform::Kind::kPulse);
  EXPECT_DOUBLE_EQ(v1->waveform().ValueAt(3e-9), 1.0);
  auto* v2 = static_cast<const VSource*>(nl->FindDevice("v2"));
  EXPECT_EQ(v2->waveform().kind(), Waveform::Kind::kSin);
  auto* v3 = static_cast<const VSource*>(nl->FindDevice("v3"));
  EXPECT_EQ(v3->waveform().kind(), Waveform::Kind::kPwl);
  EXPECT_NEAR(v3->waveform().ValueAt(0.5e-9), 0.5, 1e-12);
}

TEST(Parser, ModelsAndActiveDevices) {
  auto nl = ParseSpice(R"(
.model mynpn npn (is=1e-17 bf=80 cje=20f tf=3p)
.model mydio d (is=1e-15 cj0=5f)
q1 c b e mynpn
q2 c b e1 e2 mynpn
d1 a 0 mydio
)");
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  auto* q1 = static_cast<const Bjt*>(nl->FindDevice("q1"));
  ASSERT_NE(q1, nullptr);
  EXPECT_DOUBLE_EQ(q1->params().bf, 80.0);
  EXPECT_DOUBLE_EQ(q1->params().tf, 3e-12);
  auto* q2 = nl->FindDevice("q2");
  ASSERT_NE(q2, nullptr);
  EXPECT_EQ(q2->kind(), "bjt_multi_emitter");
  EXPECT_EQ(static_cast<const MultiEmitterBjt*>(q2)->num_emitters(), 2);
  auto* d1 = static_cast<const Diode*>(nl->FindDevice("d1"));
  EXPECT_DOUBLE_EQ(d1->params().cj0, 5e-15);
}

TEST(Parser, SubcircuitFlattening) {
  auto nl = ParseSpice(R"(
.subckt divider in out
r1 in out 1k
r2 out 0 1k
.ends
v1 vin 0 dc 10
xdiv vin mid divider
xdiv2 mid low divider
)");
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  // Two instances, fully flattened with hierarchical names.
  EXPECT_NE(nl->FindDevice("xdiv.r1"), nullptr);
  EXPECT_NE(nl->FindDevice("xdiv2.r2"), nullptr);
  EXPECT_NE(nl->FindNode("mid"), netlist::kInvalidNode);
  // The flattened circuit actually solves.
  auto r = sim::SolveDc(*nl);
  ASSERT_TRUE(r.ok());
  // mid sees 1k to the source and 1k || (1k + 1k) = 667 to ground -> 4 V,
  // and the second divider halves it again.
  EXPECT_NEAR(r->V(*nl, "mid"), 4.0, 1e-6);
  EXPECT_NEAR(r->V(*nl, "low"), 2.0, 1e-6);
}

TEST(Parser, NestedSubcircuits) {
  auto nl = ParseSpice(R"(
.subckt unit a b
r1 a b 2k
.ends
.subckt pair x y
xu1 x m unit
xu2 m y unit
.ends
xp top 0 pair
v1 top 0 dc 1
)");
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  EXPECT_NE(nl->FindDevice("xp.xu1.r1"), nullptr);
  auto r = sim::SolveDc(*nl);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->source_currents.at("v1"), -1.0 / 4000.0, 1e-9);
}

TEST(Parser, Errors) {
  EXPECT_EQ(ParseSpice("r1 a b").status().code(), util::StatusCode::kParseError);
  EXPECT_EQ(ParseSpice("q1 c b e nosuchmodel").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(ParseSpice("x1 a b nosuchsub").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(ParseSpice("z1 a b 4").status().code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(ParseSpice(".subckt foo a\nr1 a 0 1\n").status().code(),
            util::StatusCode::kParseError);  // unterminated
  // Malformed cards: too few tokens for the element's pinout.
  EXPECT_EQ(ParseSpice("c1 a 0").status().code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(ParseSpice("q1 c b").status().code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(ParseSpice("e1 p n cp").status().code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(ParseSpice("x1 a").status().code(), util::StatusCode::kParseError);
  // Sources with broken waveform specs.
  EXPECT_EQ(ParseSpice("v1 a 0 dc").status().code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(ParseSpice("v1 a 0 pulse (1)").status().code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(ParseSpice("v1 a 0 sin (0 1)").status().code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(ParseSpice("v1 a 0 pwl ()").status().code(),
            util::StatusCode::kParseError);
  // Model card problems: missing type, unsupported type, unknown params.
  EXPECT_EQ(ParseSpice(".model lonely").status().code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(ParseSpice(".model m pmos (vto=-1)").status().code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(ParseSpice(".model m npn (frob=1)\nq1 c b 0 m").status().code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(ParseSpice(".model m d (zap=2)\nd1 a 0 m").status().code(),
            util::StatusCode::kParseError);
  // Values the device math cannot evaluate: refused with the element or
  // model and the parameter named.
  auto refused = [](const char* deck, const char* fragment) {
    const util::Status st = ParseSpice(deck).status();
    EXPECT_EQ(st.code(), util::StatusCode::kParseError) << deck;
    EXPECT_NE(st.message().find(fragment), std::string::npos)
        << deck << ": " << st.message();
  };
  refused("r1 a 0 0", "r1: resistance");
  refused("r1 a 0 -5", "r1: resistance");
  refused("r1 a 0 nan", "not a finite number");
  refused("r1 a 0 1e999", "not a finite number");
  refused("c1 a 0 -1p", "c1: capacitance");
  refused(".model m d (m=1)\nd1 a 0 m", ".model m (d): m = 1");
  refused(".model m d (fc=-0.1)", "fc = -0.1");
  refused(".model m d (is=0)", "is = 0");
  refused(".model m d (n=-1)", "n = -1");
  refused(".model m d (vj=0)", "vj = 0");
  refused(".model m d (tnom=0)", "tnom = 0");
  refused(".model m d (cj0=-1f)", "cj0 = ");
  refused(".model m d (tt=-1p)", "tt = ");
  refused(".model m npn (nf=0)\nq1 c b 0 m", ".model m (npn): nf = 0");
  refused(".model m npn (bf=0)", "bf = 0");
  refused(".model m npn (br=-1)", "br = -1");
  refused(".model m npn (nr=0)", "nr = 0");
  refused(".model m npn (vje=0)", "vje = 0");
  refused(".model m npn (vjc=-0.7)", "vjc = -0.7");
  refused(".model m npn (mje=1)", "mje = 1");
  refused(".model m npn (mjc=1.5)", "mjc = 1.5");
  refused(".model m npn (fc=1)", "fc = 1");
  refused(".model m npn (cje=-1f)", "cje = ");
  refused(".model m npn (cjc=-1f)", "cjc = ");
  refused(".model m npn (tf=-1p)", "tf = ");
  refused(".model m npn (tr=-1p)", "tr = ");
  refused(".model m npn (is=inf)", "not a finite number");
  // PULSE(v1 v2 delay rise fall width period) and PWL outside the
  // waveform contract.
  refused("v1 a 0 pulse(0 1 0 0 1n 5n 20n)", "v1: pulse rise = 0");
  refused("v1 a 0 pulse(0 1 0 1n -1n 5n 20n)", "v1: pulse fall = -1e-09");
  refused("i1 a 0 pulse(0 1 0 1n 1n -5n 20n)", "i1: pulse width = -5e-09");
  refused("v1 a 0 pulse(0 1 0 1n 1n 5n 0)", "v1: pulse period = 0");
  refused("v1 a 0 pulse(0 1 -1n 1n 1n 5n 20n)", "v1: pulse delay = -1e-09");
  refused("v1 a 0 pulse(0 1 0 1n 1n 19n 20n)",
          "v1: pulse rise + width + fall = 2.1e-08 exceeds period");
  refused("v1 a 0 pwl(0 0 2n 1 1n 0)", "v1: pwl time 1e-09 precedes");
  // Boundary values the math accepts still parse.
  EXPECT_TRUE(ParseSpice(".model m npn (mje=0 fc=0 cje=0 tf=0)\n"
                         "q1 c b 0 m\nc1 c 0 0")
                  .ok());
  // A delayed pulse whose delay plus shape exceeds one period, a pulse
  // that fills its period exactly, and a PWL step (repeated time).
  EXPECT_TRUE(ParseSpice("v1 a 0 pulse(0 1 15n 1n 1n 8n 20n)").ok());
  EXPECT_TRUE(ParseSpice("v1 a 0 pulse(0 1 0 1n 1n 18n 20n)").ok());
  EXPECT_TRUE(ParseSpice("v1 a 0 pwl(0 0 1n 0 1n 1)").ok());
  // Subcircuit instantiation with the wrong pin count.
  EXPECT_EQ(ParseSpice(".subckt u a b\nr1 a b 1k\n.ends\nxq n1 u")
                .status()
                .code(),
            util::StatusCode::kParseError);
}

TEST(Writer, RoundTripPreservesTopology) {
  auto nl = ParseSpice(R"(
.model mynpn npn (is=8e-19 bf=100)
v1 vin 0 dc 3.3
r1 vin c 417
rb vin b 270k
q1 c b 0 mynpn
c1 c 0 45f
)");
  ASSERT_TRUE(nl.ok());
  const std::string text = WriteSpice(*nl);
  auto back = ParseSpice(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << text;
  EXPECT_EQ(back->num_devices(), nl->num_devices());
  // Same DC solution from both.
  auto r1 = sim::SolveDc(*nl);
  auto r2 = sim::SolveDc(*back);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_NEAR(r1->V(*nl, "c"), r2->V(*back, "c"), 1e-9);
}

}  // namespace
}  // namespace cmldft::devices
