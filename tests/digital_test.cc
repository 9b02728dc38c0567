// Tests for the digital layer: 3-valued logic properties, simulator
// behaviour on the reference circuits, stuck-at fault simulation, LFSR
// quality, toggle coverage, and initialization convergence.
#include <gtest/gtest.h>

#include "digital/bench_parser.h"
#include "digital/faultsim.h"
#include "digital/gate_netlist.h"
#include "digital/generators.h"
#include "digital/logic.h"
#include "digital/patterns.h"
#include "digital/simulator.h"
#include "util/strings.h"

namespace cmldft::digital {
namespace {

// --- logic properties (parameterized over all value pairs) ---------------

const Logic kAll[] = {Logic::k0, Logic::k1, Logic::kX};

TEST(Logic, NotInvolution) {
  for (Logic a : kAll) EXPECT_EQ(Not(Not(a)), a);
}

TEST(Logic, AndOrDuality) {
  // De Morgan holds in 3-valued logic.
  for (Logic a : kAll) {
    for (Logic b : kAll) {
      EXPECT_EQ(Not(And(a, b)), Or(Not(a), Not(b)));
      EXPECT_EQ(Not(Or(a, b)), And(Not(a), Not(b)));
    }
  }
}

TEST(Logic, DominanceThroughX) {
  EXPECT_EQ(And(Logic::k0, Logic::kX), Logic::k0);
  EXPECT_EQ(Or(Logic::k1, Logic::kX), Logic::k1);
  EXPECT_EQ(And(Logic::k1, Logic::kX), Logic::kX);
  EXPECT_EQ(Xor(Logic::k1, Logic::kX), Logic::kX);
}

TEST(Logic, MuxSemantics) {
  EXPECT_EQ(Mux(Logic::k1, Logic::k0, Logic::k1), Logic::k0);
  EXPECT_EQ(Mux(Logic::k0, Logic::k0, Logic::k1), Logic::k1);
  EXPECT_EQ(Mux(Logic::kX, Logic::k1, Logic::k1), Logic::k1);  // agree -> known
  EXPECT_EQ(Mux(Logic::kX, Logic::k0, Logic::k1), Logic::kX);
}

// --- netlist & simulator ---------------------------------------------------

TEST(GateNetlist, TopologicalOrderRejectsCombinationalLoop) {
  GateNetlist nl;
  const SignalId in = nl.AddInput("in");
  const SignalId g1 = nl.AddGate(GateType::kAnd2, "g1", {in, in});
  const SignalId g2 = nl.AddGate(GateType::kOr2, "g2", {g1, g1});
  // Illegally rewire to create a loop (direct fanin surgery via DFF API is
  // guarded, so test detection through a legal-looking netlist built with
  // buf gates pointing at each other is impossible; use the DFF patcher on
  // a non-DFF is asserted — instead check a self-feeding structure).
  (void)g2;
  auto order = nl.TopologicalOrder();
  EXPECT_TRUE(order.ok());
  EXPECT_EQ(order->size(), static_cast<size_t>(nl.num_signals()));
}

TEST(GateNetlist, DffBreaksCycles) {
  GateNetlist nl = MakeScrambler(5);
  auto order = nl.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(nl.dffs().size(), 5u);
}

TEST(Simulator, CombinationalTruthTables) {
  GateNetlist nl;
  const SignalId a = nl.AddInput("a");
  const SignalId b = nl.AddInput("b");
  const SignalId o_and = nl.AddGate(GateType::kAnd2, "and", {a, b});
  const SignalId o_xor = nl.AddGate(GateType::kXor2, "xor", {a, b});
  const SignalId o_not = nl.AddGate(GateType::kNot, "not", {a});
  LogicSimulator sim(nl);
  for (int av = 0; av <= 1; ++av) {
    for (int bv = 0; bv <= 1; ++bv) {
      sim.SetInput(a, FromBool(av));
      sim.SetInput(b, FromBool(bv));
      sim.Evaluate();
      EXPECT_EQ(sim.Value(o_and), FromBool(av && bv));
      EXPECT_EQ(sim.Value(o_xor), FromBool(av != bv));
      EXPECT_EQ(sim.Value(o_not), FromBool(!av));
    }
  }
}

TEST(Simulator, CounterCountsAfterReset) {
  GateNetlist nl = MakeCounter4();
  LogicSimulator sim(nl);
  const SignalId en = nl.Find("en");
  const SignalId rst_n = nl.Find("rst_n");
  ASSERT_GE(en, 0);
  ASSERT_GE(rst_n, 0);
  // Clear.
  sim.SetInput(en, Logic::k0);
  sim.SetInput(rst_n, Logic::k0);
  sim.Evaluate();
  sim.ClockEdge();
  // Count 5 cycles.
  sim.SetInput(rst_n, Logic::k1);
  sim.SetInput(en, Logic::k1);
  for (int i = 0; i < 5; ++i) {
    sim.Evaluate();
    sim.ClockEdge();
  }
  int value = 0;
  for (int b = 0; b < 4; ++b) {
    const Logic q = sim.Value(nl.Find("q" + std::to_string(b)));
    ASSERT_TRUE(IsKnown(q));
    value |= (q == Logic::k1 ? 1 : 0) << b;
  }
  EXPECT_EQ(value, 5);
}

TEST(Simulator, ToggleCoverageMonotone) {
  GateNetlist nl = MakeParityMux(4);
  LogicSimulator sim(nl);
  Lfsr lfsr(3);
  double prev = 0.0;
  for (int p = 0; p < 50; ++p) {
    auto pattern = lfsr.NextPattern(static_cast<int>(nl.inputs().size()));
    for (size_t i = 0; i < nl.inputs().size(); ++i) {
      sim.SetInput(nl.inputs()[i], pattern[i]);
    }
    sim.Evaluate();
    const double cov = sim.ToggleCoverage();
    EXPECT_GE(cov, prev);
    prev = cov;
  }
  EXPECT_GT(prev, 0.9);
}

TEST(Simulator, FaultOverlayForcesValue) {
  GateNetlist nl = MakeParityMux(4);
  LogicSimulator sim(nl);
  const SignalId out = nl.outputs()[0];
  sim.SetFault(StuckAtFault{out, true});
  for (SignalId in : nl.inputs()) sim.SetInput(in, Logic::k0);
  sim.Evaluate();
  EXPECT_EQ(sim.Value(out), Logic::k1);
}

// --- fault simulation ------------------------------------------------------

TEST(FaultSim, ExhaustiveCombinationalIsComplete) {
  GateNetlist nl = MakeParityMux(4);
  const auto faults = EnumerateStuckAtFaults(nl);
  const auto patterns =
      *ExhaustivePatterns(static_cast<int>(nl.inputs().size()));
  const auto result = RunStuckAtFaultSim(nl, faults, patterns);
  // Parity/AND cone of 4 inputs: everything observable is detected.
  EXPECT_GT(result.Coverage(), 0.95);
  EXPECT_EQ(result.detected_at.size(), faults.size());
}

TEST(FaultSim, DetectionIndexIsOneBased) {
  GateNetlist nl;
  const SignalId a = nl.AddInput("a");
  const SignalId buf = nl.AddGate(GateType::kBuf, "b", {a});
  nl.MarkOutput(buf);
  const std::vector<StuckAtFault> faults = {{buf, true}};
  const auto result =
      RunStuckAtFaultSim(nl, faults, {{Logic::k1}, {Logic::k0}});
  // sa1 detected by the second pattern (a=0).
  ASSERT_EQ(result.detected, 1);
  EXPECT_EQ(result.detected_at[0], 2);
}

TEST(FaultSim, SequentialDetectsStateFaults) {
  GateNetlist nl = MakeScrambler(5);
  const auto faults = EnumerateStuckAtFaults(nl);
  const auto patterns = GeneratePatterns(static_cast<int>(nl.inputs().size()),
                                         256, 0x1234);
  const auto result = RunStuckAtFaultSim(nl, faults, patterns);
  EXPECT_GT(result.Coverage(), 0.8);
}

// --- patterns --------------------------------------------------------------

TEST(Lfsr, LongPeriodNoShortCycle) {
  Lfsr l(1);
  const uint32_t start = l.state();
  for (int i = 0; i < 100000; ++i) {
    l.NextBit();
    ASSERT_NE(l.state(), start) << "cycle at " << i;
  }
}

TEST(Lfsr, BalancedBits) {
  Lfsr l(0xDEAD);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ones += l.NextBit() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.01);
}

TEST(Patterns, ExhaustiveCountAndUniqueness) {
  const auto pats = *ExhaustivePatterns(5);
  EXPECT_EQ(pats.size(), 32u);
  std::set<std::vector<Logic>> unique(pats.begin(), pats.end());
  EXPECT_EQ(unique.size(), 32u);
}

TEST(Patterns, ExhaustiveRefusesUnreasonableWidths) {
  // 2^width vectors of width Logic values each: width 21 would be ~42M
  // allocations mid-flight. The guard turns that into a diagnosable error.
  for (int width : {kMaxExhaustiveWidth + 1, 32, -1}) {
    const auto wide = ExhaustivePatterns(width);
    ASSERT_FALSE(wide.ok()) << "width " << width;
    EXPECT_NE(wide.status().message().find("[0, 20]"), std::string::npos)
        << wide.status().ToString();
  }
  // The boundary itself works, as do degenerate small widths.
  EXPECT_EQ(ExhaustivePatterns(0)->size(), 1u);
  EXPECT_EQ(ExhaustivePatterns(1)->size(), 2u);
  EXPECT_EQ(ExhaustivePatterns(kMaxExhaustiveWidth)->size(), 1u << 20);
}

// --- parametric generators --------------------------------------------------

TEST(Generators, CounterNCountsModuloTwoToN) {
  GateNetlist nl = MakeCounterN(6);
  LogicSimulator sim(nl);
  sim.SetInput(nl.Find("en"), Logic::k1);
  sim.SetInput(nl.Find("rst_n"), Logic::k0);
  sim.Evaluate();
  sim.ClockEdge();
  sim.SetInput(nl.Find("rst_n"), Logic::k1);
  for (int cycle = 0; cycle < 70; ++cycle) {  // wraps past 2^6
    sim.Evaluate();
    sim.ClockEdge();
    int value = 0;
    for (int b = 0; b < 6; ++b) {
      const Logic q = sim.Value(nl.Find("q" + std::to_string(b)));
      ASSERT_TRUE(IsKnown(q)) << "cycle " << cycle << " bit " << b;
      value |= (q == Logic::k1 ? 1 : 0) << b;
    }
    ASSERT_EQ(value, (cycle + 1) % 64) << "cycle " << cycle;
  }
}

TEST(Generators, CounterNFourBitsMatchesLegacyCounter4) {
  // The legacy fixed netlist is now a delegation; pin the equivalence.
  const GateNetlist legacy = MakeCounter4();
  const GateNetlist generated = MakeCounterN(4);
  ASSERT_EQ(generated.num_signals(), legacy.num_signals());
  for (SignalId s = 0; s < legacy.num_signals(); ++s) {
    EXPECT_EQ(generated.gate(s).name, legacy.gate(s).name) << s;
    EXPECT_EQ(generated.gate(s).type, legacy.gate(s).type) << s;
    EXPECT_EQ(generated.gate(s).fanin, legacy.gate(s).fanin)
        << legacy.gate(s).name;
  }
}

TEST(Generators, ShiftRegisterDelaysInputByStages) {
  constexpr int kStages = 5;
  GateNetlist nl = MakeShiftRegister(kStages);
  LogicSimulator sim(nl);
  const SignalId din = nl.Find("din");
  const SignalId tail = nl.Find("q" + std::to_string(kStages - 1));
  ASSERT_GE(din, 0);
  ASSERT_GE(tail, 0);
  const std::vector<int> stream = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0};
  for (size_t t = 0; t < stream.size(); ++t) {
    sim.SetInput(din, stream[t] != 0 ? Logic::k1 : Logic::k0);
    sim.Evaluate();
    sim.ClockEdge();
    sim.Evaluate();
    if (t + 1 >= kStages) {
      const Logic expect =
          stream[t + 1 - kStages] != 0 ? Logic::k1 : Logic::k0;
      ASSERT_EQ(sim.Value(tail), expect) << "t=" << t;
    }
  }
}

TEST(Generators, JohnsonCounterWalksTwistedRingSequence) {
  constexpr int kStages = 4;
  GateNetlist nl = MakeJohnsonCounter(kStages);
  LogicSimulator sim(nl);
  const SignalId rst_n = nl.Find("rst_n");
  // Flush the ring: reset must be held for `stages` cycles.
  sim.SetInput(rst_n, Logic::k0);
  for (int i = 0; i < kStages; ++i) {
    sim.Evaluate();
    sim.ClockEdge();
  }
  sim.SetInput(rst_n, Logic::k1);
  // A 4-stage Johnson counter visits 2*4 = 8 states: 0000, 1000, 1100, ...
  int last = 0;
  std::set<int> seen;
  for (int cycle = 0; cycle < 2 * kStages; ++cycle) {
    int state = 0;
    for (int b = 0; b < kStages; ++b) {
      const Logic q = sim.Value(nl.Find("q" + std::to_string(b)));
      ASSERT_TRUE(IsKnown(q)) << "cycle " << cycle << " stage " << b;
      state |= (q == Logic::k1 ? 1 : 0) << b;
    }
    if (cycle > 0) {
      // Gray-code property: exactly one stage changes per step.
      const int diff = state ^ last;
      EXPECT_EQ(diff & (diff - 1), 0) << "cycle " << cycle;
      EXPECT_NE(diff, 0) << "cycle " << cycle;
    }
    seen.insert(state);
    last = state;
    sim.Evaluate();
    sim.ClockEdge();
    sim.Evaluate();
  }
  EXPECT_EQ(seen.size(), 2u * kStages);
}

TEST(Generators, RandomFsmIsSeedDeterministicAndResets) {
  const GateNetlist a = MakeRandomFsm(3, 0x1234u);
  const GateNetlist b = MakeRandomFsm(3, 0x1234u);
  ASSERT_EQ(a.num_signals(), b.num_signals());
  for (SignalId s = 0; s < a.num_signals(); ++s) {
    EXPECT_EQ(a.gate(s).fanin, b.gate(s).fanin) << a.gate(s).name;
  }
  // One reset cycle resolves the whole state register from all-X.
  GateNetlist nl = MakeRandomFsm(3, 0x1234u);
  LogicSimulator sim(nl);
  sim.SetInput(nl.Find("in"), Logic::k0);
  sim.SetInput(nl.Find("rst_n"), Logic::k0);
  sim.Evaluate();
  sim.ClockEdge();
  sim.Evaluate();
  for (int b2 = 0; b2 < 3; ++b2) {
    EXPECT_EQ(sim.Value(nl.Find("s" + std::to_string(b2))), Logic::k0)
        << "state bit " << b2;
  }
}

// --- initialization convergence ---------------------------------------------

constexpr const char* kC17Bench = R"(
# ISCAS-85 c17 in .bench format
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
)";

TEST(BenchParser, C17MatchesBuiltinReference) {
  auto parsed = ParseBench(kC17Bench);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  GateNetlist reference = MakeC17();
  LogicSimulator sim_p(*parsed), sim_r(reference);
  const auto patterns = *ExhaustivePatterns(5);
  for (const auto& pattern : patterns) {
    for (size_t i = 0; i < 5; ++i) {
      sim_p.SetInput(parsed->inputs()[i], pattern[i]);
      sim_r.SetInput(reference.inputs()[i], pattern[i]);
    }
    sim_p.Evaluate();
    sim_r.Evaluate();
    ASSERT_EQ(sim_p.OutputValues(), sim_r.OutputValues());
  }
}

TEST(BenchParser, MultiInputAndSequential) {
  auto parsed = ParseBench(R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(q)
w = AND(a, b, c)
n = NOR(a, b)
x = XNOR(w, n)
q = DFF(x)
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->dffs().size(), 1u);
  LogicSimulator sim(*parsed);
  const SignalId a = parsed->Find("a"), b = parsed->Find("b"), c = parsed->Find("c");
  sim.SetInput(a, Logic::k1);
  sim.SetInput(b, Logic::k1);
  sim.SetInput(c, Logic::k1);
  sim.Evaluate();
  // w=1, n=0, x = xnor(1,0) = 0 -> after clock, q = 0.
  sim.ClockEdge();
  EXPECT_EQ(sim.Value(parsed->Find("q")), Logic::k0);
}

TEST(BenchParser, Errors) {
  EXPECT_FALSE(ParseBench("G1 = NAND(G2)").ok());        // arity
  EXPECT_FALSE(ParseBench("G1 = FROB(a, b)").ok());      // unknown fn
  EXPECT_FALSE(ParseBench("INPUT(a)\nOUTPUT(zz)").ok());  // undefined output
  EXPECT_FALSE(ParseBench("garbage line").ok());
  EXPECT_FALSE(ParseBench("INPUT(a)\nq = AND(a, ghost)").ok());  // undefined arg
  EXPECT_FALSE(ParseBench("INPUT(a)\nINPUT(b)\n = AND(a, b)").ok());
  EXPECT_FALSE(ParseBench("INPUT(a)\nq = DFF(a, a)").ok());  // DFF arity
  // Combinational loop without a DFF to break it.
  auto loop = ParseBench("INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = NOT(x)");
  ASSERT_FALSE(loop.ok());
  EXPECT_NE(loop.status().message().find("combinational loop"),
            std::string::npos)
      << loop.status().ToString();
}

TEST(BenchParser, DeepChainParses) {
  // n00000 = NOT(n00001), ..., n19999 = NOT(a): the deepest gate sorts
  // first, so resolving it walks the whole chain before anything else
  // exists. Depth is bounded by the deck, not by the parser.
  constexpr int kDepth = 20000;
  std::string deck = "INPUT(a)\nOUTPUT(n00000)\n";
  for (int i = 0; i < kDepth; ++i) {
    const std::string fanin =
        i + 1 == kDepth ? "a" : util::StrPrintf("n%05d", i + 1);
    deck += util::StrPrintf("n%05d = NOT(%s)\n", i, fanin.c_str());
  }
  auto nl = ParseBench(deck);
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  EXPECT_EQ(nl->num_signals(), kDepth + 1);
  LogicSimulator sim(*nl);
  sim.SetInput(nl->inputs()[0], Logic::k1);
  sim.Evaluate();
  // An even number of inversions passes the input through.
  EXPECT_EQ(sim.OutputValues(), std::vector<Logic>{Logic::k1});
}

TEST(BenchParser, C17RoundTripThroughWriter) {
  const GateNetlist reference = MakeC17();
  auto text = WriteBench(reference);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto back = ParseBench(*text);
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << *text;
  ASSERT_EQ(back->inputs().size(), reference.inputs().size());
  ASSERT_EQ(back->outputs().size(), reference.outputs().size());
  LogicSimulator sim_b(*back), sim_r(reference);
  const auto patterns = *ExhaustivePatterns(5);
  for (const auto& pattern : patterns) {
    for (size_t i = 0; i < 5; ++i) {
      sim_b.SetInput(back->inputs()[i], pattern[i]);
      sim_r.SetInput(reference.inputs()[i], pattern[i]);
    }
    sim_b.Evaluate();
    sim_r.Evaluate();
    ASSERT_EQ(sim_b.OutputValues(), sim_r.OutputValues());
  }
}

TEST(BenchParser, SequentialRoundTripPreservesStructure) {
  const GateNetlist reference = MakeScrambler(7);
  auto text = WriteBench(reference);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto back = ParseBench(*text);
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << *text;
  EXPECT_EQ(back->inputs().size(), reference.inputs().size());
  EXPECT_EQ(back->outputs().size(), reference.outputs().size());
  EXPECT_EQ(back->dffs().size(), reference.dffs().size());
  // Same stuck-at detection profile under the same pattern set — the two
  // netlists are behaviorally interchangeable for the testgen layer.
  const auto patterns = GeneratePatterns(
      static_cast<int>(reference.inputs().size()), 64, 0xACE1u);
  const auto fs_ref = RunStuckAtFaultSim(
      reference, EnumerateStuckAtFaults(reference), patterns);
  const auto fs_back =
      RunStuckAtFaultSim(*back, EnumerateStuckAtFaults(*back), patterns);
  EXPECT_EQ(fs_back.total_faults, fs_ref.total_faults);
  EXPECT_EQ(fs_back.detected, fs_ref.detected);
}

TEST(BenchParser, WriterRejectsMux2) {
  GateNetlist nl;
  const SignalId s = nl.AddInput("s");
  const SignalId a = nl.AddInput("a");
  const SignalId b = nl.AddInput("b");
  nl.MarkOutput(nl.AddGate(GateType::kMux2, "m", {s, a, b}));
  auto text = WriteBench(nl);
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(C17, MatchesNandTruth) {
  GateNetlist nl = MakeC17();
  LogicSimulator sim(nl);
  // Reference NAND model evaluated directly.
  auto expect_outputs = [&](int i1, int i2, int i3, int i6, int i7) {
    auto nand = [](int a, int b) { return !(a && b); };
    const int g10 = nand(i1, i3), g11 = nand(i3, i6);
    const int g16 = nand(i2, g11), g19 = nand(g11, i7);
    return std::pair<int, int>{nand(g10, g16), nand(g16, g19)};
  };
  for (int v = 0; v < 32; ++v) {
    const int bits[5] = {v & 1, (v >> 1) & 1, (v >> 2) & 1, (v >> 3) & 1,
                         (v >> 4) & 1};
    for (size_t i = 0; i < 5; ++i) {
      sim.SetInput(nl.inputs()[i], FromBool(bits[i] != 0));
    }
    sim.Evaluate();
    const auto [e22, e23] = expect_outputs(bits[0], bits[1], bits[2], bits[3], bits[4]);
    EXPECT_EQ(sim.Value(nl.Find("g22")), FromBool(e22)) << "v=" << v;
    EXPECT_EQ(sim.Value(nl.Find("g23")), FromBool(e23)) << "v=" << v;
  }
}

TEST(C17, ExhaustiveStuckAtCoverage) {
  GateNetlist nl = MakeC17();
  const auto result = RunStuckAtFaultSim(nl, EnumerateStuckAtFaults(nl),
                                         *ExhaustivePatterns(5));
  // c17 is fully testable under exhaustive patterns.
  EXPECT_DOUBLE_EQ(result.Coverage(), 1.0);
}

TEST(Convergence, ScramblerConvergesViaReset) {
  const auto r = AnalyzeInitialization(MakeScrambler(7), 256, 16);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.cycles_to_converge, 0);
  EXPECT_LT(r.cycles_to_converge, 64);
}

TEST(Convergence, CombinationalTrivially) {
  const auto r = AnalyzeInitialization(MakeParityMux(4), 16, 4);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.cycles_to_converge, 0);
}

}  // namespace
}  // namespace cmldft::digital
