#include "digital/faultsim.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "digital/patterns.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace cmldft::digital {

namespace {
struct FaultSimMetrics {
  util::telemetry::Counter runs =
      util::telemetry::GetCounter("digital.faultsim.runs");
  util::telemetry::Counter faults_simulated =
      util::telemetry::GetCounter("digital.faultsim.faults_simulated");
  util::telemetry::Counter faults_detected =
      util::telemetry::GetCounter("digital.faultsim.faults_detected");
  util::telemetry::Counter packed_batches =
      util::telemetry::GetCounter("digital.faultsim.packed_batches");
  util::telemetry::Timer wall =
      util::telemetry::GetTimer("digital.faultsim.wall");
};
const FaultSimMetrics& FsMetrics() {
  static const FaultSimMetrics m;
  return m;
}
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const FaultSimMetrics& kEagerRegistration = FsMetrics();
}  // namespace

std::vector<StuckAtFault> EnumerateStuckAtFaults(const GateNetlist& netlist) {
  std::vector<StuckAtFault> out;
  out.reserve(static_cast<size_t>(netlist.num_signals()) * 2);
  for (SignalId s = 0; s < netlist.num_signals(); ++s) {
    out.push_back({s, false});
    out.push_back({s, true});
  }
  return out;
}

namespace {
// Applies one pattern as a clock cycle; returns primary outputs.
std::vector<Logic> ApplyPattern(LogicSimulator& sim,
                                const std::vector<Logic>& pattern) {
  const auto& inputs = sim.netlist().inputs();
  assert(pattern.size() == inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) sim.SetInput(inputs[i], pattern[i]);
  sim.Evaluate();
  std::vector<Logic> outs = sim.OutputValues();
  if (!sim.netlist().dffs().empty()) sim.ClockEdge();
  return outs;
}
}  // namespace

FaultSimResult RunStuckAtFaultSimSerial(
    const GateNetlist& netlist, const std::vector<StuckAtFault>& faults,
    const std::vector<std::vector<Logic>>& patterns) {
  FaultSimResult result;
  result.total_faults = static_cast<int>(faults.size());
  result.detected_at.assign(faults.size(), 0);

  // Good-machine responses.
  LogicSimulator good(netlist);
  std::vector<std::vector<Logic>> good_outs;
  good_outs.reserve(patterns.size());
  for (const auto& p : patterns) good_outs.push_back(ApplyPattern(good, p));

  for (size_t f = 0; f < faults.size(); ++f) {
    LogicSimulator faulty(netlist);
    faulty.SetFault(faults[f]);
    for (size_t p = 0; p < patterns.size(); ++p) {
      const std::vector<Logic> outs = ApplyPattern(faulty, patterns[p]);
      bool differs = false;
      for (size_t o = 0; o < outs.size(); ++o) {
        const Logic a = good_outs[p][o], b = outs[o];
        if (IsKnown(a) && IsKnown(b) && a != b) {
          differs = true;
          break;
        }
      }
      if (differs) {
        result.detected_at[f] = static_cast<int>(p) + 1;
        ++result.detected;
        break;
      }
    }
  }
  return result;
}

namespace {

// 64 machines per word, two planes per signal: bit m of `one` set means
// machine m sees logic 1, bit m of `zero` means logic 0; neither bit set
// means X. (Both set is unrepresentable by construction — every gate rule
// below preserves disjointness.) This is the packed form of the 3-valued
// Logic truth tables in digital/logic.h.
struct PackedLogic {
  uint64_t one = 0;
  uint64_t zero = 0;
};

inline PackedLogic Broadcast(Logic v) {
  PackedLogic p;
  if (v == Logic::k1) p.one = ~uint64_t{0};
  if (v == Logic::k0) p.zero = ~uint64_t{0};
  return p;
}

inline PackedLogic PackedNot(PackedLogic a) { return {a.zero, a.one}; }
inline PackedLogic PackedAnd(PackedLogic a, PackedLogic b) {
  return {a.one & b.one, a.zero | b.zero};
}
inline PackedLogic PackedOr(PackedLogic a, PackedLogic b) {
  return {a.one | b.one, a.zero & b.zero};
}
inline PackedLogic PackedXor(PackedLogic a, PackedLogic b) {
  return {(a.one & b.zero) | (a.zero & b.one),
          (a.one & b.one) | (a.zero & b.zero)};
}
// sel ? a : b with X-pessimism, matching Mux(): an X select resolves only
// where a and b agree.
inline PackedLogic PackedMux(PackedLogic s, PackedLogic a, PackedLogic b) {
  const uint64_t sx = ~(s.one | s.zero);
  return {(s.one & a.one) | (s.zero & b.one) | (sx & a.one & b.one),
          (s.one & a.zero) | (s.zero & b.zero) | (sx & a.zero & b.zero)};
}

// Simulates one batch of up to 64 faults over the full pattern sequence,
// writing 1-based first-detection pattern indices into detected_at (0 =
// undetected). Replicates LogicSimulator semantics exactly: the stuck-at
// overlay applies at the faulty signal's slot in topological order during
// Evaluate and at the latch point during ClockEdge; detection requires
// both the good and the faulty output to be known and different.
void SimulatePackedBatch(const GateNetlist& netlist,
                         const std::vector<SignalId>& order,
                         const std::vector<StuckAtFault>& faults,
                         size_t batch_begin, size_t batch_size,
                         const std::vector<std::vector<Logic>>& patterns,
                         const std::vector<std::vector<Logic>>& good_outs,
                         int* detected_at) {
  const size_t num_signals = static_cast<size_t>(netlist.num_signals());
  // Per-signal stuck-at masks for this batch (bit m = machine m's fault).
  std::vector<uint64_t> sa1(num_signals, 0), sa0(num_signals, 0);
  for (size_t m = 0; m < batch_size; ++m) {
    const StuckAtFault& f = faults[batch_begin + m];
    const uint64_t bit = uint64_t{1} << m;
    (f.stuck_value ? sa1 : sa0)[static_cast<size_t>(f.signal)] |= bit;
  }
  const uint64_t live =
      batch_size == 64 ? ~uint64_t{0} : (uint64_t{1} << batch_size) - 1;

  std::vector<PackedLogic> values(num_signals);  // all-X start, as Reset()
  std::vector<PackedLogic> dff_next(num_signals);

  auto apply_fault = [&](SignalId id, PackedLogic v) {
    const size_t s = static_cast<size_t>(id);
    v.one = (v.one & ~sa0[s]) | sa1[s];
    v.zero = (v.zero & ~sa1[s]) | sa0[s];
    return v;
  };

  auto evaluate = [&]() {
    for (SignalId id : order) {
      const Gate& g = netlist.gate(id);
      PackedLogic v = values[static_cast<size_t>(id)];
      auto in = [&](int k) {
        return values[static_cast<size_t>(g.fanin[static_cast<size_t>(k)])];
      };
      switch (g.type) {
        case GateType::kInput:
        case GateType::kDff:
          break;  // sources keep their value
        case GateType::kBuf: v = in(0); break;
        case GateType::kNot: v = PackedNot(in(0)); break;
        case GateType::kAnd2: v = PackedAnd(in(0), in(1)); break;
        case GateType::kOr2: v = PackedOr(in(0), in(1)); break;
        case GateType::kXor2: v = PackedXor(in(0), in(1)); break;
        case GateType::kMux2: v = PackedMux(in(0), in(1), in(2)); break;
      }
      values[static_cast<size_t>(id)] = apply_fault(id, v);
    }
  };

  const auto& inputs = netlist.inputs();
  const auto& outputs = netlist.outputs();
  const auto& dffs = netlist.dffs();
  uint64_t detected_mask = 0;

  for (size_t p = 0; p < patterns.size(); ++p) {
    assert(patterns[p].size() == inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      values[static_cast<size_t>(inputs[i])] = Broadcast(patterns[p][i]);
    }
    evaluate();

    uint64_t diff = 0;
    for (size_t o = 0; o < outputs.size(); ++o) {
      const Logic g = good_outs[p][o];
      const PackedLogic& f = values[static_cast<size_t>(outputs[o])];
      if (g == Logic::k1) diff |= f.zero;
      else if (g == Logic::k0) diff |= f.one;
    }
    uint64_t newly = diff & live & ~detected_mask;
    while (newly != 0) {
      const int m = __builtin_ctzll(newly);
      newly &= newly - 1;
      detected_at[batch_begin + static_cast<size_t>(m)] =
          static_cast<int>(p) + 1;
    }
    detected_mask |= diff & live;
    if (detected_mask == live) break;  // every machine in the word detected

    if (!dffs.empty()) {
      for (SignalId d : dffs) {
        const Gate& g = netlist.gate(d);
        dff_next[static_cast<size_t>(d)] =
            apply_fault(d, values[static_cast<size_t>(g.fanin[0])]);
      }
      for (SignalId d : dffs) {
        values[static_cast<size_t>(d)] = dff_next[static_cast<size_t>(d)];
      }
      evaluate();
    }
  }
}

}  // namespace

FaultSimResult RunStuckAtFaultSim(
    const GateNetlist& netlist, const std::vector<StuckAtFault>& faults,
    const std::vector<std::vector<Logic>>& patterns,
    const FaultSimOptions& options) {
  const FaultSimMetrics& metrics = FsMetrics();
  metrics.runs.Increment();
  metrics.faults_simulated.Add(faults.size());
  util::telemetry::ScopedTimer span(metrics.wall);
  FaultSimResult result;
  result.total_faults = static_cast<int>(faults.size());
  result.detected_at.assign(faults.size(), 0);
  if (faults.empty()) return result;

  // Good-machine responses (serial 3-valued simulation, once).
  LogicSimulator good(netlist);
  std::vector<std::vector<Logic>> good_outs;
  good_outs.reserve(patterns.size());
  for (const auto& p : patterns) good_outs.push_back(ApplyPattern(good, p));

  auto order_or = netlist.TopologicalOrder();
  assert(order_or.ok() && "netlist has a combinational loop");
  const std::vector<SignalId> order = std::move(order_or).value();

  // Batches are independent packed simulations writing disjoint slices of
  // detected_at — parallelize across them.
  const size_t num_batches = (faults.size() + 63) / 64;
  metrics.packed_batches.Add(num_batches);
  util::ParallelFor(
      num_batches,
      [&](size_t b) {
        const size_t begin = b * 64;
        const size_t size = std::min<size_t>(64, faults.size() - begin);
        SimulatePackedBatch(netlist, order, faults, begin, size, patterns,
                            good_outs, result.detected_at.data());
      },
      options.threads);

  for (int at : result.detected_at) {
    if (at != 0) ++result.detected;
  }
  metrics.faults_detected.Add(static_cast<uint64_t>(result.detected));
  return result;
}

ToggleHistory MeasureToggleCoverage(const GateNetlist& netlist,
                                    int max_patterns, uint32_t seed) {
  LogicSimulator sim(netlist);
  Lfsr lfsr(seed);
  const int width = static_cast<int>(netlist.inputs().size());
  ToggleHistory history;
  for (int p = 1; p <= max_patterns; ++p) {
    ApplyPattern(sim, lfsr.NextPattern(width));
    // Log-spaced sampling of the coverage curve.
    if (p < 10 || p % (p < 100 ? 10 : 100) == 0 || p == max_patterns) {
      history.pattern_counts.push_back(p);
      history.coverage.push_back(sim.ToggleCoverage());
    }
  }
  history.final_coverage = sim.ToggleCoverage();
  return history;
}

int ToggleHistory::PatternsToReach(double target) const {
  for (size_t i = 0; i < coverage.size(); ++i) {
    if (coverage[i] >= target) return pattern_counts[i];
  }
  return -1;
}

ConvergenceResult AnalyzeInitialization(const GateNetlist& netlist,
                                        int sequence_length, int trials,
                                        uint32_t seed) {
  ConvergenceResult result;
  result.trials = trials;
  result.sequence_length = sequence_length;
  const int width = static_cast<int>(netlist.inputs().size());
  const int ndff = static_cast<int>(netlist.dffs().size());
  if (ndff == 0) {
    result.converged = true;
    result.cycles_to_converge = 0;
    return result;
  }
  // One shared input sequence for all trials.
  const std::vector<std::vector<Logic>> seq =
      GeneratePatterns(width, sequence_length, 0xBEEF);

  util::Rng rng(seed);
  std::vector<LogicSimulator> sims;
  sims.reserve(static_cast<size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    sims.emplace_back(netlist);
    std::vector<Logic> init(static_cast<size_t>(ndff));
    for (auto& v : init) v = FromBool(rng.NextBool());
    sims.back().SetDffStates(init);
  }
  for (int cycle = 0; cycle < sequence_length; ++cycle) {
    bool all_equal = true;
    for (auto& sim : sims) {
      ApplyPattern(sim, seq[static_cast<size_t>(cycle)]);
    }
    const std::vector<Logic> ref = sims[0].DffStates();
    for (int t = 1; t < trials && all_equal; ++t) {
      if (sims[static_cast<size_t>(t)].DffStates() != ref) all_equal = false;
    }
    if (all_equal) {
      result.converged = true;
      result.cycles_to_converge = cycle + 1;
      return result;
    }
  }
  return result;
}

}  // namespace cmldft::digital
