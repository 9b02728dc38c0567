// Stuck-at fault simulation (bit-parallel PPSFP by default, serial
// reference path retained) and toggle-coverage / initialization analyses
// over gate netlists.
#pragma once

#include <vector>

#include "digital/gate_netlist.h"
#include "digital/simulator.h"

namespace cmldft::digital {

/// Full (uncollapsed) stuck-at fault list: sa0/sa1 on every signal.
std::vector<StuckAtFault> EnumerateStuckAtFaults(const GateNetlist& netlist);

struct FaultSimResult {
  int total_faults = 0;
  int detected = 0;
  /// Pattern index (1-based) at which each fault was first detected;
  /// 0 = undetected. Parallel to the fault list.
  std::vector<int> detected_at;
  double Coverage() const {
    return total_faults == 0 ? 1.0
                             : static_cast<double>(detected) / total_faults;
  }
};

struct FaultSimOptions {
  /// Worker threads over fault batches: 0 = auto (CMLDFT_THREADS /
  /// hardware), 1 = single-threaded. Results are identical either way.
  int threads = 0;
};

/// Stuck-at fault simulation: run the pattern sequence on the good machine
/// and on each faulty machine; a fault is detected when any primary output
/// differs with both values known. For sequential circuits each pattern is
/// one clock cycle; state starts at X.
///
/// The default engine packs 64 faulty machines into uint64_t value planes
/// (two planes encode the 0/1/X logic of 64 machines) and simulates them
/// in one pass per batch; `detected_at` is bit-identical to the serial
/// reference for every circuit and pattern set.
FaultSimResult RunStuckAtFaultSim(const GateNetlist& netlist,
                                  const std::vector<StuckAtFault>& faults,
                                  const std::vector<std::vector<Logic>>& patterns,
                                  const FaultSimOptions& options = {});

/// The serial one-fault-at-a-time reference implementation (used by the
/// determinism tests to verify the packed engine).
FaultSimResult RunStuckAtFaultSimSerial(
    const GateNetlist& netlist, const std::vector<StuckAtFault>& faults,
    const std::vector<std::vector<Logic>>& patterns);

/// Toggle coverage as a function of applied random patterns (§6.6: "an
/// effective method to obtain a good toggle coverage in a sequential
/// circuit is to stimulate it with random patterns").
struct ToggleHistory {
  std::vector<int> pattern_counts;
  std::vector<double> coverage;
  double final_coverage = 0.0;
  /// First pattern count reaching `target`; -1 if never reached.
  int PatternsToReach(double target) const;
};
ToggleHistory MeasureToggleCoverage(const GateNetlist& netlist,
                                    int max_patterns, uint32_t seed = 0xACE1u);

/// Initialization convergence (§6.6 / ref [13]): sequential circuits under
/// a fixed random input sequence tend to converge to a deterministic state
/// irrespective of their initial state. Simulates `trials` random initial
/// states and reports when all collapse to one state trajectory.
struct ConvergenceResult {
  bool converged = false;
  /// Cycles until every trial's DFF state matched trial 0's.
  int cycles_to_converge = -1;
  int trials = 0;
  int sequence_length = 0;
};
ConvergenceResult AnalyzeInitialization(const GateNetlist& netlist,
                                        int sequence_length, int trials,
                                        uint32_t seed = 0x1234u);

}  // namespace cmldft::digital
