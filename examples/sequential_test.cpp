// Example: planning the amplitude test for a sequential CML design (§6.6).
// The detectors integrate a fault over toggling cycles, so the digital
// question is: how many pseudorandom patterns give every gate both logic
// values, and does the circuit initialize deterministically (ref [13])?
//
//   $ ./examples/sequential_test
#include <cstdio>

#include "digital/faultsim.h"
#include "digital/patterns.h"
#include "digital/gate_netlist.h"
#include "report/report.h"
#include "testgen/amplitude_test.h"

using namespace cmldft;

int main() {
  const digital::GateNetlist scrambler = digital::MakeScrambler(7);
  std::printf("design: %s\n\n", scrambler.Summary().c_str());

  // 1. Initialization: does the state converge regardless of power-up?
  const auto conv = digital::AnalyzeInitialization(scrambler,
                                                   /*sequence_length=*/256,
                                                   /*trials=*/32);
  if (conv.converged) {
    std::printf("initialization: %d random power-up states converged to one\n"
                "trajectory after %d cycles of the shared random sequence\n"
                "(ref [13]: a single fault-free simulation suffices to prove "
                "this).\n\n",
                conv.trials, conv.cycles_to_converge);
  } else {
    std::printf("initialization did NOT converge in %d cycles.\n\n",
                conv.sequence_length);
  }

  // 2. Toggle coverage growth under LFSR patterns.
  testgen::TogglePlanOptions opts;
  opts.max_patterns = 2000;
  const auto plan = testgen::PlanSequentialToggleTest(scrambler, opts);
  report::Table table("toggle_coverage",
                      {{"patterns", report::Tol::Info()},
                       {"toggle coverage", report::Tol::Info()}});
  for (size_t i = 0; i < plan.history.pattern_counts.size(); i += 4) {
    table.NewRow()
        .Int(plan.history.pattern_counts[i])
        .Num("%.1f%%", plan.history.coverage[i] * 100);
  }
  std::printf("%s\n", table.ToText().c_str());
  if (plan.recommended_patterns > 0) {
    std::printf("recommended amplitude-test length: %d patterns\n"
                "(%d to initialize + %d to full toggle coverage)\n\n",
                plan.recommended_patterns, plan.convergence.cycles_to_converge,
                plan.recommended_patterns - plan.convergence.cycles_to_converge);
  }

  // 3. For contrast: what the same patterns achieve as a stuck-at test.
  const auto faults = digital::EnumerateStuckAtFaults(scrambler);
  const auto patterns = digital::GeneratePatterns(
      static_cast<int>(scrambler.inputs().size()), 512, 0xACE1u);
  const auto fs = digital::RunStuckAtFaultSim(scrambler, faults, patterns);
  std::printf("the same 512 random patterns as a stuck-at test: %d/%d faults "
              "(%.1f%%)\n",
              fs.detected, fs.total_faults, fs.Coverage() * 100);
  std::printf("amplitude faults need only the toggle condition — the\n"
              "detectors do the observation, no propagation to outputs "
              "required.\n");
  return 0;
}
