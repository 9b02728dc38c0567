// Defect-universe screening: injects every enumerated defect into a CML
// buffer chain instrumented with built-in detectors and classifies what
// catches it — conventional logic (stuck-at) testing at the primary
// output, delay testing, or the amplitude detectors. This implements the
// paper's central coverage argument: a class of defects is *only* caught
// by the amplitude detectors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/detector.h"
#include "defects/defect.h"
#include "sim/options.h"
#include "util/status.h"

namespace cmldft::campaign {
class Sink;
}  // namespace cmldft::campaign

namespace cmldft::core {

enum class FaultClass {
  kNoEffect,        ///< behaves like the fault-free circuit everywhere
  kLogicVisible,    ///< wrong/stuck logic value at the primary output
  kDelayVisible,    ///< logic OK but primary-output delay shifted
  kIddqVisible,     ///< supply current shifted (conventional Iddq test)
  kAmplitudeOnly,   ///< ONLY the built-in detectors flag it (the paper's class)
  kCatastrophic,    ///< circuit has no DC bias point (supply short etc.)
  /// The transient failed but a bias point exists: a simulator artifact,
  /// not a physically-detected defect. Never credited as coverage and
  /// never silently dropped — the outcome carries the solver error.
  kUnresolved,
};

inline constexpr int kNumFaultClasses =
    static_cast<int>(FaultClass::kUnresolved) + 1;

std::string_view FaultClassName(FaultClass c);

struct ScreeningOptions {
  int chain_length = 4;
  double frequency = 100e6;
  /// Transient window [s]; measurements use its second half.
  double sim_time = 60e-9;
  /// Detector flags when its vout falls this far below the fault-free
  /// reference [V].
  double detector_drop = 0.12;
  /// Primary output counts as logic-visible when its differential swing
  /// falls below this fraction of nominal (or it stops toggling).
  double logic_swing_fraction = 0.5;
  /// Delay-visible when the fixed-reference primary-output delay shifts by
  /// more than this [s].
  double delay_threshold = 30e-12;
  /// Iddq-visible when the mean supply current deviates from fault-free by
  /// more than this fraction.
  double iddq_fraction = 0.25;
  /// Detector configuration (variant 2 per gate; test mode is enabled
  /// during screening).
  DetectorOptions detector;
  defects::EnumerationOptions enumeration;
  /// Worker threads for the defect sweep: 0 = auto (CMLDFT_THREADS or
  /// hardware concurrency), 1 = the serial reference path. Every defect
  /// simulates an independent netlist copy, so classifications are
  /// bit-identical for any thread count.
  int threads = 0;
  /// Hierarchical bordered-block-diagonal solver for the per-defect
  /// simulations and the fault-free reference (sim/hier.h,
  /// docs/performance.md "Layer 6"). Solutions are tolerance-equivalent to
  /// the flat path — default off so golden waveforms stay byte-stable.
  bool hierarchical = false;
  /// Factor-share quantization quantum for the hierarchical solver
  /// (NewtonOptions::hier_share_quantum). 0 = exact byte matching.
  double hier_share_quantum = 0.0;
};

struct DefectOutcome {
  defects::Defect defect;
  bool converged = false;
  /// Set when `converged` is false and the faulty netlist has no DC
  /// operating point either — the defect killed the bias, which *is* the
  /// paper's catastrophic class rather than a solver artifact.
  bool no_bias_point = false;
  /// Solver error message when the defect run failed (empty on success).
  std::string error;
  bool logic_fail = false;
  bool delay_fail = false;
  bool iddq_fail = false;
  bool amplitude_detected = false;
  /// Largest differential amplitude observed on any monitored gate output [V].
  double max_gate_amplitude = 0.0;
  /// Lowest detector vout across all detectors [V].
  double min_detector_vout = 0.0;
  /// Per-detector vout minima (index = monitored gate), for localization.
  std::vector<double> detector_vouts;
  /// Mean supply current magnitude over the window [A].
  double supply_current = 0.0;
  FaultClass Classify() const;
};

struct ScreeningReport {
  std::vector<DefectOutcome> outcomes;
  double nominal_swing = 0.0;
  double reference_delay = 0.0;
  double reference_detector_vout = 0.0;
  double reference_supply_current = 0.0;
  /// Per-detector fault-free vout minima (localization baseline).
  std::vector<double> reference_detector_vouts;

  int CountClass(FaultClass c) const;
  int total() const { return static_cast<int>(outcomes.size()); }
  /// Coverage of conventional (stuck-at + delay) testing alone.
  /// Catastrophic defects count as detected; unresolved ones never do.
  double ConventionalCoverage() const;
  /// Coverage with amplitude detectors added.
  double CombinedCoverage() const;
};

/// Screen the defect universe of an instrumented buffer chain.
///
/// By default the whole universe runs in-process and the returned report
/// is the complete result. A campaign passes `ids`, the ascending unit ids
/// (indices into ScreeningUniverse) this process runs, and `sink` to
/// stream every outcome (and the fault-free reference) into a durable
/// store as it completes; the returned report then holds only those units
/// — the campaign merge stage reassembles the full, bit-identical report
/// from the stores. Either pointer may be null independently; an id
/// outside the universe is refused.
util::StatusOr<ScreeningReport> ScreenBufferChain(
    const ScreeningOptions& options = {},
    const std::vector<uint64_t>* ids = nullptr,
    campaign::Sink* sink = nullptr);

/// The defect universe `ScreenBufferChain` would screen under `options`,
/// in its stable execution order (unit id = index). Enumeration only — no
/// simulation. Campaign planners use this for sizing and fingerprinting.
std::vector<defects::Defect> ScreeningUniverse(const ScreeningOptions& options);

}  // namespace cmldft::core
