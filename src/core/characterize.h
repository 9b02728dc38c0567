// DC characterization of the paper's detectors: comparator hysteresis
// (Fig. 12), load-sharing response (Fig. 14), static detectable-excursion
// probes for variants 1/2, and the corner × Monte-Carlo characterization
// sweep the campaign layer shards (campaign/characterize_campaign.h).
// These are library-level procedures so users can re-characterize after
// changing DetectorOptions — or after moving to a process/supply/
// temperature corner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cml/technology.h"
#include "cml/variation.h"
#include "core/detector.h"
#include "report/report.h"
#include "util/status.h"

namespace cmldft::core {

/// Environmental + process conditions one characterization measurement
/// runs under. The technology carries the sampled process corner (swing,
/// wire_cap, npn.is/bf from cml/variation.h) AND the supply corner (its
/// `vgnd`); the temperature flows into every junction via
/// DcOptions::temperature_k, with Vbias retuned to tech.bias_voltage(T)
/// — the paper's "environment independent voltage generator".
struct CharacterizationConditions {
  cml::CmlTechnology tech;
  double temperature_k = 300.15;
};

/// Comparator trip points measured by sweeping an ideal source on the
/// shared vout node up and then down (continuation follows each hysteresis
/// branch). All voltages in volts.
struct Hysteresis {
  double trip_up = 0.0;    ///< vout rising: comparator returns to pass
  double trip_down = 0.0;  ///< vout falling: comparator declares fault
  double vfb_pass = 0.0;   ///< feedback level in the pass state
  double vfb_fail = 0.0;   ///< feedback level in the fault state
  double width() const { return trip_up - trip_down; }
};

/// Sweep resolution `step` defaults to 2 mV.
util::StatusOr<Hysteresis> MeasureComparatorHysteresis(
    const DetectorOptions& options = {}, double vtest = 3.7,
    double step = 0.002);

/// Corner-aware form (no defaulted arguments: the legacy overload above
/// stays the unambiguous zero-config entry point). Default conditions
/// reproduce the legacy measurement exactly.
util::StatusOr<Hysteresis> MeasureComparatorHysteresis(
    const CharacterizationConditions& conditions,
    const DetectorOptions& options, double vtest, double step);

/// One point of the Fig. 14 load-sharing curve: N fault-free buffers (held
/// at static inputs) sharing one load circuit + comparator, vtest ramped to
/// test mode by DC continuation. Optionally gate 0 carries a C-E pipe.
struct LoadSharingPoint {
  int num_gates = 0;
  double vout = 0.0;
  double vfb = 0.0;
  double comp_out = 0.0;
  bool flagged = false;  ///< comparator in the fault state
};
util::StatusOr<LoadSharingPoint> MeasureLoadSharing(
    int num_gates, const DetectorOptions& options = {}, double vtest = 3.7,
    double pipe_on_gate0 = 0.0);

/// Corner-aware form of MeasureLoadSharing (same defaults convention).
util::StatusOr<LoadSharingPoint> MeasureLoadSharing(
    int num_gates, const CharacterizationConditions& conditions,
    const DetectorOptions& options, double vtest, double pipe_on_gate0);

/// Result of the static detectable-excursion probe: an ideal differential
/// pair (op held at vgnd, opb pulled down by a swept source) drives a
/// variant-1 or variant-2 detector in DC; the threshold is the smallest
/// single-ended excursion whose static response drops the detector output
/// by the 100 mV flag criterion. The static threshold bounds the dynamic
/// one from below (DC gives the load capacitor unlimited time).
struct ExcursionProbe {
  /// Smallest detected excursion [V]; -1 when nothing up to probe_max.
  double threshold = -1.0;
  /// vgnd - vout with zero excursion applied — the false-alarm margin.
  double clean_drop = 0.0;
  /// Detector output at the deepest probed excursion [V].
  double vout_at_max = 0.0;
};

/// `variant` is 1 or 2 (variant 3's comparator is characterized by
/// MeasureComparatorHysteresis instead). `vtest` biases the variant-2 tap
/// bases and is ignored for variant 1, which has no test-mode control.
util::StatusOr<ExcursionProbe> MeasureDetectableExcursion(
    int variant, const CharacterizationConditions& conditions,
    const DetectorOptions& options = {}, double vtest = 3.7,
    double probe_max = 1.0, double probe_step = 0.02);

// ---------------------------------------------------------------------------
// Corner × Monte-Carlo characterization sweep (the campaign payload).
//
// The universe is (corner × die): corners enumerate temperature × supply ×
// vtest in that nesting order, and each corner evaluates die 0 (nominal
// silicon) plus `trials` Monte-Carlo dies drawn ONCE from the variation
// model — the same dies visit every corner, like real characterization
// silicon. unit_id = corner_id * (trials + 1) + die_index.

struct CharacterizationConfig {
  std::vector<double> temperatures_c;
  std::vector<double> supplies;  ///< vgnd corner values [V]
  std::vector<double> vtests;    ///< test-mode vtest values [V]
  /// Monte-Carlo dies per corner in addition to the nominal die.
  int trials = 2;
  uint32_t seed = 0xC0A1u;
  cml::VariationModel variation;
  /// Excursion levels of the yield surface [V]. Include the paper's
  /// nominal detection points (0.35 V variant 2, 0.57 V variant 1).
  std::vector<double> excursion_levels;
  /// Test window + detector load for the analytic variant-2 dynamic
  /// threshold (core/response_model.h; Fig. 10 uses 250 ns / 1 pF).
  double response_window = 250e-9;
  double response_load_cap = 1e-12;
  /// Load-sharing measurement: buffer count and the gate-0 pipe value.
  int load_gates = 3;
  double load_pipe = 4e3;
  /// Static-probe depth/resolution and hysteresis sweep resolution [V].
  double probe_max = 1.0;
  double probe_step = 0.02;
  double hysteresis_step = 0.004;

  uint64_t corner_count() const {
    return static_cast<uint64_t>(temperatures_c.size()) * supplies.size() *
           vtests.size();
  }
  uint64_t unit_count() const {
    return corner_count() * (static_cast<uint64_t>(trials) + 1);
  }
};

/// The configuration's fields, listed once in record order: the
/// characterization campaign's suite record is written and read through
/// this field function (campaign/bytes.h), and CharacterizationFingerprint
/// hashes the fields through it.
template <typename Io, typename C>
void CharacterizationSuiteFields(Io& io, C& c) {
  io.F64Vec(c.temperatures_c);
  io.F64Vec(c.supplies);
  io.F64Vec(c.vtests);
  io.I32(c.trials);
  io.U32(c.seed);
  io.F64(c.variation.load_resistance_spread);
  io.F64(c.variation.wire_cap_spread);
  io.F64(c.variation.is_spread);
  io.F64(c.variation.beta_spread);
  io.F64Vec(c.excursion_levels);
  io.F64(c.response_window);
  io.F64(c.response_load_cap);
  io.I32(c.load_gates);
  io.F64(c.load_pipe);
  io.F64(c.probe_max);
  io.F64(c.probe_step);
  io.F64(c.hysteresis_step);
}

/// Decoded corner coordinates of a corner id.
struct CharacterizationCorner {
  double temperature_c = 27.0;
  double supply = 3.3;
  double vtest = 3.7;
};
CharacterizationCorner CornerAt(const CharacterizationConfig& config,
                                uint64_t corner_id);

/// One completed characterization unit. Doubles are stored bit-exactly by
/// the campaign codec; the report derives yields and aggregates at
/// assembly time, making monolithic-vs-merged byte-identity structural.
struct CharacterizationUnitResult {
  uint32_t corner = 0;
  uint32_t die = 0;  ///< 0 = nominal silicon, 1..trials = Monte-Carlo dies
  /// Static excursion thresholds [V]; -1 = not found up to probe_max (or
  /// the probe failed — see measure_failures).
  double v1_static_excursion = -1.0;
  double v2_static_excursion = -1.0;
  double v2_clean_drop = 0.0;  ///< variant-2 false-alarm margin [V]
  /// Analytic variant-2 dynamic threshold (response_window, 1.0 duty).
  double v2_dynamic_threshold = -1.0;
  /// Variant-3 comparator hysteresis at this corner.
  double trip_up = 0.0;
  double trip_down = 0.0;
  double vfb_pass = 0.0;
  double vfb_fail = 0.0;
  bool hysteresis_found = false;
  /// Load-sharing verdicts: fault-free must not flag, the pipe must.
  bool load_clean_flagged = false;
  bool load_pipe_flagged = false;
  double load_clean_vout = 0.0;
  double load_pipe_vout = 0.0;
  /// Bitmask of measurements that errored at this corner (extreme corners
  /// may legitimately lose convergence or hysteresis): bit 0 = v1 probe,
  /// 1 = v2 probe, 2 = hysteresis, 3 = load clean, 4 = load pipe.
  uint32_t measure_failures = 0;

  bool operator==(const CharacterizationUnitResult& o) const = default;
};

/// The Monte-Carlo dies of a configuration, drawn trial-major from a
/// fresh Rng(seed) via cml::SampleTrialTechnologies. Entry t is die t+1;
/// the nominal die is not included. Deterministic in config alone.
std::vector<cml::CmlTechnology> CharacterizationDies(
    const CharacterizationConfig& config);

/// Run unit `unit_id` from scratch. Pure function of (config, unit_id) —
/// the campaign determinism contract. Measurement errors at a corner are
/// folded into measure_failures, not surfaced: a hostile corner is a
/// result, not a campaign failure.
util::StatusOr<CharacterizationUnitResult> EvaluateCharacterizationUnit(
    const CharacterizationConfig& config, uint64_t unit_id);

/// Stable digest of *what is being characterized*: the corner grid, trial
/// count, RNG seed, variation model, and every measurement knob. Stores
/// record it so resume/merge refuse a foreign or drifted configuration.
uint64_t CharacterizationFingerprint(const CharacterizationConfig& config);

// The characterization bench and `campaign_merge --coverage-report` must
// emit byte-identical JSON from the same unit results (the same seam as
// FillPatternCoverageReport), so report identity and assembly live here.
inline constexpr const char kCharacterizationExperiment[] = "characterization";
inline constexpr const char kCharacterizationPaperRef[] =
    "§6 detection thresholds (0.57 V / 0.35 V) taken off-corner: process, "
    "supply, temperature and vtest sweeps (extension)";
inline constexpr const char kCharacterizationSummary[] =
    "yield-vs-threshold surfaces and worst-case detectable excursion per "
    "detector variant over a corner x Monte-Carlo grid";

/// Assemble the characterization report from complete unit results in
/// universe order. Shared by bench/characterization and campaign_merge —
/// the byte-identity seam.
void FillCharacterizationReport(
    const CharacterizationConfig& config,
    const std::vector<CharacterizationUnitResult>& units,
    report::Report& rep);

}  // namespace cmldft::core
