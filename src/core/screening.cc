#include "core/screening.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "campaign/work.h"
#include "cml/builder.h"
#include "sim/dc.h"
#include "sim/transient.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "waveform/measure.h"

namespace cmldft::core {

namespace {

using cml::CellBuilder;
using cml::CmlTechnology;
using cml::DiffPort;

struct Instrumented {
  netlist::Netlist nl;
  DiffPort input;
  std::vector<DiffPort> stage_outs;
  std::vector<std::string> detector_vouts;
};

Instrumented BuildInstrumentedChain(const ScreeningOptions& opt) {
  Instrumented out;
  CmlTechnology tech;
  CellBuilder cells(out.nl, tech);
  out.input = cells.AddDifferentialClock("va", opt.frequency);
  out.stage_outs = cells.AddBufferChain("x", out.input, opt.chain_length);
  DetectorBuilder det(cells, opt.detector);
  for (int i = 0; i < opt.chain_length; ++i) {
    out.detector_vouts.push_back(det.AttachVariant2(
        util::StrPrintf("det%d", i), out.stage_outs[static_cast<size_t>(i)]));
  }
  return out;
}

struct Measured {
  bool toggling = false;
  double primary_swing = 0.0;
  double median_delay = 0.0;
  size_t num_crossings = 0;
  double min_detector_vout = 0.0;
  std::vector<double> detector_vouts;
  double max_gate_amplitude = 0.0;
  double supply_current = 0.0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

Measured MeasureRun(const sim::TransientResult& tr, const Instrumented& circ,
                    const CmlTechnology& tech, double t0, double t1) {
  Measured m;
  const DiffPort& primary = circ.stage_outs.back();
  auto pdiff = tr.Differential(primary.p_name, primary.n_name).Window(t0, t1);
  m.primary_swing = pdiff.Max() - pdiff.Min();
  // Delay: fixed-reference crossings of the single-ended primary output vs
  // the input, as the paper's Table 1 measures.
  auto in_cross = waveform::Crossings(tr.Voltage(circ.input.p_name),
                                      tech.v_mid(), waveform::Edge::kRising);
  auto out_cross = waveform::Crossings(tr.Voltage(primary.p_name),
                                       tech.v_mid(), waveform::Edge::kRising);
  // Restrict to the measurement window.
  auto in_window = std::vector<double>{};
  for (double t : in_cross)
    if (t >= t0 && t <= t1) in_window.push_back(t);
  m.num_crossings = 0;
  for (double t : out_cross)
    if (t >= t0 && t <= t1) ++m.num_crossings;
  m.median_delay = Median(waveform::EdgeDelays(in_window, out_cross));
  m.toggling = m.num_crossings > 0 && pdiff.Max() > 0 && pdiff.Min() < 0;

  m.min_detector_vout = 1e9;
  for (const auto& v : circ.detector_vouts) {
    const double vmin = tr.Voltage(v).Window(t0, t1).Min();
    m.detector_vouts.push_back(vmin);
    m.min_detector_vout = std::min(m.min_detector_vout, vmin);
  }
  for (const auto& port : circ.stage_outs) {
    auto d = tr.Differential(port.p_name, port.n_name).Window(t0, t1);
    m.max_gate_amplitude =
        std::max({m.max_gate_amplitude, std::fabs(d.Max()), std::fabs(d.Min())});
  }
  // Iddq-style observation: mean magnitude of the main supply current.
  auto idd = tr.BranchCurrent("Vvgnd").Window(t0, t1);
  m.supply_current = std::fabs(idd.Mean());
  return m;
}

/// "no-effect" -> "no_effect" etc. — metric segments use underscores.
std::string ClassMetricSlug(FaultClass c) {
  std::string slug(FaultClassName(c));
  std::replace(slug.begin(), slug.end(), '-', '_');
  return slug;
}

struct ScreeningMetrics {
  util::telemetry::Counter campaigns =
      util::telemetry::GetCounter("core.screening.campaigns");
  util::telemetry::Counter defects_screened =
      util::telemetry::GetCounter("core.screening.defects_screened");
  util::telemetry::Counter unresolved =
      util::telemetry::GetCounter("core.screening.unresolved");
  util::telemetry::Timer wall = util::telemetry::GetTimer("core.screening.wall");
  util::telemetry::Timer reference_wall =
      util::telemetry::GetTimer("core.screening.reference_wall");
  /// Indexed by FaultClass: outcome tallies and per-class wall time.
  std::vector<util::telemetry::Counter> class_counts;
  std::vector<util::telemetry::Timer> class_wall;
  ScreeningMetrics() {
    for (int c = 0; c < kNumFaultClasses; ++c) {
      const std::string slug = ClassMetricSlug(static_cast<FaultClass>(c));
      class_counts.push_back(
          util::telemetry::GetCounter("core.screening.class." + slug));
      class_wall.push_back(
          util::telemetry::GetTimer("core.screening.class_wall." + slug));
    }
  }
};

const ScreeningMetrics& Metrics() {
  static const ScreeningMetrics m;
  return m;
}
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const ScreeningMetrics& kEagerRegistration = Metrics();

}  // namespace

std::string_view FaultClassName(FaultClass c) {
  switch (c) {
    case FaultClass::kNoEffect: return "no-effect";
    case FaultClass::kLogicVisible: return "logic";
    case FaultClass::kDelayVisible: return "delay";
    case FaultClass::kIddqVisible: return "iddq";
    case FaultClass::kAmplitudeOnly: return "amplitude-only";
    case FaultClass::kCatastrophic: return "catastrophic";
    case FaultClass::kUnresolved: return "unresolved";
  }
  return "?";
}

FaultClass DefectOutcome::Classify() const {
  if (!converged) {
    return no_bias_point ? FaultClass::kCatastrophic : FaultClass::kUnresolved;
  }
  if (logic_fail) return FaultClass::kLogicVisible;
  if (delay_fail) return FaultClass::kDelayVisible;
  if (iddq_fail) return FaultClass::kIddqVisible;
  if (amplitude_detected) return FaultClass::kAmplitudeOnly;
  return FaultClass::kNoEffect;
}

int ScreeningReport::CountClass(FaultClass c) const {
  int n = 0;
  for (const auto& o : outcomes)
    if (o.Classify() == c) ++n;
  return n;
}

double ScreeningReport::ConventionalCoverage() const {
  if (outcomes.empty()) return 0.0;
  const int detected = CountClass(FaultClass::kLogicVisible) +
                       CountClass(FaultClass::kDelayVisible) +
                       CountClass(FaultClass::kIddqVisible) +
                       CountClass(FaultClass::kCatastrophic);
  return static_cast<double>(detected) / total();
}

double ScreeningReport::CombinedCoverage() const {
  if (outcomes.empty()) return 0.0;
  return ConventionalCoverage() +
         static_cast<double>(CountClass(FaultClass::kAmplitudeOnly)) / total();
}

std::vector<defects::Defect> ScreeningUniverse(const ScreeningOptions& options) {
  Instrumented circ = BuildInstrumentedChain(options);
  // Enumerate over the *uninstrumented* device set: detectors and the
  // fault-injection artifacts are excluded.
  defects::EnumerationOptions eopt = options.enumeration;
  eopt.exclude_prefixes.push_back("det");
  return defects::EnumerateDefects(circ.nl, eopt);
}

util::StatusOr<ScreeningReport> ScreenBufferChain(
    const ScreeningOptions& options, campaign::WorkSource* source,
    campaign::Sink* sink) {
  const ScreeningMetrics& metrics = Metrics();
  metrics.campaigns.Increment();
  util::telemetry::ScopedTimer campaign_span(metrics.wall);
  CmlTechnology tech;
  Instrumented circ = BuildInstrumentedChain(options);
  CMLDFT_RETURN_IF_ERROR(SetTestMode(circ.nl, /*test_mode=*/true,
                                     options.detector.vtest_test_mode,
                                     tech.vgnd));

  sim::TransientOptions topts;
  topts.tstop = options.sim_time;
  topts.dc.newton.hierarchical = options.hierarchical;
  topts.dc.newton.hier_share_quantum = options.hier_share_quantum;
  const double t0 = options.sim_time * 0.5;
  const double t1 = options.sim_time;

  util::StatusOr<sim::TransientResult> ref_run = [&] {
    util::telemetry::ScopedTimer ref_span(metrics.reference_wall);
    return sim::RunTransient(circ.nl, topts);
  }();
  if (!ref_run.ok()) {
    return util::Status::Internal("fault-free reference failed to simulate: " +
                                  ref_run.status().message());
  }
  const Measured ref = MeasureRun(*ref_run, circ, tech, t0, t1);

  // Enumerate over the *uninstrumented* device set: detectors and the
  // fault-injection artifacts are excluded.
  defects::EnumerationOptions eopt = options.enumeration;
  eopt.exclude_prefixes.push_back("det");
  const std::vector<defects::Defect> universe =
      defects::EnumerateDefects(circ.nl, eopt);

  // Campaign seams: the source narrows the universe to this process's
  // shard/resume subset; the sink makes each outcome durable as it lands.
  // Unit ids are indices into the stable enumeration order above.
  std::vector<uint64_t> selected;
  selected.reserve(universe.size());
  if (source != nullptr) {
    CMLDFT_RETURN_IF_ERROR(source->BeginUniverse(universe.size()));
    for (uint64_t id = 0; id < universe.size(); ++id) {
      if (source->ShouldRun(id)) selected.push_back(id);
    }
  } else {
    for (uint64_t id = 0; id < universe.size(); ++id) selected.push_back(id);
  }

  ScreeningReport report;
  report.nominal_swing = ref.primary_swing;
  report.reference_delay = ref.median_delay;
  report.reference_detector_vout = ref.min_detector_vout;
  report.reference_supply_current = ref.supply_current;
  report.reference_detector_vouts = ref.detector_vouts;

  if (sink != nullptr) {
    CMLDFT_RETURN_IF_ERROR(sink->EmitReference(report));
  }

  // Defect runs are embarrassingly parallel: each one copies the netlist,
  // injects its defect, and simulates a private MnaSystem. The shared
  // inputs (circ, ref, options) are read-only, and every worker writes
  // only its own outcome slot, so the sweep is deterministic for any
  // thread count.
  std::vector<util::Status> inject_errors(selected.size(), util::Status::Ok());
  std::vector<util::Status> sink_errors(selected.size(), util::Status::Ok());
  report.outcomes = util::ParallelMap<DefectOutcome>(
      selected.size(),
      [&](size_t d) {
        const auto start = std::chrono::steady_clock::now();
        const uint64_t unit_id = selected[d];
        DefectOutcome outcome;
        outcome.defect = universe[static_cast<size_t>(unit_id)];
        auto faulty = defects::WithDefect(circ.nl, outcome.defect);
        if (!faulty.ok()) {
          inject_errors[d] = faulty.status();
          return outcome;
        }
        auto run = sim::RunTransient(*faulty, topts);
        if (run.ok()) {
          outcome.converged = true;
          const Measured m = MeasureRun(*run, circ, tech, t0, t1);
          outcome.logic_fail =
              !m.toggling ||
              m.primary_swing < options.logic_swing_fraction * ref.primary_swing ||
              m.num_crossings * 2 < ref.num_crossings;
          outcome.delay_fail = !outcome.logic_fail &&
                               std::fabs(m.median_delay - ref.median_delay) >
                                   options.delay_threshold;
          outcome.iddq_fail = std::fabs(m.supply_current - ref.supply_current) >
                              options.iddq_fraction * ref.supply_current;
          outcome.supply_current = m.supply_current;
          outcome.amplitude_detected =
              m.min_detector_vout < ref.min_detector_vout - options.detector_drop;
          outcome.max_gate_amplitude = m.max_gate_amplitude;
          outcome.min_detector_vout = m.min_detector_vout;
          outcome.detector_vouts = m.detector_vouts;
        } else {
          // Never drop a failed run on the floor: keep the solver error, and
          // probe the DC operating point to split "the defect destroyed the
          // bias" (catastrophic, a real detection) from "the transient
          // stalled" (unresolved, a simulator artifact that must not be
          // credited as coverage).
          outcome.error = run.status().ToString();
          outcome.no_bias_point = !sim::SolveDc(*faulty, topts.dc).ok();
          if (!outcome.no_bias_point) metrics.unresolved.Increment();
        }
        const auto c = static_cast<size_t>(outcome.Classify());
        metrics.defects_screened.Increment();
        metrics.class_counts[c].Increment();
        metrics.class_wall[c].RecordSeconds(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count());
        if (sink != nullptr) sink_errors[d] = sink->Emit(unit_id, outcome);
        return outcome;
      },
      options.threads);
  for (const util::Status& st : inject_errors) {
    if (!st.ok()) return st;
  }
  for (const util::Status& st : sink_errors) {
    if (!st.ok()) return st;
  }
  return report;
}

}  // namespace cmldft::core
