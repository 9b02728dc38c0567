#include "core/characterize.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "cml/builder.h"
#include "core/response_model.h"
#include "defects/defect.h"
#include "devices/sources.h"
#include "sim/dc.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft::core {

namespace {

struct CharacterizeMetrics {
  util::telemetry::Counter units =
      util::telemetry::GetCounter("characterize.units");
  util::telemetry::Counter excursion_probes =
      util::telemetry::GetCounter("characterize.excursion_probes");
  util::telemetry::Counter hysteresis_measurements =
      util::telemetry::GetCounter("characterize.hysteresis_measurements");
  util::telemetry::Counter load_sharing_measurements =
      util::telemetry::GetCounter("characterize.load_sharing_measurements");
  util::telemetry::Counter measure_failures =
      util::telemetry::GetCounter("characterize.measure_failures");
};

const CharacterizeMetrics& Metrics() {
  static const CharacterizeMetrics m;
  return m;
}

// Telemetry schema is code-path-independent: registration happens at load
// time, not first measurement (see docs/observability.md).
[[maybe_unused]] const CharacterizeMetrics& kEagerRegistration = Metrics();

// Force the vtest rail to a DC value (DC analyses use t=0 waveform values,
// so the transient-entry PWL from SetTestMode is not appropriate here).
util::Status SetVtestDc(netlist::Netlist& nl, double value) {
  netlist::Device* dev = nl.FindDevice("Vvtest");
  if (dev == nullptr || dev->kind() != "vsource") {
    return util::Status::NotFound("netlist has no Vvtest source");
  }
  static_cast<devices::VSource*>(dev)->set_waveform(
      devices::Waveform::Dc(value));
  return util::Status::Ok();
}

// The paper's Figure 1 bias comes from an "environment independent voltage
// generator": model it by retuning Vbias so the tail current holds at the
// measurement temperature. At the nominal temperature this rewrites the
// same value CellBuilder installed, so legacy measurements are unchanged.
void RetuneBias(netlist::Netlist& nl, const cml::CmlTechnology& tech,
                double temp_k) {
  netlist::Device* dev = nl.FindDevice("Vbias");
  if (dev != nullptr && dev->kind() == "vsource") {
    static_cast<devices::VSource*>(dev)->set_waveform(
        devices::Waveform::Dc(tech.bias_voltage(temp_k)));
  }
}

sim::DcOptions DcAt(double temp_k) {
  sim::DcOptions dc;
  dc.temperature_k = temp_k;
  return dc;
}

}  // namespace

util::StatusOr<Hysteresis> MeasureComparatorHysteresis(
    const DetectorOptions& options, double vtest, double step) {
  return MeasureComparatorHysteresis(CharacterizationConditions{}, options,
                                     vtest, step);
}

util::StatusOr<Hysteresis> MeasureComparatorHysteresis(
    const CharacterizationConditions& conditions, const DetectorOptions& options,
    double vtest, double step) {
  Metrics().hysteresis_measurements.Increment();
  netlist::Netlist nl;
  const cml::CmlTechnology& tech = conditions.tech;
  cml::CellBuilder cells(nl, tech);
  DetectorBuilder det(cells, options);
  SharedLoad load = det.AddSharedLoad("det");
  CMLDFT_RETURN_IF_ERROR(SetVtestDc(nl, vtest));
  RetuneBias(nl, tech, conditions.temperature_k);
  // Ideal source driving the shared vout bus.
  const netlist::NodeId vout_node = nl.FindNode(load.vout_name);
  nl.AddDevice(std::make_unique<devices::VSource>(
      "Vsweep", vout_node, netlist::kGroundNode,
      devices::Waveform::Dc(tech.vgnd)));

  // Up sweep then down sweep in one continuation run.
  std::vector<double> values;
  const double lo = tech.vgnd;
  for (double v = lo; v <= vtest + 1e-9; v += step) values.push_back(v);
  const size_t up_count = values.size();
  for (double v = vtest; v >= lo - 1e-9; v -= step) values.push_back(v);

  CMLDFT_ASSIGN_OR_RETURN(
      auto sweep, sim::DcSweepVSource(nl, "Vsweep", values,
                                      DcAt(conditions.temperature_k)));

  // The comparator is in the "pass" state when co is within a quarter swing
  // of vtest (QB off).
  auto pass_state = [&](const sim::DcResult& r) {
    return r.V(nl, load.comp_out_name) >
           vtest - 0.25 * options.comparator_tail * options.comparator_rc;
  };

  Hysteresis h;
  bool found_up = false, found_down = false;
  for (size_t i = 1; i < up_count; ++i) {
    if (!pass_state(sweep[i - 1].result) && pass_state(sweep[i].result)) {
      h.trip_up = sweep[i].sweep_value;
      h.vfb_fail = sweep[i - 1].result.V(nl, load.vfb_name);
      found_up = true;
      break;
    }
  }
  for (size_t i = up_count + 1; i < sweep.size(); ++i) {
    if (pass_state(sweep[i - 1].result) && !pass_state(sweep[i].result)) {
      h.trip_down = sweep[i].sweep_value;
      h.vfb_pass = sweep[i - 1].result.V(nl, load.vfb_name);
      found_down = true;
      break;
    }
  }
  if (!found_up || !found_down) {
    return util::Status::Internal(util::StrPrintf(
        "hysteresis not found (up=%d down=%d) - comparator may be stuck",
        found_up, found_down));
  }
  return h;
}

util::StatusOr<LoadSharingPoint> MeasureLoadSharing(
    int num_gates, const DetectorOptions& options, double vtest,
    double pipe_on_gate0) {
  return MeasureLoadSharing(num_gates, CharacterizationConditions{}, options,
                            vtest, pipe_on_gate0);
}

util::StatusOr<LoadSharingPoint> MeasureLoadSharing(
    int num_gates, const CharacterizationConditions& conditions,
    const DetectorOptions& options, double vtest, double pipe_on_gate0) {
  Metrics().load_sharing_measurements.Increment();
  if (num_gates < 1) {
    return util::Status::InvalidArgument("num_gates must be >= 1");
  }
  netlist::Netlist nl;
  const cml::CmlTechnology& tech = conditions.tech;
  cml::CellBuilder cells(nl, tech);
  // Static chain: DC input, every stage output tapped onto one shared load.
  const cml::DiffPort in = cells.AddDifferentialDc("va", true);
  const auto outs = cells.AddBufferChain("x", in, num_gates);
  DetectorBuilder det(cells, options);
  SharedLoad load = det.AddSharedLoad("det");
  for (int i = 0; i < num_gates; ++i) {
    det.AttachTap(load, util::StrPrintf("tap%d", i),
                  outs[static_cast<size_t>(i)]);
  }
  RetuneBias(nl, tech, conditions.temperature_k);
  if (pipe_on_gate0 > 0.0) {
    defects::Defect d;
    d.type = defects::DefectType::kTransistorPipe;
    d.device = "x0.q3";
    d.terminal_a = 0;
    d.terminal_b = 2;
    d.resistance = pipe_on_gate0;
    CMLDFT_RETURN_IF_ERROR(defects::InjectDefect(nl, d));
  }
  // Enter test mode by DC continuation: sweep vtest from vgnd to `vtest`
  // so the comparator follows the physical branch, exactly like the ramped
  // transient entry.
  std::vector<double> ramp;
  for (double v = tech.vgnd; v < vtest; v += 0.05) ramp.push_back(v);
  ramp.push_back(vtest);
  CMLDFT_ASSIGN_OR_RETURN(
      auto sweep, sim::DcSweepVSource(nl, "Vvtest", ramp,
                                      DcAt(conditions.temperature_k)));
  const sim::DcResult& final_point = sweep.back().result;

  LoadSharingPoint point;
  point.num_gates = num_gates;
  point.vout = final_point.V(nl, load.vout_name);
  point.vfb = final_point.V(nl, load.vfb_name);
  point.comp_out = final_point.V(nl, load.comp_out_name);
  point.flagged =
      point.comp_out < vtest - 0.25 * options.comparator_tail * options.comparator_rc;
  return point;
}

util::StatusOr<ExcursionProbe> MeasureDetectableExcursion(
    int variant, const CharacterizationConditions& conditions,
    const DetectorOptions& options, double vtest, double probe_max,
    double probe_step) {
  Metrics().excursion_probes.Increment();
  if (variant != 1 && variant != 2) {
    return util::Status::InvalidArgument(
        "excursion probe supports detector variants 1 and 2, got " +
        std::to_string(variant));
  }
  if (probe_step <= 0.0 || probe_max <= 0.0) {
    return util::Status::InvalidArgument(
        "probe_max and probe_step must be positive");
  }
  netlist::Netlist nl;
  const cml::CmlTechnology& tech = conditions.tech;
  cml::CellBuilder cells(nl, tech);
  // Ideal differential pair: op pinned at vgnd, opb pulled down by the
  // swept excursion source — the detector sees exactly the single-ended
  // excursion x with no gate dynamics in the way.
  const cml::DiffPort out = cells.PortOf("probe.op", "probe.opb");
  nl.AddDevice(std::make_unique<devices::VSource>(
      "Vop", out.p, netlist::kGroundNode, devices::Waveform::Dc(tech.vgnd)));
  nl.AddDevice(std::make_unique<devices::VSource>(
      "Vexc", out.n, netlist::kGroundNode, devices::Waveform::Dc(tech.vgnd)));
  DetectorBuilder det(cells, options);
  const std::string vout_name = variant == 1
                                    ? det.AttachVariant1("det", out)
                                    : det.AttachVariant2("det", out);
  if (variant == 2) {
    CMLDFT_RETURN_IF_ERROR(SetVtestDc(nl, vtest));
  }
  RetuneBias(nl, tech, conditions.temperature_k);

  std::vector<double> values;
  for (double x = 0.0; x <= probe_max + 1e-9; x += probe_step) {
    values.push_back(tech.vgnd - x);
  }
  CMLDFT_ASSIGN_OR_RETURN(
      auto sweep, sim::DcSweepVSource(nl, "Vexc", values,
                                      DcAt(conditions.temperature_k)));

  ExcursionProbe probe;
  probe.clean_drop = tech.vgnd - sweep.front().result.V(nl, vout_name);
  probe.vout_at_max = sweep.back().result.V(nl, vout_name);
  for (const sim::DcSweepPoint& pt : sweep) {
    if (pt.result.V(nl, vout_name) < tech.vgnd - 0.1) {
      probe.threshold = tech.vgnd - pt.sweep_value;
      break;
    }
  }
  return probe;
}

// ---------------------------------------------------------------------------
// Corner × Monte-Carlo sweep.

CharacterizationCorner CornerAt(const CharacterizationConfig& config,
                                uint64_t corner_id) {
  CharacterizationCorner c;
  const uint64_t nv = config.vtests.size();
  const uint64_t ns = config.supplies.size();
  c.vtest = config.vtests[static_cast<size_t>(corner_id % nv)];
  c.supply = config.supplies[static_cast<size_t>((corner_id / nv) % ns)];
  c.temperature_c =
      config.temperatures_c[static_cast<size_t>(corner_id / (nv * ns))];
  return c;
}

std::vector<cml::CmlTechnology> CharacterizationDies(
    const CharacterizationConfig& config) {
  const cml::CmlTechnology nominal;
  util::Rng rng(config.seed);
  // Trial-major pre-draw (one "gate" per die): the draw stream depends on
  // config alone, never on which unit asks — the determinism property
  // tests/determinism_test.cc pins.
  const auto trials = cml::SampleTrialTechnologies(nominal, config.variation,
                                                   config.trials, 1, rng);
  std::vector<cml::CmlTechnology> dies;
  dies.reserve(trials.size());
  for (const auto& t : trials) dies.push_back(t.front());
  return dies;
}

util::StatusOr<CharacterizationUnitResult> EvaluateCharacterizationUnit(
    const CharacterizationConfig& config, uint64_t unit_id) {
  if (unit_id >= config.unit_count()) {
    return util::Status::InvalidArgument(
        "characterization unit " + std::to_string(unit_id) +
        " outside the universe of " + std::to_string(config.unit_count()));
  }
  Metrics().units.Increment();
  const uint64_t dies_per_corner = static_cast<uint64_t>(config.trials) + 1;
  CharacterizationUnitResult u;
  u.corner = static_cast<uint32_t>(unit_id / dies_per_corner);
  u.die = static_cast<uint32_t>(unit_id % dies_per_corner);
  const CharacterizationCorner corner = CornerAt(config, u.corner);

  cml::CmlTechnology tech;
  if (u.die > 0) {
    tech = CharacterizationDies(config)[u.die - 1];
  }
  // The supply corner applies on top of the sampled die: same silicon,
  // different board conditions.
  tech.vgnd = corner.supply;
  const CharacterizationConditions cond{tech, corner.temperature_c + 273.15};

  DetectorOptions dopt;
  dopt.npn = tech.npn;  // sampled IS/beta flows into the detector devices
  dopt.vtest_test_mode = corner.vtest;

  auto v1 = MeasureDetectableExcursion(1, cond, dopt, corner.vtest,
                                       config.probe_max, config.probe_step);
  if (v1.ok()) {
    u.v1_static_excursion = v1->threshold;
  } else {
    u.measure_failures |= 1u << 0;
  }
  auto v2 = MeasureDetectableExcursion(2, cond, dopt, corner.vtest,
                                       config.probe_max, config.probe_step);
  if (v2.ok()) {
    u.v2_static_excursion = v2->threshold;
    u.v2_clean_drop = v2->clean_drop;
  } else {
    u.measure_failures |= 1u << 1;
  }

  DetectorOptions dyn = dopt;
  dyn.load_cap = config.response_load_cap;
  u.v2_dynamic_threshold = PredictDetectionThreshold(
      tech, dyn, config.response_window, 1.0, cond.temperature_k);

  auto hyst = MeasureComparatorHysteresis(cond, dopt, corner.vtest,
                                          config.hysteresis_step);
  if (hyst.ok()) {
    u.trip_up = hyst->trip_up;
    u.trip_down = hyst->trip_down;
    u.vfb_pass = hyst->vfb_pass;
    u.vfb_fail = hyst->vfb_fail;
    u.hysteresis_found = true;
  } else {
    u.measure_failures |= 1u << 2;
  }

  auto clean = MeasureLoadSharing(config.load_gates, cond, dopt, corner.vtest,
                                  0.0);
  if (clean.ok()) {
    u.load_clean_flagged = clean->flagged;
    u.load_clean_vout = clean->vout;
  } else {
    u.measure_failures |= 1u << 3;
  }
  auto pipe = MeasureLoadSharing(config.load_gates, cond, dopt, corner.vtest,
                                 config.load_pipe);
  if (pipe.ok()) {
    u.load_pipe_flagged = pipe->flagged;
    u.load_pipe_vout = pipe->vout;
  } else {
    u.measure_failures |= 1u << 4;
  }
  if (u.measure_failures != 0) Metrics().measure_failures.Increment();
  return u;
}

uint64_t CharacterizationFingerprint(const CharacterizationConfig& config) {
  util::ContentHasher h;
  h.Str("cmldft-characterize-v1");
  CharacterizationSuiteFields(h, config);
  return h.Digest();
}

void FillCharacterizationReport(
    const CharacterizationConfig& config,
    const std::vector<CharacterizationUnitResult>& units,
    report::Report& rep) {
  using report::Tol;
  report::Table& grid = rep.AddTable(
      "corner_grid", {{"corner", Tol::Exact()},
                      {"die", Tol::Exact()},
                      {"T", "C", Tol::Exact()},
                      {"supply", "V", Tol::Exact()},
                      {"vtest", "V", Tol::Exact()},
                      {"v1 static", "V", Tol::Abs(0.05)},
                      {"v2 static", "V", Tol::Abs(0.05)},
                      {"v2 dynamic", "V", Tol::Abs(0.05)},
                      {"hyst width", "mV", Tol::Abs(20.0)},
                      {"load clean", Tol::Exact()},
                      {"load pipe", Tol::Exact()},
                      {"failures", Tol::Exact()}});
  for (const CharacterizationUnitResult& u : units) {
    const CharacterizationCorner c = CornerAt(config, u.corner);
    grid.NewRow()
        .Int(u.corner)
        .Int(u.die)
        .Num("%.0f", c.temperature_c)
        .Num("%.2f", c.supply)
        .Num("%.2f", c.vtest)
        .Num("%.3f", u.v1_static_excursion)
        .Num("%.3f", u.v2_static_excursion)
        .Num("%.3f", u.v2_dynamic_threshold)
        .Num("%.1f", u.hysteresis_found ? (u.trip_up - u.trip_down) * 1e3
                                        : -1.0)
        .Str((u.measure_failures & (1u << 3))
                 ? "error"
                 : (u.load_clean_flagged ? "FALSE ALARM" : "pass"))
        .Str((u.measure_failures & (1u << 4))
                 ? "error"
                 : (u.load_pipe_flagged ? "DETECTED" : "missed"))
        .Int(u.measure_failures);
  }

  // Yield-vs-threshold surface: for each vtest corner, the fraction of
  // (corner, die) evaluations whose detectable excursion is at or below
  // each level — "what share of silicon catches an excursion this small".
  report::Table& yield = rep.AddTable(
      "yield_surface", {{"vtest", "V", Tol::Exact()},
                        {"excursion", "V", Tol::Exact()},
                        {"v1 static yield", "%", Tol::Abs(2.0)},
                        {"v2 static yield", "%", Tol::Abs(2.0)},
                        {"v2 dynamic yield", "%", Tol::Abs(2.0)}});
  const uint64_t nv = config.vtests.size();
  for (size_t vi = 0; vi < config.vtests.size(); ++vi) {
    for (double level : config.excursion_levels) {
      long long total = 0, v1_ok = 0, v2_ok = 0, v2dyn_ok = 0;
      for (const CharacterizationUnitResult& u : units) {
        if (u.corner % nv != vi) continue;
        ++total;
        if (u.v1_static_excursion >= 0.0 && u.v1_static_excursion <= level) {
          ++v1_ok;
        }
        if (u.v2_static_excursion >= 0.0 && u.v2_static_excursion <= level) {
          ++v2_ok;
        }
        if (u.v2_dynamic_threshold >= 0.0 && u.v2_dynamic_threshold <= level) {
          ++v2dyn_ok;
        }
      }
      const double denom = total == 0 ? 1.0 : static_cast<double>(total);
      yield.NewRow()
          .Num("%.2f", config.vtests[vi])
          .Num("%.2f", level)
          .Num("%.1f", 100.0 * v1_ok / denom)
          .Num("%.1f", 100.0 * v2_ok / denom)
          .Num("%.1f", 100.0 * v2dyn_ok / denom);
    }
  }

  // Worst-case detectable excursion per variant: the largest threshold any
  // evaluation needed (the corner a production test plan must budget for).
  double v1_worst = -1.0, v2_worst = -1.0, v2dyn_worst = -1.0;
  long long hysteresis_found = 0, false_alarms = 0, detections = 0;
  long long load_measured = 0, failed_units = 0;
  for (const CharacterizationUnitResult& u : units) {
    v1_worst = std::max(v1_worst, u.v1_static_excursion);
    v2_worst = std::max(v2_worst, u.v2_static_excursion);
    v2dyn_worst = std::max(v2dyn_worst, u.v2_dynamic_threshold);
    if (u.hysteresis_found) ++hysteresis_found;
    if (!(u.measure_failures & (1u << 3))) {
      ++load_measured;
      if (u.load_clean_flagged) ++false_alarms;
    }
    if (!(u.measure_failures & (1u << 4)) && u.load_pipe_flagged) ++detections;
    if (u.measure_failures != 0) ++failed_units;
  }
  rep.AddScalar("v1_static_worst_excursion", v1_worst, "V", Tol::Abs(0.05));
  rep.AddScalar("v2_static_worst_excursion", v2_worst, "V", Tol::Abs(0.05));
  rep.AddScalar("v2_dynamic_worst_threshold", v2dyn_worst, "V",
                Tol::Abs(0.05));
  rep.AddInt("hysteresis_found", hysteresis_found);
  rep.AddInt("load_false_alarms", false_alarms);
  rep.AddInt("load_pipe_detections", detections);
  rep.AddInt("load_measured", load_measured);
  rep.AddInt("units_with_failures", failed_units);

  // Nominal-silicon anchor at the paper's conditions (27 C, 3.3 V supply,
  // vtest 3.7 V), when the grid includes that corner: the variant-2
  // dynamic threshold here is the paper's ~0.35 V detection point, and the
  // hysteresis pair is Fig. 12's ~3.54/3.57 V.
  const uint64_t dies_per_corner = static_cast<uint64_t>(config.trials) + 1;
  for (const CharacterizationUnitResult& u : units) {
    const CharacterizationCorner c = CornerAt(config, u.corner);
    if (u.die != 0 || c.temperature_c != 27.0 || c.supply != 3.3 ||
        c.vtest != 3.7) {
      continue;
    }
    rep.AddScalar("v1_static_excursion_nominal", u.v1_static_excursion, "V",
                  Tol::Abs(0.05));
    rep.AddScalar("v2_static_excursion_nominal", u.v2_static_excursion, "V",
                  Tol::Abs(0.05));
    rep.AddScalar("v2_dynamic_threshold_nominal", u.v2_dynamic_threshold, "V",
                  Tol::Abs(0.05));
    if (u.hysteresis_found) {
      rep.AddScalar("hysteresis_trip_up_nominal", u.trip_up, "V",
                    Tol::Abs(0.02));
      rep.AddScalar("hysteresis_trip_down_nominal", u.trip_down, "V",
                    Tol::Abs(0.02));
    }
    break;
  }

  rep.AddInt("corners", static_cast<long long>(config.corner_count()));
  rep.AddInt("dies_per_corner", static_cast<long long>(dies_per_corner));
  rep.AddInt("units", static_cast<long long>(units.size()));
  rep.AddText("characterization_fingerprint",
              util::StrPrintf("%016llx",
                              static_cast<unsigned long long>(
                                  CharacterizationFingerprint(config))));
}

}  // namespace cmldft::core
