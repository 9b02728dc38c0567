#include "bench/paper_bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace cmldft::bench {

const std::vector<std::string> kChainNames = {
    "x11", "x22", "dut", "x33", "x44", "x55", "x66", "x77"};
const std::vector<std::string> kOutputLabels = {
    "op1", "a", "op", "op3", "op4", "op5", "op6", "op7"};

PaperChain MakePaperChain(double frequency) {
  PaperChain chain;
  cml::CellBuilder cells(chain.nl, chain.tech);
  chain.input = cells.AddDifferentialClock("va", frequency);
  chain.outs =
      cells.AddBufferChain("x", chain.input, static_cast<int>(kChainNames.size()),
                           kChainNames);
  return chain;
}

defects::Defect DutPipe(double resistance) {
  defects::Defect d;
  d.type = defects::DefectType::kTransistorPipe;
  d.device = "dut.q3";
  d.terminal_a = 0;
  d.terminal_b = 2;
  d.resistance = resistance;
  return d;
}

netlist::Netlist WithDutPipe(const PaperChain& chain, double resistance) {
  auto faulty = defects::WithDefect(chain.nl, DutPipe(resistance));
  if (!faulty.ok()) {
    std::fprintf(stderr, "defect injection failed: %s\n",
                 faulty.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(faulty).value();
}

sim::TransientResult MustRunTransient(const netlist::Netlist& nl,
                                      const sim::TransientOptions& opts) {
  auto r = sim::RunTransient(nl, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "transient failed: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

DetectorPoint RunDetectorPoint(int variant, double frequency,
                               double pipe_resistance, double window,
                               const core::DetectorOptions& dopt) {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const cml::DiffPort in = cells.AddDifferentialClock("va", frequency);
  const cml::DiffPort o0 = cells.AddBuffer("x0", in);
  const cml::DiffPort dut = cells.AddBuffer("dut", o0);
  cells.AddBuffer("x1", dut);
  core::DetectorBuilder det(cells, dopt);
  const std::string vout_name = variant == 1 ? det.AttachVariant1("det", dut)
                                             : det.AttachVariant2("det", dut);
  netlist::Netlist target = nl;
  if (pipe_resistance > 0.0) {
    auto faulty = defects::WithDefect(nl, DutPipe(pipe_resistance));
    if (!faulty.ok()) {
      std::fprintf(stderr, "inject: %s\n", faulty.status().ToString().c_str());
      std::exit(1);
    }
    target = std::move(faulty).value();
  }
  if (variant == 2) {
    (void)core::SetTestMode(target, true, dopt.vtest_test_mode, tech.vgnd);
  }
  sim::TransientOptions opts;
  opts.tstop = window;
  auto r = MustRunTransient(target, opts);

  DetectorPoint point;
  point.frequency = frequency;
  point.pipe = pipe_resistance;
  auto diff = r.Differential(dut.p_name, dut.n_name).Window(window * 0.25, window);
  point.amplitude = std::max(std::abs(diff.Max()), std::abs(diff.Min()));
  auto vout = r.Voltage(vout_name);
  point.response = waveform::MeasureDetectorResponse(vout);
  point.fired = vout.Min() < tech.vgnd - 0.1;
  return point;
}

std::vector<report::Column> DetectorPointColumns() {
  using report::Tol;
  return {
      {"load", Tol::Exact()},
      {"pipe", Tol::Exact()},
      {"freq", "MHz", Tol::Exact()},
      {"amplitude", "V", Tol::Abs(0.05)},
      {"fired", Tol::Exact()},
      {"tstability", "ns", Tol::Rel(0.15, 1.0)},
      {"Vmax", "V", Tol::Abs(0.05)},
  };
}

void AddDetectorPointRow(report::Table& table, double load_cap, double pipe,
                         const DetectorPoint& pt) {
  table.NewRow()
      .Str(util::FormatEngineering(load_cap, "F"))
      .Str(util::FormatEngineering(pipe))
      .Num("%.0f", pt.frequency / 1e6)
      .Num("%.2f", pt.amplitude)
      .Str(pt.fired ? "yes" : "no");
  if (pt.fired) {
    table.Num("%.0f", pt.response.t_stability * 1e9);
  } else {
    table.Str(">window");
  }
  table.Num("%.3f", pt.response.vmax);
}

CoverageComparisonSummary FillCoverageComparisonReport(
    const core::ScreeningReport& screening, const core::ScreeningOptions& opt,
    report::Report& rep) {
  using report::Tol;
  CoverageComparisonSummary out;

  // Iddq realism: CML draws large static bias current by design ("current
  // steering ... irrespective of circuit activity"), so a defect's extra
  // milliamp is resolvable against a small block but vanishes on a full
  // chip. Re-threshold the Iddq verdicts as if the block sat in a
  // 10,000-gate die with the same measurement resolution.
  constexpr double kChipGates = 10000.0;
  const double chain_gates = static_cast<double>(opt.chain_length);
  out.chip = screening;
  for (auto& o : out.chip.outcomes) {
    const double delta =
        std::abs(o.supply_current - screening.reference_supply_current);
    const double chip_quiescent =
        screening.reference_supply_current * (kChipGates / chain_gates);
    o.iddq_fail = delta > opt.iddq_fraction * chip_quiescent;
  }

  rep.AddScalar("nominal_swing", screening.nominal_swing, "V", Tol::Abs(0.02));
  rep.AddScalar("reference_delay_ps", screening.reference_delay * 1e12, "ps",
                Tol::Rel(0.1, 1.0));
  rep.AddScalar("reference_detector_vout", screening.reference_detector_vout,
                "V", Tol::Abs(0.02));

  // Per-defect detail (one line each). Classification is a discrete
  // verdict: exact. The analog columns are informational (they feed the
  // class, which is what we pin down).
  report::Table& table = rep.AddTable(
      "per_defect", {{"defect", Tol::Exact()},
                     {"class", Tol::Exact()},
                     {"gate amplitude", "V", Tol::Info()},
                     {"det vout", "V", Tol::Info()}});
  for (const auto& o : screening.outcomes) {
    table.NewRow()
        .Str(o.defect.Id())
        .Str(std::string(core::FaultClassName(o.Classify())))
        .Num("%.2f", o.max_gate_amplitude)
        .Num("%.2f", o.min_detector_vout);
  }
  out.per_defect = &table;

  rep.AddInt("defects_total", screening.total());
  rep.AddInt("chip_logic_visible",
             out.chip.CountClass(core::FaultClass::kLogicVisible));
  rep.AddInt("chip_delay_visible",
             out.chip.CountClass(core::FaultClass::kDelayVisible));
  rep.AddInt("chip_iddq_visible",
             out.chip.CountClass(core::FaultClass::kIddqVisible));
  rep.AddInt("chip_catastrophic",
             out.chip.CountClass(core::FaultClass::kCatastrophic));
  rep.AddInt("chip_amplitude_only",
             out.chip.CountClass(core::FaultClass::kAmplitudeOnly));
  rep.AddInt("chip_no_effect", out.chip.CountClass(core::FaultClass::kNoEffect));
  rep.AddInt("chip_unresolved",
             out.chip.CountClass(core::FaultClass::kUnresolved));

  rep.AddScalar("block_conventional_coverage_pct",
                screening.ConventionalCoverage() * 100, "%", Tol::Exact());
  rep.AddScalar("block_combined_coverage_pct",
                screening.CombinedCoverage() * 100, "%", Tol::Exact());
  rep.AddScalar("chip_conventional_coverage_pct",
                out.chip.ConventionalCoverage() * 100, "%", Tol::Exact());
  rep.AddScalar("chip_combined_coverage_pct", out.chip.CombinedCoverage() * 100,
                "%", Tol::Exact());

  // Localization bonus: per-gate detectors don't just flag the die, they
  // name the faulty gate.
  out.localization = core::EvaluateLocalization(screening);
  rep.AddInt("localization_correct", out.localization.correct);
  rep.AddInt("localization_localizable", out.localization.localizable);
  return out;
}

}  // namespace cmldft::bench
