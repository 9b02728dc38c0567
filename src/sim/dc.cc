#include "sim/dc.h"

#include <cassert>
#include <cmath>

#include "devices/sources.h"
#include "sim/dc_internal.h"
#include "sim/mna.h"
#include "sim/newton.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft::sim {

namespace internal {

namespace {
/// Junction shunt conductance [S] of every solve but the gmin ladder's.
constexpr double kGmin = 1e-12;
/// gmin stepping ladder: start value and per-stage reduction factor.
constexpr double kGminStart = 1e-3;
constexpr double kGminReduction = 10.0;
/// Source-stepping stages used if gmin stepping also fails.
constexpr int kSourceSteps = 10;

// Stage counters mirror HomotopyResult::stages exactly: gmin_stages counts
// every ladder rung plus the ladder's final-polish solve, source_steps every
// source-ramp solve — so gmin_stages + source_steps sums DcResult::
// homotopy_stages over all successful solves (tested in telemetry_test.cc).
struct DcMetrics {
  util::telemetry::Counter solves = util::telemetry::GetCounter("sim.dc.solves");
  util::telemetry::Counter plain_newton_successes =
      util::telemetry::GetCounter("sim.dc.plain_newton_successes");
  util::telemetry::Counter gmin_stages =
      util::telemetry::GetCounter("sim.dc.gmin_stages");
  util::telemetry::Counter gmin_ladder_successes =
      util::telemetry::GetCounter("sim.dc.gmin_ladder_successes");
  util::telemetry::Counter source_steps =
      util::telemetry::GetCounter("sim.dc.source_steps");
  util::telemetry::Counter source_stepping_successes =
      util::telemetry::GetCounter("sim.dc.source_stepping_successes");
  util::telemetry::Counter failures =
      util::telemetry::GetCounter("sim.dc.failures");
  util::telemetry::Timer wall = util::telemetry::GetTimer("sim.dc.wall");
};
const DcMetrics& Metrics() {
  static const DcMetrics m;
  return m;
}
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const DcMetrics& kEagerRegistration = Metrics();
util::StatusOr<NewtonResult> TryNewton(MnaSystem& mna, double gmin,
                                       double source_scale,
                                       const linalg::Vector& guess,
                                       const NewtonOptions& newton) {
  mna.set_gmin(gmin);
  mna.set_source_scale(source_scale);
  return SolveNewton(mna, guess, newton);
}
}  // namespace

util::StatusOr<HomotopyResult> SolveDcHomotopy(MnaSystem& mna,
                                               const DcOptions& options,
                                               const linalg::Vector& guess) {
  const DcMetrics& metrics = Metrics();
  metrics.solves.Increment();
  util::telemetry::ScopedTimer span(metrics.wall);

  // Stage 0: plain Newton.
  auto plain = TryNewton(mna, kGmin, 1.0, guess, options.newton);
  if (plain.ok()) {
    metrics.plain_newton_successes.Increment();
    return HomotopyResult{std::move(plain).value(), 0};
  }
  CMLDFT_LOG(kDebug) << "DC plain newton failed: " << plain.status().ToString();

  // Stage 1: gmin stepping — converge with a large junction shunt, then
  // tighten stage by stage, each solution seeding the next.
  int stages = 0;
  {
    linalg::Vector x = guess;
    bool ladder_ok = true;
    for (double g = kGminStart; g >= kGmin; g /= kGminReduction) {
      auto r = TryNewton(mna, g, 1.0, x, options.newton);
      ++stages;
      metrics.gmin_stages.Increment();
      if (!r.ok()) {
        ladder_ok = false;
        break;
      }
      x = std::move(r).value().solution;
    }
    if (ladder_ok) {
      auto final_r = TryNewton(mna, kGmin, 1.0, x, options.newton);
      ++stages;
      metrics.gmin_stages.Increment();
      if (final_r.ok()) {
        metrics.gmin_ladder_successes.Increment();
        return HomotopyResult{std::move(final_r).value(), stages};
      }
    }
  }

  // Stage 2: source stepping — ramp all independent sources from zero.
  linalg::Vector x(static_cast<size_t>(mna.num_unknowns()), 0.0);
  for (int step = 1; step <= kSourceSteps; ++step) {
    const double alpha =
        static_cast<double>(step) / static_cast<double>(kSourceSteps);
    auto r = TryNewton(mna, kGmin, alpha, x, options.newton);
    ++stages;
    metrics.source_steps.Increment();
    if (!r.ok()) {
      metrics.failures.Increment();
      return util::Status::NoConvergence(util::StrPrintf(
          "DC failed: plain newton, gmin ladder and source stepping "
          "(stalled at alpha=%.2f): %s",
          alpha, r.status().message().c_str()));
    }
    x = std::move(r).value().solution;
  }
  auto final_r = TryNewton(mna, kGmin, 1.0, x, options.newton);
  if (!final_r.ok()) {
    metrics.failures.Increment();
    return final_r.status();
  }
  metrics.source_stepping_successes.Increment();
  return HomotopyResult{std::move(final_r).value(), stages};
}

}  // namespace internal

namespace {
DcResult PackResult(const MnaSystem& mna, const NewtonResult& nr,
                    int homotopy_stages) {
  const netlist::Netlist& nl = mna.netlist();
  DcResult out;
  out.newton_iterations = nr.iterations;
  out.homotopy_stages = homotopy_stages;
  out.node_voltages.assign(static_cast<size_t>(nl.num_nodes()), 0.0);
  for (netlist::NodeId n = 1; n < nl.num_nodes(); ++n) {
    out.node_voltages[static_cast<size_t>(n)] =
        nr.solution[static_cast<size_t>(mna.UnknownOfNode(n))];
  }
  nl.ForEachDevice([&](const netlist::Device& dev) {
    if (dev.num_branches() > 0) {
      out.source_currents[dev.name()] =
          nr.solution[static_cast<size_t>(mna.UnknownOfBranch(dev, 0))];
    }
  });
  return out;
}
}  // namespace

double DcResult::V(const netlist::Netlist& nl,
                   const std::string& node_name) const {
  const netlist::NodeId id = nl.FindNode(node_name);
  assert(id != netlist::kInvalidNode && "unknown node name");
  return node_voltages.at(static_cast<size_t>(id));
}

util::StatusOr<DcResult> SolveDc(const netlist::Netlist& netlist,
                                 const DcOptions& options,
                                 const std::vector<double>& initial_guess) {
  MnaSystem mna(netlist);
  mna.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
  mna.set_temperature(options.temperature_k);
  mna.set_initializing_state(true);
  mna.set_time(0.0);
  mna.set_dt(0.0);

  linalg::Vector guess(static_cast<size_t>(mna.num_unknowns()), 0.0);
  if (!initial_guess.empty()) {
    if (initial_guess.size() != guess.size()) {
      return util::Status::InvalidArgument("initial guess dimension mismatch");
    }
    guess = initial_guess;
  }
  auto hr = internal::SolveDcHomotopy(mna, options, guess);
  if (!hr.ok()) return hr.status();
  return PackResult(mna, hr.value().newton, hr.value().stages);
}

util::StatusOr<std::vector<DcSweepPoint>> DcSweepVSource(
    netlist::Netlist netlist, const std::string& vsource_name,
    const std::vector<double>& values, const DcOptions& options) {
  auto* dev = netlist.FindDevice(vsource_name);
  if (dev == nullptr || dev->kind() != "vsource") {
    return util::Status::NotFound("no voltage source named '" + vsource_name +
                                  "'");
  }
  auto* vsrc = static_cast<devices::VSource*>(dev);

  // One persistent MNA system gives continuation across sweep points
  // (crucial for tracing hysteresis branches in the right order).
  MnaSystem mna(netlist);
  mna.set_mode(netlist::AnalysisMode::kDcSweep);
  mna.set_temperature(options.temperature_k);
  mna.set_initializing_state(true);
  mna.set_time(0.0);
  mna.set_dt(0.0);

  std::vector<DcSweepPoint> out;
  out.reserve(values.size());
  linalg::Vector guess(static_cast<size_t>(mna.num_unknowns()), 0.0);
  bool have_guess = false;
  for (double v : values) {
    vsrc->set_waveform(devices::Waveform::Dc(v));
    auto hr = internal::SolveDcHomotopy(
        mna, options,
        have_guess ? guess
                   : linalg::Vector(static_cast<size_t>(mna.num_unknowns()), 0.0));
    if (!hr.ok()) {
      return util::Status::NoConvergence(
          util::StrPrintf("sweep point %s=%.6g: %s", vsource_name.c_str(), v,
                          hr.status().message().c_str()));
    }
    guess = hr.value().newton.solution;
    have_guess = true;
    out.push_back({v, PackResult(mna, hr.value().newton, hr.value().stages)});
  }
  return out;
}

}  // namespace cmldft::sim
