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
  util::telemetry::Counter sweep_halvings =
      util::telemetry::GetCounter("sim.dc.sweep_halvings");
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
/// Step halvings a DC sweep may spend approaching a point whose own
/// homotopy failed, starting from the last converged point.
constexpr int kMaxSweepHalvings = 3;

/// Approach sweep value `to` from `x`, the solution at the last converged
/// sweep value `from`, after the solve at `to` itself failed. Each failure
/// halves the step, at most kMaxSweepHalvings times; the intermediate
/// points are solved but not reported.
util::StatusOr<internal::HomotopyResult> ApproachByHalving(
    MnaSystem& mna, devices::VSource& src, const DcOptions& options,
    double from, double to, linalg::Vector x) {
  constexpr int kGrid = 1 << kMaxSweepHalvings;
  int pos = 0;  // `x` solves the point from + (to - from) * pos / kGrid
  util::Status failure;
  for (int stride = kGrid / 2; stride > 0; stride /= 2) {
    internal::Metrics().sweep_halvings.Increment();
    for (;;) {
      const int next = pos + stride;
      src.set_waveform(devices::Waveform::Dc(
          next == kGrid ? to : from + (to - from) * next / kGrid));
      auto hr = internal::SolveDcHomotopy(mna, options, x);
      if (!hr.ok()) {
        failure = hr.status();
        break;
      }
      if (next == kGrid) return hr;
      x = std::move(hr).value().newton.solution;
      pos = next;
    }
  }
  return failure;
}

DcResult PackResult(const MnaSystem& mna, const NewtonResult& nr,
                    int homotopy_stages) {
  // The unknowns: node n's voltage at n - 1, then the branch currents.
  const auto branches = nr.solution.begin() + mna.num_node_unknowns();
  DcResult out;
  out.newton_iterations = nr.iterations;
  out.homotopy_stages = homotopy_stages;
  out.node_voltages.reserve(static_cast<size_t>(mna.num_node_unknowns()) + 1);
  out.node_voltages.push_back(0.0);  // ground
  out.node_voltages.insert(out.node_voltages.end(), nr.solution.begin(),
                           branches);
  out.branch_currents.assign(branches, nr.solution.end());
  return out;
}

/// DcSweepVSource's points: `src`, a source of the netlist `mna` stamps,
/// takes each value in turn and is left at the last one tried.
util::StatusOr<std::vector<DcSweepPoint>> SweepPoints(
    MnaSystem& mna, devices::VSource& src, const std::vector<double>& values,
    const DcOptions& options) {
  std::vector<DcSweepPoint> out;
  out.reserve(values.size());
  // The last converged solution (flat 0 V before the first point).
  linalg::Vector guess(static_cast<size_t>(mna.num_unknowns()), 0.0);
  for (double v : values) {
    src.set_waveform(devices::Waveform::Dc(v));
    auto hr = internal::SolveDcHomotopy(mna, options, guess);
    if (!hr.ok() && !out.empty()) {
      hr = ApproachByHalving(mna, src, options, out.back().sweep_value, v,
                             guess);
    }
    if (!hr.ok()) {
      return util::Status::NoConvergence(
          util::StrPrintf("sweep point %s=%.6g: %s", src.name().c_str(), v,
                          hr.status().message().c_str()));
    }
    guess = hr.value().newton.solution;
    out.push_back({v, PackResult(mna, hr.value().newton, hr.value().stages)});
  }
  return out;
}

}  // namespace

double DcResult::V(const netlist::Netlist& nl,
                   const std::string& node_name) const {
  const netlist::NodeId id = nl.FindNode(node_name);
  assert(id != netlist::kInvalidNode && "unknown node name");
  return node_voltages.at(static_cast<size_t>(id));
}

util::StatusOr<double> DcResult::BranchCurrent(
    const netlist::Netlist& nl, const std::string& device_name) const {
  const netlist::Device* dev = nl.FindDevice(device_name);
  if (dev == nullptr || dev->num_branches() == 0) {
    return util::Status::NotFound("no device with a branch current named '" +
                                  device_name + "'");
  }
  size_t index = 0;
  for (int i = 0; i < dev->ordinal(); ++i) index += nl.device(i).num_branches();
  if (index >= branch_currents.size()) {
    return util::Status::InvalidArgument("'" + device_name +
                                         "' is not in the netlist solved");
  }
  return branch_currents[index];
}

util::StatusOr<DcResult> SolveDc(const netlist::Netlist& netlist,
                                 const DcOptions& options,
                                 const std::vector<double>& initial_guess) {
  MnaSystem mna(netlist);
  mna.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
  mna.set_temperature(options.temperature_k);
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
    netlist::Netlist& netlist, const std::string& vsource_name,
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
  mna.set_time(0.0);
  mna.set_dt(0.0);

  const devices::Waveform saved = vsrc->waveform();
  auto points = SweepPoints(mna, *vsrc, values, options);
  vsrc->set_waveform(saved);
  return points;
}

}  // namespace cmldft::sim
