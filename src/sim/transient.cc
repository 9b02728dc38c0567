#include "sim/transient.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "devices/sources.h"
#include "sim/dc_internal.h"
#include "sim/mna.h"
#include "sim/newton.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft::sim {

namespace {
/// Smallest step [s]: a step that fails to converge at it stalls the run.
constexpr double kDtMin = 1e-16;
/// Grow dt by this factor when steps are comfortably small.
constexpr double kGrowthFactor = 1.5;
/// No step is longer than this fraction of the shortest source period, so
/// a periodic stimulus gets at least 20 steps per cycle.
constexpr double kMaxStepPeriodFraction = 0.05;

struct TranMetrics {
  util::telemetry::Counter runs = util::telemetry::GetCounter("sim.tran.runs");
  util::telemetry::Counter accepted_steps =
      util::telemetry::GetCounter("sim.tran.accepted_steps");
  util::telemetry::Counter rejected_steps =
      util::telemetry::GetCounter("sim.tran.rejected_steps");
  util::telemetry::Counter newton_rejections =
      util::telemetry::GetCounter("sim.tran.newton_rejections");
  util::telemetry::Counter voltage_step_rejections =
      util::telemetry::GetCounter("sim.tran.voltage_step_rejections");
  util::telemetry::Counter breakpoint_hits =
      util::telemetry::GetCounter("sim.tran.breakpoint_hits");
  util::telemetry::Counter failures =
      util::telemetry::GetCounter("sim.tran.failures");
  // Accepted step sizes, log-spaced decade edges in seconds; CML transients
  // live between ~10 fs (edge resolution) and ~1 ns (coast).
  util::telemetry::Histogram step_size = util::telemetry::GetHistogram(
      "sim.tran.step_size",
      {1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9});
  util::telemetry::Timer wall = util::telemetry::GetTimer("sim.tran.wall");
};
const TranMetrics& Metrics() {
  static const TranMetrics m;
  return m;
}
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const TranMetrics& kEagerRegistration = Metrics();

// Source waveforms collected once per analysis — the stepping loop asks
// for the next breakpoint on every step, and scanning all devices with
// string kind() comparisons each time is measurable on long transients.
std::vector<const devices::Waveform*> CollectSourceWaveforms(
    const netlist::Netlist& nl) {
  std::vector<const devices::Waveform*> out;
  nl.ForEachDevice([&](const netlist::Device& dev) {
    if (dev.kind() == "vsource") {
      out.push_back(&static_cast<const devices::VSource&>(dev).waveform());
    } else if (dev.kind() == "isource") {
      out.push_back(&static_cast<const devices::ISource&>(dev).waveform());
    }
  });
  return out;
}

// Earliest waveform corner strictly after `t` across the cached sources.
double NextSourceBreakpoint(const std::vector<const devices::Waveform*>& sources,
                            double t) {
  double next = std::numeric_limits<double>::infinity();
  for (const devices::Waveform* w : sources) {
    next = std::min(next, w->NextBreakpoint(t));
  }
  return next;
}
}  // namespace

TransientResult::TransientResult(std::vector<std::string> node_names,
                                 std::vector<std::string> branch_names)
    : node_names_(std::move(node_names)), branch_names_(std::move(branch_names)) {
  for (size_t i = 0; i < node_names_.size(); ++i) node_index_[node_names_[i]] = i;
  for (size_t i = 0; i < branch_names_.size(); ++i) branch_index_[branch_names_[i]] = i;
  node_values_.resize(node_names_.size());
  branch_values_.resize(branch_names_.size());
}

void TransientResult::Append(double t, const std::vector<double>& node_voltages,
                             const std::vector<double>& branch_currents) {
  assert(node_voltages.size() == node_values_.size());
  assert(branch_currents.size() == branch_values_.size());
  time_.push_back(t);
  for (size_t i = 0; i < node_voltages.size(); ++i) {
    node_values_[i].push_back(node_voltages[i]);
  }
  for (size_t i = 0; i < branch_currents.size(); ++i) {
    branch_values_[i].push_back(branch_currents[i]);
  }
}

bool TransientResult::HasNode(const std::string& node_name) const {
  return node_index_.count(node_name) > 0;
}

waveform::Trace TransientResult::Voltage(const std::string& node_name) const {
  auto it = node_index_.find(node_name);
  assert(it != node_index_.end() && "unknown node in transient result");
  waveform::Trace tr;
  tr.name = node_name;
  tr.time = time_;
  tr.value = node_values_[it->second];
  return tr;
}

waveform::Trace TransientResult::BranchCurrent(
    const std::string& device_name) const {
  auto it = branch_index_.find(device_name);
  assert(it != branch_index_.end() && "device has no branch current");
  waveform::Trace tr;
  tr.name = "I(" + device_name + ")";
  tr.time = time_;
  tr.value = branch_values_[it->second];
  return tr;
}

waveform::Trace TransientResult::Differential(const std::string& a,
                                              const std::string& b) const {
  waveform::Trace ta = Voltage(a);
  const waveform::Trace tb = Voltage(b);
  for (size_t i = 0; i < ta.value.size(); ++i) ta.value[i] -= tb.value[i];
  ta.name = a + "-" + b;
  return ta;
}

util::StatusOr<TransientResult> RunTransient(const netlist::Netlist& netlist,
                                             const TransientOptions& options) {
  if (options.tstop <= 0.0) {
    return util::Status::InvalidArgument("tstop must be positive");
  }
  const TranMetrics& metrics = Metrics();
  metrics.runs.Increment();
  util::telemetry::ScopedTimer span(metrics.wall);
  MnaSystem mna(netlist);
  mna.set_temperature(options.dc.temperature_k);
  mna.set_method(options.method);

  // --- t = 0 operating point (capacitor states seeded in place) ---------
  mna.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
  mna.set_initializing_state(true);
  mna.set_time(0.0);
  mna.set_dt(0.0);
  const linalg::Vector guess(static_cast<size_t>(mna.num_unknowns()), 0.0);
  auto op = internal::SolveDcHomotopy(mna, options.dc, guess);
  if (!op.ok()) {
    return util::Status::NoConvergence("transient t=0 operating point: " +
                                       op.status().message());
  }
  mna.RotateStates();

  // --- result bookkeeping ------------------------------------------------
  std::vector<std::string> node_names;
  node_names.reserve(static_cast<size_t>(netlist.num_nodes()));
  for (netlist::NodeId n = 0; n < netlist.num_nodes(); ++n) {
    node_names.push_back(netlist.NodeName(n));
  }
  std::vector<std::string> branch_names;
  netlist.ForEachDevice([&](const netlist::Device& dev) {
    if (dev.num_branches() > 0) branch_names.push_back(dev.name());
  });
  TransientResult result(std::move(node_names), std::move(branch_names));
  result.stats().dc_homotopy_stages = op.value().stages;
  result.stats().total_newton_iterations = op.value().newton.iterations;

  linalg::Vector x = op.value().newton.solution;
  // Recording buffers are hoisted out of the per-step lambda and the
  // branch-unknown index list is computed once: the per-step cost is a
  // couple of gather loops, not an allocation storm plus a device walk.
  std::vector<size_t> branch_unknowns;
  netlist.ForEachDevice([&](const netlist::Device& dev) {
    if (dev.num_branches() > 0) {
      branch_unknowns.push_back(static_cast<size_t>(mna.UnknownOfBranch(dev, 0)));
    }
  });
  std::vector<double> rec_nodes(static_cast<size_t>(netlist.num_nodes()), 0.0);
  std::vector<double> rec_branches(branch_unknowns.size(), 0.0);
  auto record = [&](double t, const linalg::Vector& sol) {
    for (netlist::NodeId n = 1; n < netlist.num_nodes(); ++n) {
      rec_nodes[static_cast<size_t>(n)] =
          sol[static_cast<size_t>(mna.UnknownOfNode(n))];
    }
    for (size_t i = 0; i < branch_unknowns.size(); ++i) {
      rec_branches[i] = sol[branch_unknowns[i]];
    }
    result.Append(t, rec_nodes, rec_branches);
  };
  record(0.0, x);

  // --- time stepping -----------------------------------------------------
  mna.set_mode(netlist::AnalysisMode::kTransient);
  mna.set_initializing_state(false);
  NewtonOptions newton = options.dc.newton;
  const std::vector<const devices::Waveform*> sources =
      CollectSourceWaveforms(netlist);
  double dt_ceiling = options.dt_max;
  for (const devices::Waveform* w : sources) {
    dt_ceiling = std::min(dt_ceiling, kMaxStepPeriodFraction * w->Period());
  }

  double t = 0.0;
  double dt = options.dt_initial;
  const int n_nodes = mna.num_node_unknowns();

  while (t < options.tstop - 1e-18) {
    dt = std::clamp(dt, kDtMin, dt_ceiling);
    // Do not step over the end time or a source corner; land on them.
    double dt_eff = std::min(dt, options.tstop - t);
    const double bp = NextSourceBreakpoint(sources, t);
    bool hit_breakpoint = false;
    if (bp < t + dt_eff) {
      dt_eff = bp - t;
      hit_breakpoint = true;
    }

    mna.set_time(t + dt_eff);
    mna.set_dt(dt_eff);
    auto solved = SolveNewton(mna, x, newton);
    if (!solved.ok()) {
      result.stats().rejected_steps++;
      result.stats().newton_rejections++;
      metrics.rejected_steps.Increment();
      metrics.newton_rejections.Increment();
      mna.ResetCurrentStates();
      if (dt_eff <= kDtMin * 1.001) {
        metrics.failures.Increment();
        return util::Status::NoConvergence(util::StrPrintf(
            "transient stalled at t=%.6g (dt=%.3g): %s", t, dt_eff,
            solved.status().message().c_str()));
      }
      dt = dt_eff / 4.0;
      continue;
    }
    result.stats().total_newton_iterations += solved.value().iterations;

    // Step-size control on max node-voltage change.
    double max_change = 0.0;
    for (int i = 0; i < n_nodes; ++i) {
      max_change = std::max(
          max_change, std::fabs(solved.value().solution[static_cast<size_t>(i)] -
                                x[static_cast<size_t>(i)]));
    }
    if (max_change > options.max_voltage_step && dt_eff > kDtMin * 1.001) {
      result.stats().rejected_steps++;
      result.stats().voltage_step_rejections++;
      metrics.rejected_steps.Increment();
      metrics.voltage_step_rejections.Increment();
      mna.ResetCurrentStates();
      dt = std::max(kDtMin,
                    dt_eff * 0.8 * options.max_voltage_step / max_change);
      continue;
    }

    // Accept.
    t += dt_eff;
    x = std::move(solved).value().solution;
    mna.RotateStates();
    record(t, x);
    result.stats().accepted_steps++;
    metrics.accepted_steps.Increment();
    metrics.step_size.Record(dt_eff);
    if (hit_breakpoint) {
      result.stats().breakpoint_hits++;
      metrics.breakpoint_hits.Increment();
    }

    if (hit_breakpoint) {
      dt = options.dt_initial;  // resolve the new edge finely
    } else if (max_change < 0.3 * options.max_voltage_step) {
      dt = dt_eff * kGrowthFactor;
    } else {
      dt = dt_eff;
    }
  }
  return result;
}

}  // namespace cmldft::sim
