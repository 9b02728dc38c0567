// Adaptive-step transient analysis.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.h"
#include "sim/dc.h"
#include "sim/options.h"
#include "util/status.h"
#include "waveform/trace.h"

namespace cmldft::sim {

/// Full transient record: every accepted timepoint, every node voltage and
/// branch current. Memory is fine at this scale (hundreds of nodes, a few
/// thousand timepoints).
class TransientResult {
 public:
  TransientResult(std::vector<std::string> node_names,
                  std::vector<std::string> branch_names);

  void Append(double t, const std::vector<double>& node_voltages,
              const std::vector<double>& branch_currents);

  size_t num_points() const { return time_.size(); }
  const std::vector<double>& time() const { return time_; }

  /// Voltage trace of a node by name; asserts the node exists.
  waveform::Trace Voltage(const std::string& node_name) const;
  /// Branch current trace of a voltage-source-like device by name.
  waveform::Trace BranchCurrent(const std::string& device_name) const;
  /// Differential trace a - b (CML signals are differential pairs).
  waveform::Trace Differential(const std::string& a,
                               const std::string& b) const;

  bool HasNode(const std::string& node_name) const;

  /// Engine statistics.
  struct Stats {
    int accepted_steps = 0;
    int rejected_steps = 0;  ///< newton_rejections + voltage_step_rejections
    /// Rejections because Newton failed at the trial timepoint.
    int newton_rejections = 0;
    /// Rejections because the converged step moved a node voltage past
    /// TransientOptions::max_voltage_step.
    int voltage_step_rejections = 0;
    /// Accepted steps that were shortened to land on a source corner.
    int breakpoint_hits = 0;
    int total_newton_iterations = 0;
    int dc_homotopy_stages = 0;
  };
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

 private:
  std::unordered_map<std::string, size_t> node_index_;
  std::unordered_map<std::string, size_t> branch_index_;
  std::vector<std::string> node_names_;
  std::vector<std::string> branch_names_;
  std::vector<double> time_;
  std::vector<std::vector<double>> node_values_;    // [node][point]
  std::vector<std::vector<double>> branch_values_;  // [branch][point]
  Stats stats_;
};

/// Run a transient analysis from a fresh DC operating point at t = 0.
util::StatusOr<TransientResult> RunTransient(const netlist::Netlist& netlist,
                                             const TransientOptions& options);

}  // namespace cmldft::sim
