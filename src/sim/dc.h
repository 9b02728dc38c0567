// DC operating point (with gmin / source-stepping homotopy) and DC sweeps.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "linalg/matrix.h"
#include "netlist/netlist.h"
#include "sim/options.h"
#include "util/status.h"

namespace cmldft::sim {

/// A converged DC solution. Node voltages are indexed by NodeId (ground
/// included, always 0.0); voltage-source branch currents are keyed by
/// device name.
struct DcResult {
  std::vector<double> node_voltages;
  std::unordered_map<std::string, double> source_currents;
  int newton_iterations = 0;
  /// Homotopy stages that were needed (0 = plain Newton converged).
  int homotopy_stages = 0;

  double V(const netlist::Netlist& nl, const std::string& node_name) const;
  double V(netlist::NodeId node) const {
    return node_voltages.at(static_cast<size_t>(node));
  }
  /// Differential voltage V(a) - V(b).
  double Vdiff(const netlist::Netlist& nl, const std::string& a,
               const std::string& b) const {
    return V(nl, a) - V(nl, b);
  }
};

/// Solve the DC operating point. Tries plain Newton from `initial_guess`
/// (flat 0 V if empty); on failure walks a gmin ladder, then source
/// stepping.
util::StatusOr<DcResult> SolveDc(const netlist::Netlist& netlist,
                                 const DcOptions& options = {},
                                 const std::vector<double>& initial_guess = {});

/// Sweep the DC value of a voltage source and solve at each point, using
/// continuation (each solution seeds the next). Sweeping a bistable circuit
/// up vs down traces the two hysteresis branches (paper Fig. 12). A point
/// whose solve fails is approached again from the last converged point in
/// halved steps (at most 3 halvings); only the requested points are
/// returned.
struct DcSweepPoint {
  double sweep_value = 0.0;
  DcResult result;
};
util::StatusOr<std::vector<DcSweepPoint>> DcSweepVSource(
    netlist::Netlist netlist, const std::string& vsource_name,
    const std::vector<double>& values, const DcOptions& options = {});

}  // namespace cmldft::sim
