// DC operating point (with gmin / source-stepping homotopy) and DC sweeps.
#pragma once

#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "netlist/netlist.h"
#include "sim/options.h"
#include "util/status.h"

namespace cmldft::sim {

/// A converged DC solution. Node voltages are indexed by NodeId (ground
/// included, always 0.0). Branch currents are the solution's branch
/// unknowns in MNA order: every device's branches, in netlist device
/// order; BranchCurrent() looks one up by device name.
struct DcResult {
  std::vector<double> node_voltages;
  std::vector<double> branch_currents;
  int newton_iterations = 0;
  /// Homotopy stages that were needed (0 = plain Newton converged).
  int homotopy_stages = 0;

  double V(const netlist::Netlist& nl, const std::string& node_name) const;
  double V(netlist::NodeId node) const {
    return node_voltages.at(static_cast<size_t>(node));
  }
  /// The first branch current of device `device_name` of `nl`, the netlist
  /// solved (a voltage source's current flows from its + terminal through
  /// the source). NotFound when `nl` has no such device with a branch.
  util::StatusOr<double> BranchCurrent(const netlist::Netlist& nl,
                                       const std::string& device_name) const;
};

/// Solve the DC operating point. Tries plain Newton from `initial_guess`
/// (flat 0 V if empty); on failure walks a gmin ladder, then source
/// stepping. A plain DC analysis: no device evaluates charge or writes
/// integrator state.
util::StatusOr<DcResult> SolveDc(const netlist::Netlist& netlist,
                                 const DcOptions& options = {},
                                 const std::vector<double>& initial_guess = {});

/// Sweep the DC value of a voltage source and solve at each point, using
/// continuation (each solution seeds the next). Sweeping a bistable circuit
/// up vs down traces the two hysteresis branches (paper Fig. 12). A point
/// whose solve fails is approached again from the last converged point in
/// halved steps (at most 3 halvings); only the requested points are
/// returned. Plain DC, as SolveDc. The sweep drives the caller's source in
/// place and restores its waveform on every return, so no other system
/// may stamp `netlist` during the call.
struct DcSweepPoint {
  double sweep_value = 0.0;
  DcResult result;
};
util::StatusOr<std::vector<DcSweepPoint>> DcSweepVSource(
    netlist::Netlist& netlist, const std::string& vsource_name,
    const std::vector<double>& values, const DcOptions& options = {});

}  // namespace cmldft::sim
