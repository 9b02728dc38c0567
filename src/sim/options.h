// Solver option structs shared by DC and transient analyses.
#pragma once

#include "netlist/stamp_context.h"

namespace cmldft::sim {

/// Newton-Raphson controls. The iteration limit and convergence
/// tolerances are constants of sim/newton.cc; every flat solve factors
/// with the sparse LU (linalg/sparse.h).
struct NewtonOptions {
  /// Per-iteration clamp on node-voltage updates [V]; tames the exponential
  /// BJT characteristics without per-junction limiting state.
  double max_delta_v = 0.25;

  // --- hierarchical solver (opt-in; see docs/performance.md Layer 6) -----
  /// Bordered-block-diagonal elimination over the netlist's cell-instance
  /// annotations (sim/hier.h): per-cell internal blocks are factored and
  /// Schur-eliminated into a small interconnect border. Same linear
  /// system as the flat solve in a different elimination order, so
  /// solutions are tolerance-equivalent to the flat solve (gated in
  /// tests/equivalence_test.cc).
  /// Falls back to the flat path when the netlist carries no usable cell
  /// annotations. Default off.
  bool hierarchical = false;
  /// No effect: the hierarchical solve is serial. Kept only because the
  /// end-to-end benchmark (e2ebench/) still sets it.
  int hier_threads = 0;
};

/// DC operating-point controls (Newton + homotopy fallbacks, whose gmin
/// ladder and source steps are constants of sim/dc.cc).
struct DcOptions {
  NewtonOptions newton;
  double temperature_k = 300.15;
};

/// Transient controls.
struct TransientOptions {
  double tstop = 0.0;            ///< end time [s] (required)
  double dt_initial = 1e-12;     ///< first step [s]
  double dt_max = 2.5e-11;       ///< step ceiling [s]
  netlist::IntegrationMethod method =
      netlist::IntegrationMethod::kTrapezoidal;
  /// Step controller: target max per-node voltage change per step [V].
  double max_voltage_step = 0.03;
  DcOptions dc;                  ///< used for the t=0 operating point
};

}  // namespace cmldft::sim
