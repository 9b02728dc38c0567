// Solver option structs shared by DC and transient analyses.
#pragma once

#include "netlist/stamp_context.h"

namespace cmldft::sim {

/// Newton-Raphson controls.
struct NewtonOptions {
  int max_iterations = 150;
  /// Node-voltage convergence: |dV| < abstol_v + reltol * |V|.
  double abstol_v = 1e-6;
  /// Branch-current convergence: |dI| < abstol_i + reltol * |I|.
  double abstol_i = 1e-9;
  double reltol = 1e-4;
  /// Per-iteration clamp on node-voltage updates [V]; tames the exponential
  /// BJT characteristics without per-junction limiting state.
  double max_delta_v = 0.25;
  /// Junction shunt conductance [S].
  double gmin = 1e-12;
  /// Linear solver. kAuto uses the dense LU below ~256 unknowns and the
  /// sparse LU above (a crossover measured for CML-like MNA patterns
  /// before the sparse refactorization replayed a recorded pattern; see
  /// docs/simulator.md).
  enum class Solver { kAuto, kDense, kSparse };
  Solver solver = Solver::kAuto;

  // --- Jacobian reuse (opt-in; see docs/performance.md) ------------------
  /// Jacobian reuse (modified Newton): keep the LU factors from a previous
  /// iteration while the step norm is contracting by at least
  /// jacobian_reuse_rate per iteration, and apply them to the fresh
  /// residual (x_next = x - J_old^-1 f(x)). Refactors immediately when the
  /// contraction stalls or the reused step grows. Changes the iterate
  /// trajectory (tolerance-equivalent solutions); default off.
  bool jacobian_reuse = false;
  /// Acceptance threshold for a stale-factor step. Kept well below the
  /// nominal 0.5 "still contracting" bound: weakly-contracting stale steps
  /// inflate the iteration count (modified Newton converges linearly) and,
  /// far from the solution, can steer the iterate into regions where the
  /// fresh Jacobian is singular. 0.25 measured robust and profitable on
  /// CML buffer-chain transients; 0.5 loses money at ~70 unknowns and can
  /// fail outright at ~130.
  double jacobian_reuse_rate = 0.25;
  /// Reuse is only attempted on dense systems with at least this many
  /// unknowns: the attempt costs one mat-vec plus one triangular solve
  /// (~2n^2 flops) against a saved factorization of ~n^3/3, so below this
  /// size — and always in sparse mode, where a numeric-only Refactor
  /// already costs about one triangular solve — the attempt cannot pay for
  /// itself. Tests lower this to exercise reuse on small circuits.
  int jacobian_reuse_min_unknowns = 64;

  // --- hierarchical solver (opt-in; see docs/performance.md Layer 6) -----
  /// Bordered-block-diagonal elimination over the netlist's cell-instance
  /// annotations (sim/hier.h): per-cell internal blocks are factored and
  /// Schur-eliminated into a small interconnect border, in parallel, with
  /// factorizations shared across same-type cells whose blocks agree.
  /// Same linear system as the flat solve in a different elimination
  /// order, so solutions are tolerance-equivalent (gated like dense ==
  /// sparse). Falls back to the flat path when the netlist carries no
  /// usable cell annotations. Ignores jacobian_reuse; default off.
  bool hierarchical = false;
  /// Factor-share quantum: an absolute step in the block entries' own
  /// units, not a fraction of each entry. 0 (the default) shares a
  /// factorization only between cells whose internal blocks agree bit for
  /// bit — mathematically exact. > 0 additionally shares across cells
  /// whose entries agree after rounding to a multiple of this step,
  /// trading a bounded companion-model perturbation for more sharing
  /// (documented in docs/performance.md; keep 0 when golden waveform
  /// stability matters). An entry too large to round at this step keys on
  /// its exact bits; a non-finite quantum means 0.
  double hier_share_quantum = 0.0;
  /// Worker threads for the per-cell assembly/factor phases: 0 = auto
  /// (CMLDFT_THREADS or hardware concurrency), 1 = serial. Results are
  /// bit-identical for any thread count.
  int hier_threads = 0;
};

/// DC operating-point controls (Newton + homotopy fallbacks).
struct DcOptions {
  NewtonOptions newton;
  /// gmin stepping ladder: start value and per-stage reduction factor.
  double gmin_start = 1e-3;
  double gmin_reduction = 10.0;
  /// Source-stepping stages used if gmin stepping also fails.
  int source_steps = 10;
  double temperature_k = 300.15;
};

/// Transient controls.
struct TransientOptions {
  double tstop = 0.0;            ///< end time [s] (required)
  double dt_initial = 1e-12;     ///< first step [s]
  double dt_min = 1e-16;         ///< give up below this [s]
  double dt_max = 2.5e-11;       ///< step ceiling [s]
  netlist::IntegrationMethod method =
      netlist::IntegrationMethod::kTrapezoidal;
  /// Step controller: target max per-node voltage change per step [V].
  double max_voltage_step = 0.03;
  /// Grow dt by this factor when steps are comfortably small.
  double growth_factor = 1.5;
  DcOptions dc;                  ///< used for the t=0 operating point
};

}  // namespace cmldft::sim
