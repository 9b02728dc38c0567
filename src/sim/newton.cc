#include "sim/newton.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "sim/hier.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft::sim {

namespace {
// Registered eagerly on first solve so every metric appears in snapshots
// even when its branch never fires (stable schema for golden checks).
struct NewtonMetrics {
  util::telemetry::Counter solves =
      util::telemetry::GetCounter("sim.newton.solves");
  util::telemetry::Counter iterations =
      util::telemetry::GetCounter("sim.newton.iterations");
  util::telemetry::Counter damped_iterations =
      util::telemetry::GetCounter("sim.newton.damped_iterations");
  util::telemetry::Counter convergence_failures =
      util::telemetry::GetCounter("sim.newton.convergence_failures");
  util::telemetry::Counter singular_failures =
      util::telemetry::GetCounter("sim.newton.singular_failures");
  util::telemetry::Counter jacobian_reuses =
      util::telemetry::GetCounter("sim.newton.jacobian_reuses");
};
const NewtonMetrics& Metrics() {
  static const NewtonMetrics m;
  return m;
}
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const NewtonMetrics& kEagerRegistration = Metrics();
}  // namespace

util::StatusOr<NewtonResult> SolveNewton(MnaSystem& mna,
                                         const linalg::Vector& initial_guess,
                                         const NewtonOptions& opts) {
  const int n = mna.num_unknowns();
  if (static_cast<int>(initial_guess.size()) != n) {
    return util::Status::InvalidArgument("initial guess dimension mismatch");
  }
  const NewtonMetrics& metrics = Metrics();
  metrics.solves.Increment();
  linalg::Vector x = initial_guess;
  // Hierarchical path (opt-in): the bordered-block-diagonal solver
  // replaces assembly + factorization + solve wholesale; it ignores
  // jacobian_reuse (its factor-share cache plays the analogous role) and
  // falls through to the flat path when the netlist carries no usable
  // cell annotations.
  HierSolver* hier = opts.hierarchical ? mna.GetHierSolver() : nullptr;
  const bool use_sparse =
      opts.solver == NewtonOptions::Solver::kSparse ||
      (opts.solver == NewtonOptions::Solver::kAuto && n > 256);
  if (hier == nullptr) mna.set_sparse(use_sparse);
  linalg::LuFactorization lu;
  // The sparse solver lives in the MnaSystem so its symbolic factorization
  // and pivot order are reused across iterations and timepoints; Refactor
  // does a full Factor on first use or when a reused pivot goes bad.
  linalg::SparseLu& sparse_lu = mna.sparse_solver();
  const int n_nodes = mna.num_node_unknowns();

  // Jacobian reuse (modified Newton): once a fresh factorization exists,
  // later iterations first try the stale factors on the fresh residual —
  // x_try = x - J_old^-1 (J_new x - rhs_new) — and accept the step only if
  // it contracts by at least opts.jacobian_reuse_rate versus the previous
  // step. Otherwise the already-assembled Jacobian is factored and the
  // iteration proceeds exactly as without reuse (a rejected attempt costs
  // one mat-vec and one triangular solve, not an extra Newton iteration).
  bool have_factors = false;
  double last_step_norm = std::numeric_limits<double>::infinity();
  // Economics gate (see NewtonOptions::jacobian_reuse_min_unknowns): only
  // dense systems large enough that a factorization dwarfs the reuse
  // attempt are worth trying.
  const bool reuse_eligible = hier == nullptr && opts.jacobian_reuse &&
                              !use_sparse &&
                              n >= opts.jacobian_reuse_min_unknowns;

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    metrics.iterations.Increment();
    mna.set_first_iteration(iter == 0);

    linalg::Vector x_new;
    bool fresh_needed = true;
    if (hier != nullptr) {
      // The hierarchical solve replaces assembly + factor + solve in one
      // call and its solution plays the fresh-factor role in the shared
      // damping/convergence logic below.
      util::Status st = hier->AssembleAndSolve(x, &x_new, opts);
      if (!st.ok()) {
        metrics.singular_failures.Increment();
        return util::Status(st.code(), util::StrPrintf("newton iter %d: %s",
                                                       iter,
                                                       st.message().c_str()));
      }
    } else {
      mna.Assemble(x);
      if (reuse_eligible && have_factors) {
        linalg::Vector residual = mna.MultiplyJacobian(x);
        const linalg::Vector& rhs = mna.rhs();
        for (int i = 0; i < n; ++i) residual[static_cast<size_t>(i)] -= rhs[static_cast<size_t>(i)];
        auto solved = use_sparse ? sparse_lu.Solve(residual) : lu.Solve(residual);
        if (!solved.ok()) return solved.status();
        double step_norm = 0.0;
        for (int i = 0; i < n; ++i) {
          step_norm = std::max(step_norm, std::fabs(solved.value()[static_cast<size_t>(i)]));
        }
        if (step_norm <= opts.jacobian_reuse_rate * last_step_norm) {
          // A stale step small enough to declare convergence is discarded:
          // convergence must be ratified by fresh factors (the quadratic
          // fresh step lands where exact Newton converges), and rejecting it
          // here costs one refactor instead of a whole extra iteration.
          bool would_converge = true;
          for (int i = 0; i < n && would_converge; ++i) {
            const double delta = solved.value()[static_cast<size_t>(i)];
            const double tol =
                (i < n_nodes ? opts.abstol_v : opts.abstol_i) +
                opts.reltol * std::fabs(x[static_cast<size_t>(i)] - delta);
            if (std::fabs(delta) > tol) would_converge = false;
          }
          if (!would_converge) {
            x_new = x;
            for (int i = 0; i < n; ++i) {
              x_new[static_cast<size_t>(i)] -=
                  solved.value()[static_cast<size_t>(i)];
            }
            fresh_needed = false;
            metrics.jacobian_reuses.Increment();
          }
        }
        // else: contraction stalled — fall through and refactor the Jacobian
        // that is already assembled for this iterate.
      }
      if (fresh_needed) {
        util::Status st = use_sparse ? sparse_lu.Refactor(mna.sparse_jacobian())
                                     : lu.Factor(mna.jacobian());
        if (!st.ok()) {
          metrics.singular_failures.Increment();
          return util::Status::SingularMatrix(util::StrPrintf(
              "newton iter %d: %s", iter, st.message().c_str()));
        }
        auto solved = use_sparse ? sparse_lu.Solve(mna.rhs()) : lu.Solve(mna.rhs());
        if (!solved.ok()) return solved.status();
        x_new = std::move(solved.value());
        have_factors = true;
      }
    }

    // Clamp node-voltage updates (global damping); find convergence metric.
    bool converged = true;
    double max_v_step = 0.0;
    double step_norm = 0.0;
    for (int i = 0; i < n; ++i) {
      const double d =
          std::fabs(x_new[static_cast<size_t>(i)] - x[static_cast<size_t>(i)]);
      step_norm = std::max(step_norm, d);
      if (i < n_nodes) max_v_step = std::max(max_v_step, d);
    }
    last_step_norm = step_norm;
    double damp = 1.0;
    if (max_v_step > opts.max_delta_v) {
      damp = opts.max_delta_v / max_v_step;
      metrics.damped_iterations.Increment();
    }

    for (int i = 0; i < n; ++i) {
      const double xi = x[static_cast<size_t>(i)];
      const double delta = x_new[static_cast<size_t>(i)] - xi;
      const double step = (i < n_nodes ? damp : 1.0) * delta;
      const double tol = (i < n_nodes ? opts.abstol_v : opts.abstol_i) +
                         opts.reltol * std::fabs(xi + step);
      if (std::fabs(delta) > tol) converged = false;
      x[static_cast<size_t>(i)] = xi + step;
      if (!std::isfinite(x[static_cast<size_t>(i)])) {
        metrics.convergence_failures.Increment();
        return util::Status::NoConvergence(
            util::StrPrintf("newton diverged (non-finite) at iter %d", iter));
      }
    }
    if (converged && damp == 1.0) {
      if (fresh_needed) {
        return NewtonResult{std::move(x), iter + 1};
      }
      // Converged on a stale-Jacobian step. A stale step only bounds the
      // distance to the root as seen through old factors, so confirm with
      // one fresh iteration before accepting: dropping the factors forces
      // the next pass down the fresh path, whose full Newton step lands
      // (quadratically) at the same point the exact path converges to.
      have_factors = false;
    }
  }
  CMLDFT_LOG(kDebug) << "newton exhausted " << opts.max_iterations
                     << " iterations";
  metrics.convergence_failures.Increment();
  return util::Status::NoConvergence(util::StrPrintf(
      "newton did not converge in %d iterations", opts.max_iterations));
}

}  // namespace cmldft::sim
