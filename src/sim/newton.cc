#include "sim/newton.h"

#include <algorithm>
#include <cmath>

#include "linalg/sparse.h"
#include "sim/hier.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft::sim {

namespace {
/// Iterations before a solve reports NoConvergence.
constexpr int kMaxIterations = 150;
/// Node-voltage convergence: |dV| < kAbstolV + kReltol * |V|.
constexpr double kAbstolV = 1e-6;
/// Branch-current convergence: |dI| < kAbstolI + kReltol * |I|.
constexpr double kAbstolI = 1e-9;
constexpr double kReltol = 1e-4;

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
  // The next iterate, solved into the same storage every iteration.
  linalg::Vector x_new(x.size());
  // Hierarchical path (opt-in): the bordered-block-diagonal solver
  // replaces assembly + factorization + solve wholesale, and falls through
  // to the flat path when the netlist carries no usable cell annotations.
  HierSolver* hier = opts.hierarchical ? mna.GetHierSolver() : nullptr;
  // The sparse solver lives in the MnaSystem so its symbolic factorization
  // and pivot order are reused across iterations and timepoints; Refactor
  // does a full Factor on first use or when a reused pivot goes bad.
  linalg::SparseLu& lu = mna.sparse_solver();
  const int n_nodes = mna.num_node_unknowns();

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    metrics.iterations.Increment();
    mna.set_first_iteration(iter == 0);

    util::Status st;
    if (hier != nullptr) {
      st = hier->AssembleAndSolve(x, &x_new, opts);
    } else {
      mna.Assemble(x);
      st = lu.Refactor(mna.sparse_jacobian());
      if (st.ok()) st = lu.SolveInto(mna.rhs(), &x_new);
    }
    if (!st.ok()) {
      metrics.singular_failures.Increment();
      return util::Status(st.code(), util::StrPrintf("newton iter %d: %s", iter,
                                                     st.message().c_str()));
    }

    // Clamp node-voltage updates (global damping); find convergence metric.
    bool converged = true;
    double max_v_step = 0.0;
    for (int i = 0; i < n_nodes; ++i) {
      const size_t k = static_cast<size_t>(i);
      max_v_step = std::max(max_v_step, std::fabs(x_new[k] - x[k]));
    }
    double damp = 1.0;
    if (max_v_step > opts.max_delta_v) {
      damp = opts.max_delta_v / max_v_step;
      metrics.damped_iterations.Increment();
    }

    for (int i = 0; i < n; ++i) {
      const double xi = x[static_cast<size_t>(i)];
      const double delta = x_new[static_cast<size_t>(i)] - xi;
      const double step = (i < n_nodes ? damp : 1.0) * delta;
      const double tol = (i < n_nodes ? kAbstolV : kAbstolI) +
                         kReltol * std::fabs(xi + step);
      if (std::fabs(delta) > tol) converged = false;
      x[static_cast<size_t>(i)] = xi + step;
      if (!std::isfinite(x[static_cast<size_t>(i)])) {
        metrics.convergence_failures.Increment();
        return util::Status::NoConvergence(
            util::StrPrintf("newton diverged (non-finite) at iter %d", iter));
      }
    }
    if (converged && damp == 1.0) {
      return NewtonResult{std::move(x), iter + 1};
    }
  }
  CMLDFT_LOG(kDebug) << "newton exhausted " << kMaxIterations
                     << " iterations";
  metrics.convergence_failures.Increment();
  return util::Status::NoConvergence(util::StrPrintf(
      "newton did not converge in %d iterations", kMaxIterations));
}

}  // namespace cmldft::sim
