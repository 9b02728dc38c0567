// Newton-Raphson iteration over an assembled MNA system.
#pragma once

#include "linalg/matrix.h"
#include "sim/mna.h"
#include "sim/options.h"
#include "util/status.h"

namespace cmldft::sim {

struct NewtonResult {
  linalg::Vector solution;
  int iterations = 0;
};

/// Iterate J(x_k) x_{k+1} = rhs(x_k) from `initial_guess` until the update
/// is below tolerance for every unknown, factoring each J with the
/// MnaSystem's sparse LU. Node-voltage updates are clamped to
/// opts.max_delta_v per iteration (global damping). The MnaSystem's
/// analysis configuration (mode/time/dt/gmin/...) must be set by the caller.
util::StatusOr<NewtonResult> SolveNewton(MnaSystem& mna,
                                         const linalg::Vector& initial_guess,
                                         const NewtonOptions& opts);

}  // namespace cmldft::sim
