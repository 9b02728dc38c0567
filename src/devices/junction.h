// Shared semiconductor-junction math: limited exponentials, diode
// current/conductance, and depletion charge/capacitance. Used by Diode and
// Bjt device models.
#pragma once

namespace cmldft::devices {

/// exp(v/nvt) with linear continuation above `vmax_arg` thermal units.
/// The continuation keeps the function and its derivative continuous, which
/// tames Newton steps without per-device iterate memory (the role pnjlim
/// plays in SPICE). Returns the value; `*derivative` gets d/dv.
/// The 80-unit default keeps real operating points (up to ~1 V VBE at
/// -40 C, i.e. 50 thermal units) inside the exact-exponential region while
/// still preventing overflow during Newton excursions.
double LimitedExp(double v, double nvt, double* derivative,
                  double vmax_arg = 80.0);

/// Junction (diode) current and conductance:
///   i = is * (expl(v / (n*vt)) - 1) + gmin * v
struct JunctionEval {
  double current;
  double conductance;
};
JunctionEval EvalJunction(double v, double is, double n, double vt,
                          double gmin);

/// Charge, capacitance and capacitance slope of a depletion junction at its
/// split point fc*vj: the constants of the linearized forward region.
struct DepletionSplit {
  double q0;
  double c0;
  double dcdv;
};
DepletionSplit DepletionSplitAt(double cj0, double vj, double m, double fc);

/// Depletion-region charge for a step junction, linearized above fc*vj (the
/// standard SPICE treatment so charge stays defined in forward bias):
///   q(v) = cj0 * vj / (1-m) * (1 - (1 - v/vj)^(1-m))        for v < fc*vj
/// and a first-order continuation beyond, built on `split` (which must be
/// DepletionSplitAt(cj0, vj, m, fc)). `*capacitance` gets dq/dv.
double DepletionCharge(double v, double cj0, double vj, double m, double fc,
                       const DepletionSplit& split, double* capacitance);

}  // namespace cmldft::devices
