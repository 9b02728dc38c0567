// Shared semiconductor-junction math: limited exponentials, diode
// current/conductance, and depletion charge/capacitance. Used by Diode and
// Bjt device models. The per-stamp helpers are inline, so a device's
// Stamp() compiles as one function, and every quantity they would divide
// by is a model constant (Device::ComputeConstants) kept as a reciprocal.
#pragma once

#include <cmath>

namespace cmldft::devices {

/// exp(v/nvt) with linear continuation above `vmax_arg` thermal units,
/// where `inv_nvt` = 1/nvt. The continuation keeps the function and its
/// derivative continuous, which tames Newton steps without per-device
/// iterate memory (the role pnjlim plays in SPICE). Returns the value;
/// `*derivative` gets d/dv.
/// The 80-unit default keeps real operating points (up to ~1 V VBE at
/// -40 C, i.e. 50 thermal units) inside the exact-exponential region while
/// still preventing overflow during Newton excursions. That region is the
/// likely branch: left unmarked, GCC lays the libm call out of line.
inline double LimitedExp(double v, double inv_nvt, double* derivative,
                         double vmax_arg = 80.0) {
  const double arg = v * inv_nvt;
  if (arg <= vmax_arg) [[likely]] {
    const double e = std::exp(arg);
    if (derivative) *derivative = e * inv_nvt;
    return e;
  }
  // Linear continuation: value and slope continuous at vmax_arg.
  const double e_max = std::exp(vmax_arg);
  if (derivative) *derivative = e_max * inv_nvt;
  return e_max * (1.0 + (arg - vmax_arg));
}

/// Junction (diode) current and conductance, `inv_nvt` = 1/(n*vt):
///   i = is * (expl(v / (n*vt)) - 1) + gmin * v
struct JunctionEval {
  double current;
  double conductance;
};
inline JunctionEval EvalJunction(double v, double is, double inv_nvt,
                                 double gmin) {
  double de = 0.0;
  const double e = LimitedExp(v, inv_nvt, &de);
  return {is * (e - 1.0) + gmin * v, is * de + gmin};
}

/// The constants of one depletion junction: its parameters, the
/// reciprocal and the charge prefactor DepletionCharge() multiplies by,
/// and the charge, capacitance and capacitance slope at the split point
/// fc*vj (the constants of the linearized forward region).
struct DepletionConstants {
  double cj0;        ///< zero-bias capacitance [F]
  double m;          ///< grading coefficient
  double inv_vj;     ///< 1/vj [1/V]
  double vsplit;     ///< fc*vj [V]
  double prefactor;  ///< cj0*vj/(1-m) [C]
  double q0;
  double c0;
  double dcdv;
};
DepletionConstants DepletionConstantsOf(double cj0, double vj, double m,
                                        double fc);

/// A DepletionConstants as kDepletionConstants consecutive model
/// constants (Device::ComputeConstants).
inline constexpr int kDepletionConstants = 8;
inline void StoreDepletion(const DepletionConstants& d, double* out) {
  out[0] = d.cj0;
  out[1] = d.m;
  out[2] = d.inv_vj;
  out[3] = d.vsplit;
  out[4] = d.prefactor;
  out[5] = d.q0;
  out[6] = d.c0;
  out[7] = d.dcdv;
}
inline DepletionConstants LoadDepletion(const double* k) {
  return {k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7]};
}

/// Depletion-region charge for a step junction, linearized above fc*vj (the
/// standard SPICE treatment so charge stays defined in forward bias):
///   q(v) = cj0 * vj / (1-m) * (1 - u^(1-m)),  u = 1 - v/vj,  for v < fc*vj
/// and a first-order continuation beyond, built on the split constants.
/// One pow: with p = u^(-m), C = cj0 * p and q = prefactor * (1 - u * p).
/// The pow branch is marked likely, as in LimitedExp: the junctions of a
/// CML gate sit mostly below fc*vj (every B-C junction, and the B-E
/// junction of each off transistor). `*capacitance` gets dq/dv.
inline double DepletionCharge(double v, const DepletionConstants& d,
                              double* capacitance) {
  if (d.cj0 <= 0.0) {
    if (capacitance) *capacitance = 0.0;
    return 0.0;
  }
  if (v < d.vsplit) [[likely]] {
    const double u = 1.0 - v * d.inv_vj;
    const double p = std::pow(u, -d.m);
    if (capacitance) *capacitance = d.cj0 * p;
    return d.prefactor * (1.0 - u * p);
  }
  // Linearized region: cap grows linearly with v.
  const double dv = v - d.vsplit;
  if (capacitance) *capacitance = d.c0 + d.dcdv * dv;
  return d.q0 + d.c0 * dv + 0.5 * d.dcdv * dv * dv;
}

}  // namespace cmldft::devices
