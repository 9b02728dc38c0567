#include "devices/junction.h"

#include <cmath>

namespace cmldft::devices {

double LimitedExp(double v, double nvt, double* derivative, double vmax_arg) {
  const double arg = v / nvt;
  if (arg <= vmax_arg) {
    const double e = std::exp(arg);
    if (derivative) *derivative = e / nvt;
    return e;
  }
  // Linear continuation: value and slope continuous at vmax_arg.
  const double e_max = std::exp(vmax_arg);
  if (derivative) *derivative = e_max / nvt;
  return e_max * (1.0 + (arg - vmax_arg));
}

JunctionEval EvalJunction(double v, double is, double n, double vt,
                          double gmin) {
  const double nvt = n * vt;
  double de = 0.0;
  const double e = LimitedExp(v, nvt, &de);
  JunctionEval out;
  out.current = is * (e - 1.0) + gmin * v;
  out.conductance = is * de + gmin;
  return out;
}

DepletionSplit DepletionSplitAt(double cj0, double vj, double m, double fc) {
  // SPICE's F1/F2/F3 form, reduced to the first-order expansion around
  // fc*vj.
  const double u0 = 1.0 - fc;
  DepletionSplit s;
  s.q0 = cj0 * vj / (1.0 - m) * (1.0 - std::pow(u0, 1.0 - m));
  s.c0 = cj0 * std::pow(u0, -m);     // cap at split point
  s.dcdv = s.c0 * m / (vj * u0);     // slope of cap
  return s;
}

double DepletionCharge(double v, double cj0, double vj, double m, double fc,
                       const DepletionSplit& split, double* capacitance) {
  if (cj0 <= 0.0) {
    if (capacitance) *capacitance = 0.0;
    return 0.0;
  }
  const double vsplit = fc * vj;
  if (v < vsplit) {
    const double u = 1.0 - v / vj;
    const double q = cj0 * vj / (1.0 - m) * (1.0 - std::pow(u, 1.0 - m));
    if (capacitance) *capacitance = cj0 * std::pow(u, -m);
    return q;
  }
  // Linearized region: cap grows linearly with v.
  const double dv = v - vsplit;
  if (capacitance) *capacitance = split.c0 + split.dcdv * dv;
  return split.q0 + split.c0 * dv + 0.5 * split.dcdv * dv * dv;
}

}  // namespace cmldft::devices
