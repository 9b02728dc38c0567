#include "devices/junction.h"

namespace cmldft::devices {

DepletionConstants DepletionConstantsOf(double cj0, double vj, double m,
                                        double fc) {
  DepletionConstants d;
  d.cj0 = cj0;
  d.m = m;
  d.inv_vj = 1.0 / vj;
  d.vsplit = fc * vj;
  d.prefactor = cj0 * vj / (1.0 - m);
  // SPICE's F1/F2/F3 form, reduced to the first-order expansion around
  // fc*vj; charge and cap there by the one-pow form DepletionCharge uses.
  const double u0 = 1.0 - fc;
  const double p0 = std::pow(u0, -m);
  d.q0 = d.prefactor * (1.0 - u0 * p0);
  d.c0 = cj0 * p0;                // cap at split point
  d.dcdv = d.c0 * m / (vj * u0);  // slope of cap
  return d;
}

}  // namespace cmldft::devices
