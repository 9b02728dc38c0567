#include "devices/diode.h"

#include <cmath>

#include "devices/junction.h"
#include "devices/passive.h"
#include "util/units.h"

namespace cmldft::devices {

double SaturationCurrentAt(const DiodeParams& params, double temp_k) {
  const double vt_nom = util::ThermalVoltage(params.tnom);
  const double vt = util::ThermalVoltage(temp_k);
  return params.is * std::pow(temp_k / params.tnom, params.xti) *
         std::exp(params.eg / vt_nom - params.eg / vt);
}

void Diode::ComputeConstants(double temp_k, double* out) const {
  const DepletionSplit split =
      DepletionSplitAt(params_.cj0, params_.vj, params_.m, params_.fc);
  out[0] = SaturationCurrentAt(params_, temp_k);
  out[1] = split.q0;
  out[2] = split.c0;
  out[3] = split.dcdv;
}

void Diode::Stamp(netlist::StampContext& ctx) const {
  const netlist::NodeId a = node(0), c = node(1);
  const double v = ctx.V(a) - ctx.V(c);
  const double vt = util::ThermalVoltage(ctx.temperature());
  const double* k = ctx.Constants(*this);

  const JunctionEval j = EvalJunction(v, k[0], params_.n, vt, ctx.gmin());
  ctx.StampCurrent(a, c, j.current, j.conductance);

  // Charge: depletion + diffusion (tt * i_junction).
  double cdep = 0.0;
  const double qdep =
      DepletionCharge(v, params_.cj0, params_.vj, params_.m, params_.fc,
                      DepletionSplit{k[1], k[2], k[3]}, &cdep);
  const double q = qdep + params_.tt * j.current;
  const double cap = cdep + params_.tt * j.conductance;
  const ChargeCompanion cc = IntegrateCharge(ctx, *this, 0, 1, q, cap);
  if (cc.conductance != 0.0 || cc.current != 0.0) {
    ctx.StampCurrent(a, c, cc.current, cc.conductance);
  }
}

}  // namespace cmldft::devices
