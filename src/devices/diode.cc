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
  out[0] = SaturationCurrentAt(params_, temp_k);
  out[1] = 1.0 / (params_.n * util::ThermalVoltage(temp_k));
  StoreDepletion(
      DepletionConstantsOf(params_.cj0, params_.vj, params_.m, params_.fc),
      out + 2);
}

void Diode::Stamp(netlist::StampContext& ctx) const {
  const netlist::NodeId a = node(0), c = node(1);
  const double v = ctx.V(a) - ctx.V(c);
  const double* k = ctx.Constants(*this);

  const JunctionEval j = EvalJunction(v, k[0], k[1], ctx.gmin());

  // Charge: depletion + diffusion (tt * i_junction). Its companion joins
  // the junction current and conductance, so the diode stamps once, with
  // the same write sequence in a seeding DC (companion {0, 0}) and in
  // transient. A plain DC evaluates no charge and adds the same {0, 0}.
  const ChargeCompanion cc = IntegrateCharge(ctx, *this, 0, 1, [&] {
    double cdep = 0.0;
    const double qdep = DepletionCharge(v, LoadDepletion(k + 2), &cdep);
    return Charge{qdep + params_.tt * j.current,
                  cdep + params_.tt * j.conductance};
  });
  ctx.StampCurrent(a, c, j.current + cc.current,
                   j.conductance + cc.conductance);
}

}  // namespace cmldft::devices
