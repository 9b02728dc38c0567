#include "devices/passive.h"

#include <cassert>

namespace cmldft::devices {

void Resistor::ComputeConstants(double /*temp_k*/, double* out) const {
  assert(resistance_ > 0.0);
  out[0] = 1.0 / resistance_;
}

void Resistor::Stamp(netlist::StampContext& ctx) const {
  ctx.StampConductance(node(0), node(1), ctx.Constants(*this)[0]);
}

void Capacitor::Stamp(netlist::StampContext& ctx) const {
  const ChargeCompanion cc =
      IntegrateCharge(ctx, *this, /*q_slot=*/0, /*i_slot=*/1, [&] {
        const double v = ctx.V(node(0)) - ctx.V(node(1));
        return Charge{capacitance_ * v, capacitance_};
      });
  ctx.StampCurrent(node(0), node(1), cc.current, cc.conductance);
}

}  // namespace cmldft::devices
