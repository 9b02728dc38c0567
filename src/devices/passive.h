// Linear passive elements: resistor and capacitor.
#pragma once

#include <cassert>
#include <memory>

#include "netlist/device.h"

namespace cmldft::devices {

/// Two-terminal linear resistor. Terminals: {a, b}.
class Resistor : public netlist::Device {
 public:
  Resistor(std::string name, netlist::NodeId a, netlist::NodeId b,
           double resistance)
      : Device(std::move(name), {a, b}), resistance_(resistance) {}

  double resistance() const { return resistance_; }
  void set_resistance(double r) {
    resistance_ = r;
    ConstantsChanged();
  }

  /// The conductance 1/R.
  int num_constants() const override { return 1; }
  void ComputeConstants(double temp_k, double* out) const override;
  void Stamp(netlist::StampContext& ctx) const override;
  std::unique_ptr<netlist::Device> Clone() const override {
    return std::make_unique<Resistor>(*this);
  }
  std::string_view kind() const override { return "resistor"; }

 private:
  double resistance_;
};

/// Two-terminal linear capacitor. Terminals: {a, b}. Open in DC analyses;
/// integrated via the engine's charge-companion in transient.
class Capacitor : public netlist::Device {
 public:
  Capacitor(std::string name, netlist::NodeId a, netlist::NodeId b,
            double capacitance)
      : Device(std::move(name), {a, b}), capacitance_(capacitance) {}

  double capacitance() const { return capacitance_; }
  void set_capacitance(double c) { capacitance_ = c; }

  int num_states() const override { return 2; }  // {charge, current}
  void Stamp(netlist::StampContext& ctx) const override;
  std::unique_ptr<netlist::Device> Clone() const override {
    return std::make_unique<Capacitor>(*this);
  }
  std::string_view kind() const override { return "capacitor"; }

 private:
  double capacitance_;
};

/// The charge q of a storage element at the present iterate and its
/// incremental capacitance c = dq/dv.
struct Charge {
  double q;
  double c;
};

/// Shared charge-element companion integration: the element's branch
/// current and companion conductance for the active integration method,
/// recorded in its {q, i} state slots. `charge_at()` returns the element's
/// Charge and runs only where ctx.evaluates_charge(). A plain DC analysis
/// reads no charge: the element is open ({0, 0}) and writes no state. A
/// seeding operating point (initializing_state) is open too, and seeds the
/// state so the first transient step differentiates against its charge.
struct ChargeCompanion {
  double current;
  double conductance;
};
// Forced inline: left to itself, the compiler keeps this out of line, and
// a BJT stamp calls it twice.
template <typename ChargeAt>
[[gnu::always_inline]] inline ChargeCompanion IntegrateCharge(
    netlist::StampContext& ctx, const netlist::Device& dev, int q_slot,
    int i_slot, ChargeAt charge_at) {
  if (!ctx.evaluates_charge()) return {0.0, 0.0};
  const Charge charge = charge_at();
  if (ctx.initializing_state()) {
    ctx.SetState(dev, q_slot, charge.q);
    ctx.SetState(dev, i_slot, 0.0);
    return {0.0, 0.0};
  }
  assert(ctx.dt() > 0.0);
  const bool trap = ctx.method() == netlist::IntegrationMethod::kTrapezoidal;
  const double coef = ctx.companion_coef();
  const double q_prev = ctx.PrevState(dev, q_slot);
  const double i_prev = ctx.PrevState(dev, i_slot);
  const double i = coef * (charge.q - q_prev) - (trap ? i_prev : 0.0);
  ctx.SetState(dev, q_slot, charge.q);
  ctx.SetState(dev, i_slot, i);
  return {i, coef * charge.c};
}

}  // namespace cmldft::devices
