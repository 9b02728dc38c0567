// Junction diode with depletion + diffusion charge.
#pragma once

#include <memory>

#include "devices/junction.h"
#include "netlist/device.h"

namespace cmldft::devices {

/// Diode model parameters (SPICE .model D subset).
struct DiodeParams {
  double is = 1e-16;   ///< saturation current [A] at tnom
  double n = 1.0;      ///< emission coefficient
  double cj0 = 0.0;    ///< zero-bias depletion capacitance [F]
  double vj = 0.75;    ///< junction potential [V]
  double m = 0.33;     ///< grading coefficient
  double fc = 0.5;     ///< forward-bias depletion-cap linearization point
  double tt = 0.0;     ///< transit time (diffusion charge) [s]
  double eg = 1.12;    ///< bandgap for IS(T) scaling [eV]
  double xti = 3.0;    ///< IS temperature exponent
  double tnom = 300.15;  ///< parameter extraction temperature [K]
};

/// SPICE saturation-current temperature scaling — same law the BJT uses
/// (devices/bjt.h), so characterization sweeps see consistent junction
/// physics whichever device models a load.
double SaturationCurrentAt(const DiodeParams& params, double temp_k);

/// Terminals: {anode, cathode}.
class Diode : public netlist::Device {
 public:
  Diode(std::string name, netlist::NodeId anode, netlist::NodeId cathode,
        DiodeParams params = {})
      : Device(std::move(name), {anode, cathode}), params_(params) {}

  const DiodeParams& params() const { return params_; }
  void set_params(const DiodeParams& p) {
    params_ = p;
    ConstantsChanged();
  }

  bool is_nonlinear() const override { return true; }
  int num_states() const override { return 2; }  // {charge, current}
  /// IS(T), 1/(n*VT), then the junction's DepletionConstants.
  int num_constants() const override { return 2 + kDepletionConstants; }
  void ComputeConstants(double temp_k, double* out) const override;
  void Stamp(netlist::StampContext& ctx) const override;
  std::unique_ptr<netlist::Device> Clone() const override {
    return std::make_unique<Diode>(*this);
  }
  std::string_view kind() const override { return "diode"; }

 private:
  DiodeParams params_;
};

}  // namespace cmldft::devices
