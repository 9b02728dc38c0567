// Bipolar junction transistor: Ebers-Moll transport model with depletion and
// diffusion charge, NPN polarity (CML is an NPN-only style). Includes the
// multi-emitter variant used by the paper's area optimization (Fig. 15).
#pragma once

#include <memory>

#include "devices/junction.h"
#include "netlist/device.h"

namespace cmldft::devices {

/// Ebers-Moll parameters (SPICE .model NPN subset). Defaults are calibrated
/// for the paper's "VBE = 900 mV technology": VBE ~ 0.885 V at 0.6 mA.
struct BjtParams {
  double is = 8e-19;   ///< transport saturation current [A]
  double bf = 100.0;   ///< forward beta
  double br = 1.0;     ///< reverse beta
  double nf = 1.0;     ///< forward emission coefficient
  double nr = 1.0;     ///< reverse emission coefficient
  double cje = 30e-15; ///< B-E zero-bias depletion cap [F]
  double vje = 0.9;    ///< B-E junction potential [V]
  double mje = 0.33;   ///< B-E grading coefficient
  double cjc = 20e-15; ///< B-C zero-bias depletion cap [F]
  double vjc = 0.75;   ///< B-C junction potential [V]
  double mjc = 0.33;   ///< B-C grading coefficient
  double fc = 0.5;     ///< depletion-cap linearization point
  double tf = 2e-12;   ///< forward transit time [s]
  double tr = 0.0;     ///< reverse transit time [s]
  double eg = 1.12;    ///< bandgap [eV] for IS temperature scaling
  double xti = 3.0;    ///< IS temperature exponent
  double tnom = 300.15;///< parameter measurement temperature [K]
};

/// Saturation current at temperature T [K] (SPICE temperature model):
///   IS(T) = IS(Tnom) * (T/Tnom)^XTI * exp( (EG/k) * (1/Tnom - 1/T) )
/// At constant current this yields dVBE/dT = (VBE - EG - XTI*VT)/T — the
/// classic ~ -2 mV/K at ordinary current densities.
double SaturationCurrentAt(const BjtParams& params, double temp_k);

/// A BJT's model constants (Device::ComputeConstants), at these offsets:
/// IS(T) and its reverse share IS(T)*bc_scale, 1/(nf*VT) and 1/(nr*VT),
/// 1/bf and 1/br, then the B-E and the B-C junctions' DepletionConstants.
/// The B-C junction and the reverse transport current are scaled by
/// `bc_scale` (see MultiEmitterBjt).
enum BjtConstant : int {
  kBjtIs,
  kBjtIsReverse,
  kBjtInvNfVt,
  kBjtInvNrVt,
  kBjtInvBf,
  kBjtInvBr,
  kBjtBeDepletion,
  kBjtBcDepletion = kBjtBeDepletion + kDepletionConstants,
  kBjtConstants = kBjtBcDepletion + kDepletionConstants,
};
void ComputeBjtConstants(const BjtParams& params, double bc_scale,
                         double temp_k, double* out);

/// NPN transistor. Terminals: {collector, base, emitter}.
class Bjt : public netlist::Device {
 public:
  Bjt(std::string name, netlist::NodeId collector, netlist::NodeId base,
      netlist::NodeId emitter, BjtParams params = {})
      : Device(std::move(name), {collector, base, emitter}), params_(params) {}

  const BjtParams& params() const { return params_; }
  void set_params(const BjtParams& p) {
    params_ = p;
    ConstantsChanged();
  }

  netlist::NodeId collector() const { return node(0); }
  netlist::NodeId base() const { return node(1); }
  netlist::NodeId emitter() const { return node(2); }

  bool is_nonlinear() const override { return true; }
  int num_states() const override { return 4; }
  int num_constants() const override { return kBjtConstants; }
  void ComputeConstants(double temp_k, double* out) const override {
    ComputeBjtConstants(params_, /*bc_scale=*/1.0, temp_k, out);
  }
  void Stamp(netlist::StampContext& ctx) const override;
  std::unique_ptr<netlist::Device> Clone() const override {
    return std::make_unique<Bjt>(*this);
  }
  std::string_view kind() const override { return "bjt"; }

 private:
  BjtParams params_;
};

/// NPN with N emitters sharing one base and collector — the paper's §6.5
/// area optimization replaces the two detector transistors of variants 2/3
/// with one two-emitter transistor. Terminals: {collector, base, e0, e1, ...}.
/// Electrically modeled as N transport pairs sharing a single B-C junction.
class MultiEmitterBjt : public netlist::Device {
 public:
  MultiEmitterBjt(std::string name, netlist::NodeId collector,
                  netlist::NodeId base, std::vector<netlist::NodeId> emitters,
                  BjtParams params = {});

  const BjtParams& params() const { return params_; }
  int num_emitters() const { return num_terminals() - 2; }

  bool is_nonlinear() const override { return true; }
  int num_states() const override { return 4 * num_emitters(); }
  int num_constants() const override { return kBjtConstants; }
  void ComputeConstants(double temp_k, double* out) const override {
    // Emitters share one B-C junction.
    ComputeBjtConstants(params_, 1.0 / num_emitters(), temp_k, out);
  }
  void Stamp(netlist::StampContext& ctx) const override;
  std::unique_ptr<netlist::Device> Clone() const override {
    return std::make_unique<MultiEmitterBjt>(*this);
  }
  std::string_view kind() const override { return "bjt_multi_emitter"; }

 private:
  BjtParams params_;
};

}  // namespace cmldft::devices
