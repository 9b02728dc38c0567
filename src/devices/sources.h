// Independent sources (V and I) with DC / PULSE / SIN / PWL waveforms, and
// a voltage-controlled voltage source (ideal amplifier for testbenches).
#pragma once

#include <memory>
#include <vector>

#include "netlist/device.h"

namespace cmldft::devices {

/// Time-dependent source waveform description.
class Waveform {
 public:
  enum class Kind { kDc, kPulse, kSin, kPwl };

  /// Constant value.
  static Waveform Dc(double value);
  /// SPICE PULSE(v1 v2 delay rise fall width period): rise, fall and
  /// period > 0, width and delay >= 0, rise + width + fall <= period.
  static Waveform Pulse(double v1, double v2, double delay, double rise,
                        double fall, double width, double period);
  /// SPICE SIN(offset amplitude freq delay damping).
  static Waveform Sin(double offset, double amplitude, double freq,
                      double delay = 0.0, double damping = 0.0);
  /// Piecewise linear (time, value) points; time must be non-decreasing.
  static Waveform Pwl(std::vector<std::pair<double, double>> points);

  Kind kind() const { return kind_; }

  /// Value at `time` for transient; DC analyses use the t=0 value (for
  /// PULSE this is v1, matching SPICE).
  double ValueAt(double time) const;
  double DcValue() const;

  /// Time of the next waveform corner/discontinuity strictly after `time`
  /// (so the transient engine can place timepoints on edges). Returns +inf
  /// when there is none.
  double NextBreakpoint(double time) const;

  /// Repetition period: the PULSE period or 1/freq of a SIN; +inf for DC,
  /// PWL and a SIN with no positive frequency.
  double Period() const;

 private:
  Kind kind_ = Kind::kDc;
  // kDc / kPulse / kSin parameters (interpretation per kind).
  double p_[7] = {0, 0, 0, 0, 0, 0, 0};
  std::vector<std::pair<double, double>> pwl_;
};

/// Ideal independent voltage source. Terminals: {plus, minus}.
/// Contributes one branch-current unknown (current flows plus -> minus
/// through the source, the SPICE convention).
class VSource : public netlist::Device {
 public:
  VSource(std::string name, netlist::NodeId plus, netlist::NodeId minus,
          Waveform waveform)
      : Device(std::move(name), {plus, minus}), waveform_(std::move(waveform)) {}

  const Waveform& waveform() const { return waveform_; }
  void set_waveform(Waveform w) { waveform_ = std::move(w); }

  int num_branches() const override { return 1; }
  void Stamp(netlist::StampContext& ctx) const override;
  std::unique_ptr<netlist::Device> Clone() const override {
    return std::make_unique<VSource>(*this);
  }
  std::string_view kind() const override { return "vsource"; }

 private:
  Waveform waveform_;
};

/// Ideal independent current source. Terminals: {plus, minus}; positive
/// current flows from plus through the source to minus.
class ISource : public netlist::Device {
 public:
  ISource(std::string name, netlist::NodeId plus, netlist::NodeId minus,
          Waveform waveform)
      : Device(std::move(name), {plus, minus}), waveform_(std::move(waveform)) {}

  const Waveform& waveform() const { return waveform_; }

  void Stamp(netlist::StampContext& ctx) const override;
  std::unique_ptr<netlist::Device> Clone() const override {
    return std::make_unique<ISource>(*this);
  }
  std::string_view kind() const override { return "isource"; }

 private:
  Waveform waveform_;
};

/// Voltage-controlled voltage source: V(p) - V(n) = gain * (V(cp) - V(cn)).
/// Terminals: {p, n, cp, cn}. One branch unknown.
class Vcvs : public netlist::Device {
 public:
  Vcvs(std::string name, netlist::NodeId p, netlist::NodeId n,
       netlist::NodeId cp, netlist::NodeId cn, double gain)
      : Device(std::move(name), {p, n, cp, cn}), gain_(gain) {}

  double gain() const { return gain_; }

  int num_branches() const override { return 1; }
  void Stamp(netlist::StampContext& ctx) const override;
  std::unique_ptr<netlist::Device> Clone() const override {
    return std::make_unique<Vcvs>(*this);
  }
  std::string_view kind() const override { return "vcvs"; }

 private:
  double gain_;
};

}  // namespace cmldft::devices
