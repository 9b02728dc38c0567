// AC small-signal analysis: linearize the circuit at its DC operating
// point into G (conductance) and C (capacitance) matrices, then solve
// (G + jwC) x = b at each frequency with a unit-amplitude stimulus on a
// chosen source.
//
// G and C are extracted from the existing companion-model machinery (no
// per-device AC stamps needed): a transient assembly at the operating
// point with timestep dt contributes exactly G + C/dt under backward
// Euler, so two assemblies at different dt separate the two matrices.
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "sim/options.h"
#include "util/status.h"

namespace cmldft::sim {

struct AcOptions {
  DcOptions dc;  ///< operating-point controls
};

/// Small-signal response at one frequency: complex node voltages indexed
/// by NodeId (ground = 0).
struct AcPoint {
  double frequency = 0.0;
  std::vector<std::complex<double>> node_voltages;
};

class AcResult {
 public:
  AcResult(const netlist::Netlist* netlist, std::vector<AcPoint> points)
      : netlist_(netlist), points_(std::move(points)) {}

  const std::vector<AcPoint>& points() const { return points_; }

  /// |V(node)| across frequency.
  std::vector<double> Magnitude(const std::string& node) const;
  /// Phase [radians].
  std::vector<double> Phase(const std::string& node) const;
  std::vector<double> Frequencies() const;

  /// First frequency where |V(node)| falls below |V(node)|_first / sqrt(2)
  /// (the -3 dB corner); 0 if never within the sweep.
  double Corner3dB(const std::string& node) const;

 private:
  const netlist::Netlist* netlist_;
  std::vector<AcPoint> points_;
};

/// Run an AC sweep. `source_name` must be a VSource; it provides the
/// unit-amplitude small-signal stimulus (its DC value still sets the
/// operating point). Frequencies in Hz.
util::StatusOr<AcResult> RunAc(const netlist::Netlist& netlist,
                               const std::string& source_name,
                               const std::vector<double>& frequencies,
                               const AcOptions& options = {});

/// Log-spaced frequency grid [f_start, f_stop] with `points_per_decade`.
std::vector<double> LogFrequencies(double f_start, double f_stop,
                                   int points_per_decade = 10);

}  // namespace cmldft::sim
