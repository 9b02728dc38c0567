// Defect models (paper §3/§5): shorts, bridges, opens, collector-emitter
// pipes, resistor shorts/opens — each realized exactly as the paper models
// them in a SPICE-like simulator:
//   short/bridge : ~1 Ohm resistor between the two nodes
//   open         : node split + 100 MOhm resistor in parallel with 1 fF
//   pipe         : a few-kOhm resistor between collector and emitter
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "util/status.h"

namespace cmldft::defects {

enum class DefectType {
  kTransistorPipe,      ///< C-E pipe on a BJT (resistive kOhm path)
  kTransistorShort,     ///< short between two BJT terminals
  kTransistorOpen,      ///< open at a BJT terminal
  kResistorShort,       ///< 1 Ohm across a resistor
  kResistorOpen,        ///< resistor strip severed (series open)
  kBridge,              ///< resistive short between two arbitrary nets
  kWireOpen,            ///< open in a wire at a device terminal
};

std::string_view DefectTypeName(DefectType type);

/// A concrete injectable defect. `device` is the target device name;
/// terminal indices follow the device's terminal order (BJT: 0=C 1=B 2=E).
/// Bridges use node names instead.
struct Defect {
  DefectType type = DefectType::kTransistorPipe;
  std::string device;
  int terminal_a = 0;
  int terminal_b = 2;
  std::string node_a;  // bridges only
  std::string node_b;  // bridges only
  /// Electrical value of the defect: pipe/short/bridge resistance [Ohm].
  double resistance = 4e3;

  /// Unique, human-readable id, e.g. "pipe(dut.q3,4k)".
  std::string Id() const;
};

/// Default electrical values (paper §3).
inline constexpr double kShortResistance = 1.0;        // ~1 Ohm
inline constexpr double kOpenResistance = 100e6;       // 100 MOhm
inline constexpr double kOpenCapacitance = 1e-15;      // 1 fF
inline constexpr double kDefaultPipeResistance = 4e3;  // "a few KOhm"

/// Inject `defect` into `netlist` (mutating it). Added devices are named
/// "fault.*"; opens rewire the target terminal onto a fresh node. A pipe,
/// transistor short or bridge whose resistance is not finite and > 0 is
/// InvalidArgument naming the defect: a 0 Ohm defect is refused, never
/// stamped as an infinite conductance.
util::Status InjectDefect(netlist::Netlist& netlist, const Defect& defect);

/// Convenience: copy the netlist and inject.
util::StatusOr<netlist::Netlist> WithDefect(const netlist::Netlist& netlist,
                                            const Defect& defect);

/// Controls for defect-universe enumeration.
struct EnumerationOptions {
  bool transistor_pipes = true;
  bool transistor_shorts = true;
  bool transistor_opens = true;
  bool resistor_shorts = true;
  bool resistor_opens = true;
  /// Bridge every gate-output pair that matches these suffix pairs
  /// ("op"/"opb") — adjacent differential wires are the likeliest bridges.
  bool output_bridges = true;
  /// Pipe resistances to enumerate [Ohm].
  std::vector<double> pipe_values = {1e3, 2e3, 3e3, 4e3, 5e3};
  /// Skip devices whose name starts with one of these prefixes (e.g. the
  /// stimulus/bias infrastructure is usually excluded from the universe).
  std::vector<std::string> exclude_prefixes = {"V", "fault."};
};

/// Enumerate the (equiprobable, per the paper) defect universe of a netlist.
std::vector<Defect> EnumerateDefects(const netlist::Netlist& netlist,
                                     const EnumerationOptions& options = {});

}  // namespace cmldft::defects
