// Flat circuit container: a node name table plus an ordered list of devices.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/device.h"
#include "netlist/node.h"
#include "util/status.h"

namespace cmldft::netlist {

/// Annotation of a group of devices forming one instance of a repeated
/// cell (a CML buffer, gate, level shifter, ...). Purely advisory: the
/// flat netlist and every flat solver ignore it, but the hierarchical
/// bordered-block-diagonal solver (sim/hier.h) uses the grouping to
/// partition MNA unknowns into per-cell internal blocks plus a shared
/// interconnect border. Devices are referenced *by name* so the
/// annotation survives defect injection (RemoveDevice reindexes
/// ordinals; names of surviving devices stay stable) — consumers skip
/// names that no longer resolve.
struct CellInstance {
  std::string name;                  ///< instance name, e.g. "x1"
  std::vector<std::string> devices;  ///< member device names
};

/// A flat netlist. Node 0 is always ground (named "0", alias "gnd").
/// Devices are owned; order is stable (insertion order), which keeps MNA
/// unknown numbering and results deterministic.
class Netlist {
 public:
  Netlist();
  Netlist(const Netlist& other);
  Netlist& operator=(const Netlist& other);
  Netlist(Netlist&&) = default;
  Netlist& operator=(Netlist&&) = default;

  // --- nodes -------------------------------------------------------------
  /// Get-or-create a node by name. "0" and "gnd" map to ground.
  NodeId AddNode(const std::string& name);
  /// Create a fresh node with a unique generated name derived from `hint`.
  NodeId AddUniqueNode(const std::string& hint);
  /// Lookup; kInvalidNode if absent.
  NodeId FindNode(const std::string& name) const;
  const std::string& NodeName(NodeId id) const;
  /// Total number of nodes including ground.
  int num_nodes() const { return static_cast<int>(node_names_.size()); }

  // --- devices -----------------------------------------------------------
  /// Take ownership; device names must be unique (asserted).
  Device* AddDevice(std::unique_ptr<Device> device);
  Device* FindDevice(const std::string& name);
  const Device* FindDevice(const std::string& name) const;
  util::Status RemoveDevice(const std::string& name);

  int num_devices() const { return static_cast<int>(devices_.size()); }
  Device& device(int i) { return *devices_.at(static_cast<size_t>(i)); }
  const Device& device(int i) const { return *devices_.at(static_cast<size_t>(i)); }

  /// Stable iteration over devices.
  template <typename Fn>
  void ForEachDevice(Fn&& fn) const {
    for (const auto& d : devices_) fn(*d);
  }
  template <typename Fn>
  void ForEachDevice(Fn&& fn) {
    for (auto& d : devices_) fn(*d);
  }

  /// All device names connected to `node` (for defect enumeration reports).
  std::vector<std::string> DevicesOnNode(NodeId node) const;

  // --- cell instances ----------------------------------------------------
  /// Record that a named group of devices forms one instance of a
  /// repeated cell type. Advisory metadata (see CellInstance); instances
  /// with an empty device list are ignored.
  void AddCellInstance(CellInstance instance);
  const std::vector<CellInstance>& cell_instances() const {
    return cell_instances_;
  }

  /// Human-readable summary (node & device counts, per-kind histogram).
  std::string Summary() const;

 private:
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> node_index_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unordered_map<std::string, size_t> device_index_;
  std::vector<CellInstance> cell_instances_;
  int unique_counter_ = 0;
};

}  // namespace cmldft::netlist
