// CML cell library: builds gate-level CML cells (Figure 1 style) into a
// flat netlist with hierarchical node/device names.
#pragma once

#include <string>
#include <vector>

#include "cml/technology.h"
#include "netlist/netlist.h"

namespace cmldft::cml {

/// A differential CML signal: true and complement nodes.
struct DiffPort {
  netlist::NodeId p = netlist::kInvalidNode;
  netlist::NodeId n = netlist::kInvalidNode;
  std::string p_name;
  std::string n_name;
};

/// Builds CML cells into a netlist. All cells share the rails and bias
/// created by the constructor: node "vgnd" (top rail), the global ground
/// (vee = 0 V), and node "vbias" feeding every current-source base.
///
/// Device naming follows the paper's Figure 1 within each cell:
///   <cell>.q1 / <cell>.q2  differential pair (q1 on the true input)
///   <cell>.q3              current source  (the pipe-defect target)
///   <cell>.rc1 / <cell>.rc2 collector loads (rc1 loads opb, rc2 loads op)
///   <cell>.re              current-source degeneration
///   <cell>.op / <cell>.opb output nodes
class CellBuilder {
 public:
  CellBuilder(netlist::Netlist& netlist, const CmlTechnology& tech);

  const CmlTechnology& tech() const { return tech_; }
  netlist::Netlist& netlist() { return *netlist_; }

  netlist::NodeId vgnd() const { return vgnd_; }
  netlist::NodeId vbias() const { return vbias_; }

  // --- stimulus ----------------------------------------------------------
  /// Complementary square-wave pair at CML levels (v_low/v_high), 50% duty.
  /// Edge time defaults to min(30 ps, 5% of the period).
  DiffPort AddDifferentialClock(const std::string& name, double frequency,
                                double delay = 0.0, double edge_time = 0.0);
  /// Static differential level (true = p high).
  DiffPort AddDifferentialDc(const std::string& name, bool value);

  // --- cells -------------------------------------------------------------
  /// Basic data buffer (paper Figure 1).
  DiffPort AddBuffer(const std::string& name, const DiffPort& in);
  /// Emitter-follower pair shifting a signal down one VBE (for driving
  /// lower differential pairs of stacked gates).
  DiffPort AddLevelShifter(const std::string& name, const DiffPort& in);
  /// Two-level stacked gates; lower-level inputs are level-shifted
  /// internally. Inputs are top-level CML signals.
  DiffPort AddAnd2(const std::string& name, const DiffPort& a, const DiffPort& b);
  DiffPort AddOr2(const std::string& name, const DiffPort& a, const DiffPort& b);
  DiffPort AddXor2(const std::string& name, const DiffPort& a, const DiffPort& b);
  /// out = sel ? a : b.
  DiffPort AddMux2(const std::string& name, const DiffPort& a,
                   const DiffPort& b, const DiffPort& sel);
  /// Level-sensitive D latch (transparent while clk high).
  DiffPort AddLatch(const std::string& name, const DiffPort& d,
                    const DiffPort& clk);
  /// Rising-edge D flip-flop: master latch ("<name>.m", transparent while
  /// clk is low) plus slave latch ("<name>"). The slave's outputs are the
  /// DFF outputs.
  DiffPort AddDff(const std::string& name, const DiffPort& d,
                  const DiffPort& clk);

  /// Chain of `n` buffers (the paper's Figure 3 testbench). Returns the
  /// output port of every stage, index 0 = first buffer. Cells are named
  /// "<prefix><i>" (e.g. x0..x7); pass `names` to use the paper's
  /// X11/X22/DUT/... naming.
  std::vector<DiffPort> AddBufferChain(const std::string& prefix,
                                       const DiffPort& in, int n,
                                       const std::vector<std::string>& names = {});

  /// Balanced binary tree of `n` buffers fanning out from `in` (a clock /
  /// load-sharing distribution testbench): buffer i ("<prefix><i>", BFS
  /// order) is driven by buffer (i-1)/2, buffer 0 by `in`. Returns the
  /// output port of every buffer, index = BFS position.
  std::vector<DiffPort> AddBufferTree(const std::string& prefix,
                                      const DiffPort& in, int n);

  /// Make a DiffPort from two existing node names (for parsed netlists).
  DiffPort PortOf(const std::string& p_name, const std::string& n_name);

 private:
  netlist::NodeId Node(const std::string& name);
  /// Current source Q3+RE under node `tail`, biased for tech.tail_current.
  void AddTailSource(const std::string& cell, netlist::NodeId tail);
  /// Collector load resistor + wire capacitance on an output node.
  void AddOutputLoad(const std::string& cell, const std::string& res_name,
                     netlist::NodeId out);
  /// Register devices [first_device, num_devices()) as one cell instance
  /// named `name` (hierarchy metadata for sim/hier.h).
  void RegisterCell(const std::string& name, int first_device);

  netlist::Netlist* netlist_;
  CmlTechnology tech_;
  netlist::NodeId vgnd_;
  netlist::NodeId vbias_;
};

}  // namespace cmldft::cml
