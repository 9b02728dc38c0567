// Modified Nodal Analysis system: unknown numbering, the assembled
// Jacobian/RHS, integrator states and the analysis context devices stamp
// against.
//
// Assembly (see docs/performance.md, "Stamp plans"): devices stamp
// through one concrete netlist::StampContext into one target, a sparse
// builder. The first Assemble() records every matrix/RHS/state
// destination each device touches and resolves the sequence into a flat
// plan of write targets (pointers into the builder's slots). Every later
// Assemble() replays it — each stamp writes to the next target, with no
// index lookups. A device that takes a different stamp path (a different
// call count; in debug builds any different destination) forces a
// re-record, which rebuilds the builder's pattern. Every Assemble()
// evaluates every device.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "netlist/netlist.h"
#include "netlist/stamp_context.h"
#include "util/status.h"

namespace cmldft::sim {

class HierSolver;

/// Owns the unknown numbering for a netlist (node voltages first, then
/// branch currents), the assembled Jacobian/RHS, the integrator state
/// vectors and the devices' model constants. One MnaSystem is reused
/// across all Newton iterations and timepoints of an analysis.
class MnaSystem {
 public:
  explicit MnaSystem(const netlist::Netlist& netlist);
  ~MnaSystem();  // out-of-line: hier_ is incomplete here

  // The compiled stamp targets point into this object's own Jacobian
  // storage; copying would alias them onto the source.
  MnaSystem(const MnaSystem&) = delete;
  MnaSystem& operator=(const MnaSystem&) = delete;

  const netlist::Netlist& netlist() const { return *netlist_; }

  int num_unknowns() const { return num_unknowns_; }
  int num_node_unknowns() const { return num_node_unknowns_; }

  /// Unknown index of a node (-1 for ground).
  int UnknownOfNode(netlist::NodeId node) const;
  /// Unknown index of a device branch slot.
  int UnknownOfBranch(const netlist::Device& dev, int slot) const;

  // --- analysis configuration (set by the engines) ----------------------
  void set_mode(netlist::AnalysisMode m) { analysis_.mode = m; }
  void set_time(double t) { analysis_.time = t; }
  void set_dt(double dt) { analysis_.dt = dt; }
  void set_method(netlist::IntegrationMethod m) { analysis_.method = m; }
  void set_gmin(double g) { analysis_.gmin = g; }
  /// Also marks every device's model constants stale: they are
  /// recomputed at the new temperature on their next stamp.
  void set_temperature(double t);
  void set_first_iteration(bool b) { analysis_.first_iteration = b; }
  void set_source_scale(double s) { analysis_.source_scale = s; }
  void set_initializing_state(bool b) { analysis_.initializing_state = b; }
  const netlist::AnalysisState& analysis() const { return analysis_; }

  /// Assemble Jacobian and RHS at the given iterate (solving J x = rhs
  /// yields the next Newton iterate directly).
  void Assemble(const linalg::Vector& iterate);

  const linalg::SparseBuilder& sparse_jacobian() const { return sparse_jac_; }
  const linalg::Vector& rhs() const { return rhs_; }
  /// A dense copy of the assembled Jacobian (AC linearization, tests).
  linalg::Matrix jacobian() const { return sparse_jac_.ToDense(); }
  /// Always true: the Jacobian is only assembled sparse. Kept for the
  /// end-to-end benchmark's probes (e2ebench/), which still ask.
  bool sparse() const { return true; }

  /// Persistent sparse solver: because the MNA sparsity pattern is fixed
  /// for the lifetime of this system, the solver's symbolic factorization
  /// and pivot order survive across Newton iterations *and* timepoints —
  /// callers use SparseLu::Refactor() for numeric-only refactorization.
  linalg::SparseLu& sparse_solver() { return sparse_lu_; }

  // --- integrator state --------------------------------------------------
  /// Promote the states written during the last converged solve to
  /// "previous" (call when a timepoint is accepted).
  void RotateStates();
  /// Copy previous states into current (call when a step is rejected so a
  /// retry starts clean).
  void ResetCurrentStates();

  /// Lazily built hierarchical bordered-block-diagonal solver over the
  /// netlist's cell-instance annotations (sim/hier.h); nullptr when the
  /// netlist carries none worth eliminating. The Newton loop consults
  /// this only when NewtonOptions::hierarchical is set.
  HierSolver* GetHierSolver();

 private:
  friend class HierSolver;  // stamps through Frame() into its own targets
  class FlatOwner;

  /// The arrays a stamping pass at `iterate` reads and writes.
  netlist::StampFrame Frame(const linalg::Vector& iterate);

  void RecordAssemble();
  bool ReplayAssemble();  // false on plan mismatch (plan is dropped)

  const netlist::Netlist* netlist_;
  std::unique_ptr<HierSolver> hier_;
  bool hier_checked_ = false;
  std::vector<netlist::DeviceSlots> slots_;  // indexed by Device::ordinal()
  int num_devices_ = 0;
  int num_node_unknowns_ = 0;
  int num_unknowns_ = 0;
  int num_states_ = 0;

  netlist::AnalysisState analysis_;
  linalg::SparseBuilder sparse_jac_{0};
  linalg::SparseLu sparse_lu_;
  linalg::Vector rhs_;
  std::vector<double> prev_states_;
  std::vector<double> curr_states_;
  // Model constants (Device::ComputeConstants) at constant_offset, and per
  // device the constants_revision() they were computed at (0 = stale).
  std::vector<double> constants_;
  std::vector<uint64_t> constants_revision_;

  // The compiled plan; only a re-record changes the builder's pattern.
  netlist::StampContext ctx_;
};

}  // namespace cmldft::sim
