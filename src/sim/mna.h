// Modified Nodal Analysis system: unknown numbering, the assembled
// Jacobian/RHS, integrator states and the analysis context devices stamp
// against.
//
// Assembly (see docs/performance.md, "Newton fast path"): devices stamp
// through one concrete netlist::StampContext. The first Assemble() records
// every matrix/RHS/state destination each device touches and resolves the
// sequence into a flat plan of write targets (dense: pointer into the
// row-major Jacobian; sparse: pointer into the builder's frozen slot).
// Every later Assemble() replays it — each stamp writes to the next
// target, with no index lookups. A device that takes a different stamp
// path (a different call count; in debug builds any different
// destination) or a sparsity-pattern change forces a re-record. Device
// bypass layers on top (opt-in): devices whose inputs did not move since
// their last stamp write cached values through the same targets instead
// of re-evaluating their model.
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
  // Setters bump the stamp epoch on a value change so cached device
  // contributions from a different context are never replayed.
  // Setters for time/dt/state bump only the stamp epoch; the rest also
  // bump the context epoch (ctx_epoch_). Bypass distinguishes the two: a
  // stamp-epoch change alone (the clock advanced, a step was accepted) is
  // survivable for a dynamic device because everything such a device reads
  // — its inputs, its previous state, dt — is re-validated against the
  // cache, while a context-epoch change (mode, method, gmin, temperature,
  // source scale, initialization) always invalidates.
  void set_mode(netlist::AnalysisMode m) {
    if (analysis_.mode != m) {
      analysis_.mode = m;
      ++stamp_epoch_;
      ++ctx_epoch_;
    }
  }
  void set_time(double t) {
    if (analysis_.time != t) { analysis_.time = t; ++stamp_epoch_; }
  }
  void set_dt(double dt) {
    if (analysis_.dt != dt) { analysis_.dt = dt; ++stamp_epoch_; }
  }
  void set_method(netlist::IntegrationMethod m) {
    if (analysis_.method != m) {
      analysis_.method = m;
      ++stamp_epoch_;
      ++ctx_epoch_;
    }
  }
  void set_gmin(double g) {
    if (analysis_.gmin != g) {
      analysis_.gmin = g;
      ++stamp_epoch_;
      ++ctx_epoch_;
    }
  }
  /// Also marks every device's model constants stale: they are
  /// recomputed at the new temperature on their next stamp.
  void set_temperature(double t);
  // first_iteration is advisory (no device model consults it — see
  // netlist::AnalysisState), so it is deliberately excluded from the
  // stamp epoch: bumping it here would invalidate every bypass cache
  // between the first and second iteration of each solve.
  void set_first_iteration(bool b) { analysis_.first_iteration = b; }
  void set_source_scale(double s) {
    if (analysis_.source_scale != s) {
      analysis_.source_scale = s;
      ++stamp_epoch_;
      ++ctx_epoch_;
    }
  }
  void set_initializing_state(bool b) {
    if (analysis_.initializing_state != b) {
      analysis_.initializing_state = b;
      ++stamp_epoch_;
      ++ctx_epoch_;
    }
  }
  const netlist::AnalysisState& analysis() const { return analysis_; }

  /// Assemble Jacobian and RHS at the given iterate (solving J x = rhs
  /// yields the next Newton iterate directly). In sparse mode the Jacobian
  /// goes into sparse_jacobian() instead of jacobian().
  void Assemble(const linalg::Vector& iterate);


  /// Route stamps into a sparse builder instead of the dense matrix
  /// (worth it above a few hundred unknowns; results are identical).
  /// A change of routing re-records the stamp plan at the next Assemble().
  void set_sparse(bool sparse);
  bool sparse() const { return sparse_; }

  const linalg::Matrix& jacobian() const { return jacobian_; }
  const linalg::SparseBuilder& sparse_jacobian() const { return sparse_jac_; }
  const linalg::Vector& rhs() const { return rhs_; }

  /// y = J x with the currently assembled Jacobian (dense or sparse).
  /// Used by the Jacobian-reuse path to form residuals without factoring.
  linalg::Vector MultiplyJacobian(const linalg::Vector& x) const;
  /// Same, into a caller-owned buffer (bit-identical; no allocation).
  void MultiplyJacobian(const linalg::Vector& x, linalg::Vector* y) const;

  /// Persistent sparse solver: because the MNA sparsity pattern is fixed
  /// for the lifetime of this system, the solver's symbolic factorization
  /// and pivot order survive across Newton iterations *and* timepoints —
  /// callers use SparseLu::Refactor() for numeric-only refactorization.
  linalg::SparseLu& sparse_solver() { return sparse_lu_; }

  /// Device bypass (opt-in): replay a device's cached stamp values when
  /// its terminal voltages and branch currents moved less than
  /// |dV| < abstol + reltol * |V| since they were cached and the analysis
  /// context (time, dt, mode, ...) is unchanged. Linear context-free
  /// devices replay bit-identically; nonlinear/stateful devices introduce
  /// a bounded model error — see NewtonOptions::bypass.
  void set_bypass(bool enabled, double reltol, double abstol);
  bool bypass() const { return bypass_; }

  /// True when the last Assemble() replayed every device from the bypass
  /// cache: the assembled Jacobian and RHS are bit-identical to the
  /// assembly that populated the caches, so a factorization taken from
  /// that assembly is still exact and callers may skip refactoring.
  bool last_assemble_all_bypassed() const {
    return last_assemble_all_bypassed_;
  }

  /// Drop all cached device contributions. Engines must call this after
  /// mutating a device in place (e.g. a source sweep rewriting a waveform)
  /// so bypass never replays stamps from the pre-mutation device.
  void InvalidateDeviceCaches();

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
  /// Size the bypass caches and per-device classes to a new plan.
  void CompileBypass();
  // Which cache way (0 = primary, 1 = alternate) may serve this device's
  // stamp, or -1 to re-evaluate the model.
  int CanBypassWay(size_t index) const;
  bool CanBypassAlt(size_t index) const;
  void CaptureCache(size_t index);
  void PromoteCacheToAlt(size_t index);

  // Bypass eligibility, decided at plan compile time.
  enum class DeviceClass : uint8_t {
    kPure,           // linear, stateless, context-free: replay always
    kContextStatic,  // linear, stateless, context-dependent: same epoch
    kDynamic,        // nonlinear or stateful: same epoch + input tolerance
  };

  const netlist::Netlist* netlist_;
  std::unique_ptr<HierSolver> hier_;
  bool hier_checked_ = false;
  std::vector<netlist::DeviceSlots> slots_;  // indexed by Device::ordinal()
  int num_devices_ = 0;
  int num_node_unknowns_ = 0;
  int num_unknowns_ = 0;
  int num_states_ = 0;

  netlist::AnalysisState analysis_;
  const linalg::Vector* iterate_ = nullptr;  // during Assemble()
  bool sparse_ = false;
  linalg::SparseBuilder sparse_jac_{0};
  linalg::SparseLu sparse_lu_;
  linalg::Matrix jacobian_;
  linalg::Vector rhs_;
  std::vector<double> prev_states_;
  std::vector<double> curr_states_;
  // Model constants (Device::ComputeConstants) at constant_offset, and per
  // device the constants_revision() they were computed at (0 = stale).
  std::vector<double> constants_;
  std::vector<uint64_t> constants_revision_;

  // The compiled plan. Replayable while it was compiled for the present
  // routing and (sparse) builder pattern.
  netlist::StampContext ctx_;
  bool plan_sparse_ = false;
  uint64_t plan_pattern_version_ = 0;  // sparse builder structure snapshot
  std::vector<DeviceClass> device_class_;

  // Bypass state. Caches live at plan positions so a bypassed device's
  // contribution replays through the same compiled targets.
  bool bypass_ = false;
  double bypass_reltol_ = 0.0;
  double bypass_abstol_ = 0.0;
  uint64_t stamp_epoch_ = 1;
  uint64_t ctx_epoch_ = 1;  // stamp_epoch_ minus time/dt/state changes
  std::vector<double> mat_vals_;    // captured matrix values, per plan entry
  std::vector<double> rhs_vals_;    // captured RHS values
  std::vector<double> state_vals_;  // captured state values
  std::vector<uint8_t> cache_valid_;       // per device
  std::vector<uint64_t> cache_epoch_;      // per device
  std::vector<uint64_t> cache_ctx_epoch_;  // per device
  std::vector<double> cache_dt_;           // per device: dt at capture
  // Alternate (second) cache way. The trapezoidal rule is A- but not
  // L-stable: companion-current states of fast poles ring at the grid's
  // Nyquist rate forever, alternating between two values step after step,
  // so a single-entry cache keyed on "inputs unchanged" can never hit
  // across timepoints. Before a re-evaluation overwrites a cache captured
  // at an older timepoint, the old entry is demoted to this alternate way;
  // in a period-2 ripple the two ways converge to the two ripple phases
  // and the device stops evaluating entirely until the ripple drifts out
  // of tolerance. The alternate way serves cross-timepoint hits only, so
  // it keeps no stamp-epoch tag — just the context/dt/state/input
  // snapshot the cross-epoch check validates.
  std::vector<double> mat_vals_alt_;
  std::vector<double> rhs_vals_alt_;
  std::vector<double> state_vals_alt_;
  std::vector<uint8_t> cache_valid_alt_;
  std::vector<uint64_t> cache_ctx_epoch_alt_;
  std::vector<double> cache_dt_alt_;
  std::vector<double> input_cache_alt_;
  std::vector<double> state_input_vals_alt_;
  bool last_assemble_all_bypassed_ = false;
  // Dynamic device whose stamp never reads ctx.time(): may bypass across
  // a stamp-epoch change once context, dt, inputs, AND previous state all
  // check out (has_time_dependent_stamp() == false at compile time).
  std::vector<uint8_t> time_free_;
  // Previous-state values each SetState slot's device observed at capture
  // time, parallel to the plan's state writes (companion models read and
  // write the same slots). Compared against the bypass tolerance relative to the
  // slot's SCALE, not its instantaneous value: state magnitudes (charges
  // ~ C*V, junction currents) have no common absolute unit, so each slot
  // tracks the largest magnitude it has ever carried and tolerates drift
  // up to bypass_reltol * that scale. A pure |cached|-relative bound
  // would pin the tolerance to zero whenever a state crosses zero, which
  // permanently disables bypass for every companion model with an
  // oscillating or settling state; scaling by the historical magnitude
  // bounds the replayed companion-current error by the same relative
  // error the input check already accepts at the slot's real signal
  // level.
  std::vector<double> state_input_vals_;
  std::vector<double> state_scale_;  // running max |state| per slot
  // Input layout compiled with the plan: device i's inputs are
  // input_cache_[input_cache_offset_[i] .. input_cache_offset_[i + 1]),
  // and input_unknowns_ holds the unknown index each input reads from
  // (-1 for a grounded terminal) so the bypass check never touches the
  // Device object.
  std::vector<uint32_t> input_cache_offset_;  // num_devices_ + 1 entries
  std::vector<int32_t> input_unknowns_;
  std::vector<double> input_cache_;  // terminal voltages + branch currents
};

}  // namespace cmldft::sim
