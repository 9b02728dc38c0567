// The one class devices stamp (load) their linearized companion models
// through. It is concrete — devices call it without virtual dispatch — and
// every assembler uses it the same way: the first pass over a device list
// *records* each write's destination through an owner-specific Owner, the
// recorded (row, col) keys are resolved once into raw target pointers, and
// every later pass *replays*: each Add* call writes to the next compiled
// target of the device's span. The owner decides only where a key lands —
// the flat dense or sparse Jacobian (sim/mna.h), a hierarchical cell's
// blocks or the hierarchical border (sim/hier.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/node.h"

namespace cmldft::netlist {

class Device;

/// What the engine is currently computing. Devices adapt their companion
/// models: capacitors are open in DC, sources evaluate at `time` in
/// transient, etc.
enum class AnalysisMode {
  kDcOperatingPoint,
  kDcSweep,
  kTransient,
};

/// Numerical integration method for charge-storage elements.
enum class IntegrationMethod {
  kBackwardEuler,
  kTrapezoidal,
};

/// The analysis context every stamp reads. The owning system fills it.
struct AnalysisState {
  AnalysisMode mode = AnalysisMode::kDcOperatingPoint;
  /// Current simulation time [s]; 0 in DC analyses.
  double time = 0.0;
  /// Present timestep [s]; 0 in DC analyses.
  double dt = 0.0;
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  /// Shunt conductance added across semiconductor junctions to aid
  /// convergence (SPICE gmin). Devices add it themselves.
  double gmin = 1e-12;
  /// Simulation temperature [K].
  double temperature = 300.15;
  /// True on the first Newton iteration of the first timepoint, when no
  /// previous solution exists (advisory; no device model consults it).
  bool first_iteration = false;
  /// Homotopy factor in [0, 1] applied by independent sources (source
  /// stepping). 1 in normal operation.
  double source_scale = 1.0;
  /// True while solving the DC operating point that initializes a
  /// transient (capacitor states must be seeded, not differentiated).
  bool initializing_state = false;
};

/// Where one device's branch unknowns, integrator states and model
/// constants start in its system's arrays (-1 where it has none).
struct DeviceSlots {
  int branch_offset = -1;
  int state_offset = -1;
  int constant_offset = -1;
};

/// The system arrays a stamping pass reads, and the state and constant
/// arrays it writes, besides its compiled targets. Node n's voltage is
/// iterate[n - 1]; per-device arrays are indexed by Device::ordinal().
struct StampFrame {
  const AnalysisState* analysis = nullptr;
  const DeviceSlots* slots = nullptr;
  const double* iterate = nullptr;
  const double* prev_states = nullptr;
  double* curr_states = nullptr;
  /// Model constants (Device::ComputeConstants), filled on first use.
  double* constants = nullptr;
  /// Per device: the Device::constants_revision() its constants were
  /// computed at; 0 marks them stale (e.g. after a temperature change).
  uint64_t* constants_revision = nullptr;
};

/// Sign conventions: the MNA system is J x = rhs, where KCL rows state
/// "sum of currents *leaving* the node equals zero". StampCurrent() handles
/// the Newton linearization bookkeeping for nonlinear branch currents.
class StampContext {
 public:
  /// The owner-specific side of a recording pass. Its calls run only while
  /// recording, never on replay.
  class Owner {
   public:
    /// J(row, col) += value, written directly during the recording pass.
    virtual void RecordMatrix(int row, int col, double value) {
      *MatrixTarget(row, col) += value;
    }
    /// Where replays write J(row, col) and rhs(row); resolved after the
    /// recording pass (nullptr: no such slot, the plan stays uncompiled).
    virtual double* MatrixTarget(int row, int col) = 0;
    virtual double* RhsTarget(int row) = 0;

   protected:
    ~Owner() = default;
  };

  /// How replay applies the first write to each matrix target.
  enum class FirstTouch : uint8_t {
    /// Every write accumulates; the owner zeroes the targets each pass.
    kAccumulate,
    /// The first write stores v + 0.0, exactly what accumulating into a
    /// zero-filled matrix gives (0.0 + -0.0 == +0.0), so replay needs no
    /// zero fill.
    kStoreZeroed,
    /// The first write stores v + -0.0 == v, exactly what inserting into a
    /// freshly cleared sparse builder gives (-0.0 survives).
    kStoreRaw,
  };

  StampContext() = default;
  // Compiled targets point into the owner's storage; a copy would alias it.
  StampContext(const StampContext&) = delete;
  StampContext& operator=(const StampContext&) = delete;
  StampContext(StampContext&&) = default;
  StampContext& operator=(StampContext&&) = default;

  // --- analysis state -------------------------------------------------
  AnalysisMode mode() const { return frame_.analysis->mode; }
  double time() const { return frame_.analysis->time; }
  double dt() const { return frame_.analysis->dt; }
  IntegrationMethod method() const { return frame_.analysis->method; }
  double gmin() const { return frame_.analysis->gmin; }
  double temperature() const { return frame_.analysis->temperature; }
  bool first_iteration() const { return frame_.analysis->first_iteration; }
  double source_scale() const { return frame_.analysis->source_scale; }
  bool initializing_state() const {
    return frame_.analysis->initializing_state;
  }

  // --- present Newton iterate ------------------------------------------
  /// Voltage of node `n` at the present iterate (0 for ground).
  double V(NodeId n) const {
    return n == kGroundNode ? 0.0 : frame_.iterate[n - 1];
  }
  /// Branch current unknown `slot` of `dev` at the present iterate.
  double BranchCurrent(const Device& dev, int slot) const {
    return frame_.iterate[BranchUnknown(dev, slot)];
  }

  /// The device's model constants at the analysis temperature
  /// (Device::ComputeConstants), computed once per parameter revision and
  /// temperature and kept by the owning system.
  const double* Constants(const Device& dev);

  // --- raw stamps -------------------------------------------------------
  /// J(row_node, col_node) += g; either node may be ground (ignored).
  void AddNodeMatrix(NodeId row, NodeId col, double g) {
    if (row == kGroundNode || col == kGroundNode) return;
    Matrix(row - 1, col - 1, g);
  }
  /// rhs(row_node) += value.
  void AddNodeRhs(NodeId row, double value) {
    if (row == kGroundNode) return;
    Rhs(row - 1, value);
  }
  /// Stamps coupling between a device's branch-current unknown and nodes.
  void AddBranchNodeMatrix(const Device& dev, int slot, NodeId col,
                           double value) {
    if (col == kGroundNode) return;
    Matrix(BranchUnknown(dev, slot), col - 1, value);
  }
  void AddNodeBranchMatrix(NodeId row, const Device& dev, int slot,
                           double value) {
    if (row == kGroundNode) return;
    Matrix(row - 1, BranchUnknown(dev, slot), value);
  }
  void AddBranchBranchMatrix(const Device& dev, int slot, double value) {
    const int u = BranchUnknown(dev, slot);
    Matrix(u, u, value);
  }
  void AddBranchRhs(const Device& dev, int slot, double value) {
    Rhs(BranchUnknown(dev, slot), value);
  }

  // --- convenience stamps ----------------------------------------------
  /// Linear conductance g between a and b.
  void StampConductance(NodeId a, NodeId b, double g) {
    AddNodeMatrix(a, a, g);
    AddNodeMatrix(b, b, g);
    AddNodeMatrix(a, b, -g);
    AddNodeMatrix(b, a, -g);
  }

  /// Nonlinear branch current I flowing from `a` to `b`, evaluated at the
  /// present iterate, with conductance g = dI/d(Va - Vb). Stamps the Newton
  /// companion (g plus equivalent current source).
  void StampCurrent(NodeId a, NodeId b, double current, double g) {
    StampConductance(a, b, g);
    const double ieq = current - g * (V(a) - V(b));
    AddNodeRhs(a, -ieq);
    AddNodeRhs(b, ieq);
  }

  // --- integrator state -------------------------------------------------
  /// Value of state slot `slot` at the previous accepted timepoint.
  double PrevState(const Device& dev, int slot) const {
    return frame_.prev_states[StateSlot(dev, slot)];
  }
  /// Record state slot value for the timepoint being solved. Must be called
  /// every Stamp() so the accepted values are the converged ones.
  void SetState(const Device& dev, int slot, double value);

  // --- owner side: binding, recording, replay ----------------------------
  /// Point the context at its system's arrays; call before every pass.
  void Bind(const StampFrame& frame) { frame_ = frame; }

  /// True while a compiled plan exists for replay.
  bool compiled() const { return compiled_; }
  /// Drop the compiled plan; the next pass must record.
  void Invalidate() { compiled_ = false; }

  /// Recording pass: BeginRecord, Record() each device in order (its
  /// writes go through `owner`), then EndRecord, which resolves every
  /// key through the same owner. False when a key did not resolve.
  void BeginRecord(Owner& owner);
  void Record(const Device& dev);
  bool EndRecord(FirstTouch first_touch);

  /// Replay pass: BeginReplay, then Replay() each recorded device in
  /// order. Replay() stamps the device through its compiled targets and
  /// returns false when its writes no longer match them (a different call
  /// count, or in debug builds a different destination); the caller must
  /// then Invalidate() and record afresh.
  void BeginReplay() {
    mismatch_ = false;
    mat_pos_ = rhs_pos_ = state_pos_ = 0;
    device_pos_ = 0;
  }
  bool Replay(const Device& dev);  // defined in netlist/device.h

 private:
  // One device's ranges in the three compiled streams.
  struct Span {
    uint32_t mat_begin = 0, mat_end = 0;
    uint32_t rhs_begin = 0, rhs_end = 0;
    uint32_t state_begin = 0, state_end = 0;
  };

  // One compiled write, packed to 16 bytes: key = row << 33 | col << 1 |
  // assign. The assign bit marks the first touch of a target (FirstTouch).
  struct Target {
    double* target;
    uint64_t key;
  };
  static constexpr uint64_t kAssignBit = 1;
  static uint64_t PackRc(int32_t r, int32_t c) {
    return static_cast<uint64_t>(static_cast<uint32_t>(r)) << 33 |
           static_cast<uint64_t>(static_cast<uint32_t>(c)) << 1;
  }

  // Defined in netlist/device.h, where Device is complete.
  int BranchUnknown(const Device& dev, int slot) const;
  int StateSlot(const Device& dev, int slot) const;
  void RefreshConstants(const Device& dev);

  void Apply(const Target& e, double v) const {
    if (e.key & kAssignBit) {
      *e.target = v + assign_bias_;
    } else {
      *e.target += v;
    }
  }

  void Matrix(int r, int c, double v) {
    if (recording_) {
      RecordMatrix(r, c, v);
      return;
    }
    const Target& e = mat_[mat_pos_];
    // The sentinel's null target stops a device that stamps past the plan.
    // Release builds rely on that plus the per-device span check in
    // Replay() — sufficient because stamp destinations are a pure function
    // of topology and context (contract on Device::Stamp); debug builds
    // verify every destination.
    if (e.target == nullptr) {
      mismatch_ = true;
      return;
    }
#ifndef NDEBUG
    if ((e.key & ~kAssignBit) != PackRc(r, c)) {
      mismatch_ = true;
      return;
    }
#endif
    ++mat_pos_;
    Apply(e, v);
  }

  void Rhs(int r, double v) {
    if (recording_) {
      RecordRhs(r, v);
      return;
    }
    const Target& e = rhs_[rhs_pos_];
    if (e.target == nullptr) {
      mismatch_ = true;
      return;
    }
#ifndef NDEBUG
    if (e.key != static_cast<uint64_t>(r)) {
      mismatch_ = true;
      return;
    }
#endif
    ++rhs_pos_;
    *e.target += v;
  }

  void RecordMatrix(int r, int c, double v);
  void RecordRhs(int r, double v);

  StampFrame frame_;
  bool recording_ = false;
  bool mismatch_ = false;
  bool compiled_ = false;
  double assign_bias_ = 0.0;
  Owner* owner_ = nullptr;  // recording passes only

  // Compiled streams, each ended by a sentinel no stamp can match (null
  // target / state slot -1), so replay needs no bounds checks.
  std::vector<Target> mat_{{nullptr, ~0ull}};
  std::vector<Target> rhs_{{nullptr, ~0ull}};
  std::vector<int32_t> state_{-1};
  std::vector<Span> spans_;
  uint32_t mat_pos_ = 0, rhs_pos_ = 0, state_pos_ = 0;
  size_t device_pos_ = 0;
};

}  // namespace cmldft::netlist
