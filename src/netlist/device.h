// Abstract device: anything that stamps into the MNA system.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/node.h"
#include "netlist/stamp_context.h"

namespace cmldft::netlist {

/// Base class for all circuit elements. Concrete models live in devices/.
///
/// A device owns its parameter values; terminal connectivity is a list of
/// NodeIds that the defect-injection layer may rewire (node splits for
/// opens). Devices are cloneable so faulty netlist copies are cheap to make.
class Device {
 public:
  Device(std::string name, std::vector<NodeId> nodes)
      : name_(std::move(name)), nodes_(std::move(nodes)) {}
  virtual ~Device() = default;

  Device(const Device&) = default;
  Device& operator=(const Device&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  int num_terminals() const { return static_cast<int>(nodes_.size()); }
  NodeId node(int terminal) const { return nodes_.at(static_cast<size_t>(terminal)); }
  const std::vector<NodeId>& nodes() const { return nodes_; }
  /// Rewire one terminal (used by defect injection to split nodes).
  void set_node(int terminal, NodeId n) { nodes_.at(static_cast<size_t>(terminal)) = n; }

  /// Number of branch-current unknowns this device contributes (e.g. 1 for
  /// an ideal voltage source).
  virtual int num_branches() const { return 0; }
  /// Number of integrator state slots (charges/currents) this device keeps.
  virtual int num_states() const { return 0; }
  /// Nonlinear devices force Newton iteration even in linear circuits.
  virtual bool is_nonlinear() const { return false; }

  /// Load the device's linearized companion model at the present iterate.
  ///
  /// `ctx` is the one concrete StampContext every assembler uses; its
  /// calls are not virtual. Each assembler records a device's writes once
  /// and then replays them: every Add*/SetState call writes to the next
  /// compiled target of the device's span. Contract: the *sequence* of
  /// Add*/SetState calls — their destinations and order — must be a pure
  /// function of the netlist topology and the analysis context, never of
  /// the iterate. Only the stamped *values* may depend on the iterate. A
  /// context change may alter the sequence as long as it changes the call
  /// count too; replay detects that per device and re-records. Junction
  /// devices fold their charge companions into their junction stamps and
  /// write the same sequence in a seeding DC (initializing_state) and in
  /// transient; capacitors re-record there (open in DC, a companion in
  /// transient). In a plain DC (neither transient nor initializing_state)
  /// no device evaluates charge or writes state (SetState); no analysis
  /// switches one system between the two kinds of DC. Debug builds
  /// additionally verify every destination. Stamp() is const and writes
  /// no device state, so several systems may stamp one netlist
  /// concurrently.
  virtual void Stamp(StampContext& ctx) const = 0;

  /// Deep copy (for building faulty variants of a circuit).
  virtual std::unique_ptr<Device> Clone() const = 0;

  /// One-word device kind for reports ("resistor", "bjt", ...).
  virtual std::string_view kind() const = 0;

  /// Model constants: values Stamp() reads through ctx.Constants(*this)
  /// that depend only on the parameters and the analysis temperature
  /// (saturation current, depletion split points). Each system computes
  /// them once per parameter revision and temperature, not per stamp.
  virtual int num_constants() const { return 0; }
  /// Fill out[0, num_constants()) for temperature `temp_k` [K].
  virtual void ComputeConstants(double temp_k, double* out) const {
    (void)temp_k;
    (void)out;
  }
  /// Changes whenever a parameter ComputeConstants() reads changes, so
  /// systems holding constants computed from the old values recompute
  /// them. Never 0.
  uint64_t constants_revision() const { return constants_revision_; }

  /// Position of this device in its owning netlist's stable device order
  /// (-1 while unowned). Maintained by Netlist; MNA systems use it as a
  /// dense per-device index instead of hashing device pointers.
  int ordinal() const { return ordinal_; }
  void set_ordinal(int ordinal) { ordinal_ = ordinal; }

 protected:
  /// Call from every setter of a parameter ComputeConstants() reads.
  void ConstantsChanged() { ++constants_revision_; }

 private:
  std::string name_;
  std::vector<NodeId> nodes_;
  int ordinal_ = -1;
  uint64_t constants_revision_ = 1;
};

// StampContext members that need the complete Device.
inline int StampContext::BranchUnknown(const Device& dev, int slot) const {
  const DeviceSlots& s = frame_.slots[dev.ordinal()];
  assert(s.branch_offset >= 0 && slot < dev.num_branches());
  return s.branch_offset + slot;
}

inline int StampContext::StateSlot(const Device& dev, int slot) const {
  const DeviceSlots& s = frame_.slots[dev.ordinal()];
  assert(s.state_offset >= 0 && slot < dev.num_states());
  return s.state_offset + slot;
}

inline const double* StampContext::Constants(const Device& dev) {
  const int i = dev.ordinal();
  if (frame_.constants_revision[i] != dev.constants_revision()) {
    RefreshConstants(dev);
  }
  return frame_.constants + frame_.slots[i].constant_offset;
}

inline bool StampContext::Replay(const Device& dev) {
  const Span& span = spans_[device_pos_++];
  dev.Stamp(*this);
  // The per-call checks catch a device stamping past the plan (and, in
  // debug builds, a wrong destination); the span check catches a shorter
  // or longer call sequence, e.g. a charge companion that stopped stamping.
  return !mismatch_ && mat_pos_ == span.mat_end &&
         rhs_pos_ == span.rhs_end && state_pos_ == span.state_end;
}

inline void StampContext::SetState(const Device& dev, int slot,
                                   double value) {
  const int abs_slot = StateSlot(dev, slot);
  if (recording_) {
    state_.push_back(abs_slot);
  } else {
    if (state_[state_pos_] != abs_slot) {
      mismatch_ = true;  // includes the -1 sentinel past the end
      return;
    }
    ++state_pos_;
  }
  frame_.curr_states[abs_slot] = value;
}

}  // namespace cmldft::netlist
