#include "sim/mna.h"

#include <algorithm>
#include <cassert>

#include "sim/hier.h"
#include "util/telemetry.h"

namespace cmldft::sim {

using netlist::Device;
using netlist::NodeId;

namespace {
struct AssemblyMetrics {
  util::telemetry::Counter plan_compiles =
      util::telemetry::GetCounter("sim.assembly.plan_compiles");
  util::telemetry::Counter plan_mismatches =
      util::telemetry::GetCounter("sim.assembly.plan_mismatches");
  util::telemetry::Counter device_evals =
      util::telemetry::GetCounter("sim.device.evals");
  util::telemetry::Timer assembly_wall =
      util::telemetry::GetTimer("sim.assembly.wall");
};
const AssemblyMetrics& Metrics() {
  static const AssemblyMetrics m;
  return m;
}
// Register at load time so snapshots list these metrics even when no
// assembly ran — the telemetry schema must not depend on code paths.
[[maybe_unused]] const AssemblyMetrics& kEagerRegistration = Metrics();
}  // namespace

MnaSystem::MnaSystem(const netlist::Netlist& netlist) : netlist_(&netlist) {
  num_devices_ = netlist.num_devices();
  num_node_unknowns_ = netlist.num_nodes() - 1;  // ground excluded
  int branch_cursor = num_node_unknowns_;
  int state_cursor = 0;
  int constant_cursor = 0;
  slots_.resize(static_cast<size_t>(num_devices_));
  for (int i = 0; i < num_devices_; ++i) {
    const Device& dev = netlist.device(i);
    assert(dev.ordinal() == i && "netlist device ordinals out of sync");
    netlist::DeviceSlots& s = slots_[static_cast<size_t>(i)];
    if (dev.num_branches() > 0) {
      s.branch_offset = branch_cursor;
      branch_cursor += dev.num_branches();
    }
    if (dev.num_states() > 0) {
      s.state_offset = state_cursor;
      state_cursor += dev.num_states();
    }
    if (dev.num_constants() > 0) {
      s.constant_offset = constant_cursor;
      constant_cursor += dev.num_constants();
    }
  }
  num_unknowns_ = branch_cursor;
  num_states_ = state_cursor;
  jacobian_ = linalg::Matrix(static_cast<size_t>(num_unknowns_),
                             static_cast<size_t>(num_unknowns_));
  rhs_.assign(static_cast<size_t>(num_unknowns_), 0.0);
  prev_states_.assign(static_cast<size_t>(num_states_), 0.0);
  curr_states_.assign(static_cast<size_t>(num_states_), 0.0);
  constants_.assign(static_cast<size_t>(constant_cursor), 0.0);
  constants_revision_.assign(static_cast<size_t>(num_devices_), 0);
}

/// Routes a recording pass's writes into the flat Jacobian (dense or
/// sparse) and RHS, and resolves their replay targets.
class MnaSystem::FlatOwner final : public netlist::StampContext::Owner {
 public:
  explicit FlatOwner(MnaSystem* mna) : mna_(mna) {}

  void RecordMatrix(int row, int col, double value) override {
    if (mna_->sparse_) {
      mna_->sparse_jac_.Add(static_cast<size_t>(row),
                            static_cast<size_t>(col), value);
    } else {
      *MatrixTarget(row, col) += value;
    }
  }
  double* MatrixTarget(int row, int col) override {
    if (mna_->sparse_) {
      return mna_->sparse_jac_.SlotPointer(static_cast<size_t>(row),
                                           static_cast<size_t>(col));
    }
    return &mna_->jacobian_(static_cast<size_t>(row),
                            static_cast<size_t>(col));
  }
  double* RhsTarget(int row) override {
    return &mna_->rhs_[static_cast<size_t>(row)];
  }

 private:
  MnaSystem* mna_;
};

MnaSystem::~MnaSystem() = default;

HierSolver* MnaSystem::GetHierSolver() {
  if (!hier_checked_) {
    hier_checked_ = true;
    auto solver = std::make_unique<HierSolver>(this);
    if (solver->usable()) hier_ = std::move(solver);
  }
  return hier_.get();
}

int MnaSystem::UnknownOfNode(NodeId node) const {
  assert(node >= 0 && node < netlist_->num_nodes());
  return node == netlist::kGroundNode ? -1 : node - 1;
}

int MnaSystem::UnknownOfBranch(const Device& dev, int slot) const {
  const int i = dev.ordinal();
  assert(i >= 0 && i < num_devices_ && &netlist_->device(i) == &dev &&
         "device not part of this MNA system");
  const netlist::DeviceSlots& s = slots_[static_cast<size_t>(i)];
  assert(s.branch_offset >= 0 && slot < dev.num_branches());
  return s.branch_offset + slot;
}

void MnaSystem::set_temperature(double t) {
  if (analysis_.temperature != t) {
    analysis_.temperature = t;
    std::fill(constants_revision_.begin(), constants_revision_.end(), 0);
  }
}

netlist::StampFrame MnaSystem::Frame(const linalg::Vector& iterate) {
  netlist::StampFrame f;
  f.analysis = &analysis_;
  f.slots = slots_.data();
  f.iterate = iterate.data();
  f.prev_states = prev_states_.data();
  f.curr_states = curr_states_.data();
  f.constants = constants_.data();
  f.constants_revision = constants_revision_.data();
  return f;
}

void MnaSystem::set_sparse(bool sparse) {
  sparse_ = sparse;
  if (sparse_ && sparse_jac_.dimension() != static_cast<size_t>(num_unknowns_)) {
    sparse_jac_ = linalg::SparseBuilder(static_cast<size_t>(num_unknowns_));
  }
}

void MnaSystem::Assemble(const linalg::Vector& iterate) {
  assert(static_cast<int>(iterate.size()) == num_unknowns_);
  assert(netlist_->num_devices() == num_devices_ &&
         "netlist devices changed after MnaSystem construction");
  util::telemetry::ScopedTimer wall(Metrics().assembly_wall);
  ctx_.Bind(Frame(iterate));
  const bool replayable =
      ctx_.compiled() && plan_sparse_ == sparse_ &&
      (!sparse_ || sparse_jac_.pattern_version() == plan_pattern_version_);
  if (!replayable || !ReplayAssemble()) RecordAssemble();
}

void MnaSystem::RecordAssemble() {
  if (sparse_) {
    sparse_jac_.Clear();
  } else {
    jacobian_.Fill(0.0);
  }
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  FlatOwner owner(this);
  ctx_.BeginRecord(owner);
  for (int i = 0; i < num_devices_; ++i) ctx_.Record(netlist_->device(i));
  Metrics().device_evals.Add(static_cast<uint64_t>(num_devices_));
  using FirstTouch = netlist::StampContext::FirstTouch;
  const bool compiled = ctx_.EndRecord(sparse_ ? FirstTouch::kStoreRaw
                                               : FirstTouch::kStoreZeroed);
  assert(compiled && "recorded slot missing from sparse pattern");
  if (!compiled) return;
  plan_sparse_ = sparse_;
  plan_pattern_version_ = sparse_ ? sparse_jac_.pattern_version() : 0;
  Metrics().plan_compiles.Increment();
}

bool MnaSystem::ReplayAssemble() {
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  ctx_.BeginReplay();
  int evals = 0;
  bool matched = true;
  while (matched && evals < num_devices_) {
    matched = ctx_.Replay(netlist_->device(evals++));
  }
  Metrics().device_evals.Add(static_cast<uint64_t>(evals));
  if (!matched) {
    ctx_.Invalidate();
    Metrics().plan_mismatches.Increment();
  }
  return matched;
}

void MnaSystem::RotateStates() { prev_states_ = curr_states_; }

void MnaSystem::ResetCurrentStates() { curr_states_ = prev_states_; }

linalg::Vector MnaSystem::MultiplyJacobian(const linalg::Vector& x) const {
  assert(static_cast<int>(x.size()) == num_unknowns_);
  if (!sparse_) return jacobian_.Multiply(x);
  linalg::Vector y(static_cast<size_t>(num_unknowns_), 0.0);
  sparse_jac_.ForEach([&](size_t r, size_t c, double v) { y[r] += v * x[c]; });
  return y;
}

}  // namespace cmldft::sim
