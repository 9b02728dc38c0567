#include "sim/mna.h"

#include <cassert>
#include <cmath>

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
  util::telemetry::Counter bypass_hits =
      util::telemetry::GetCounter("sim.newton.bypass_hits");
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
    ++stamp_epoch_;
    ++ctx_epoch_;
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

void MnaSystem::set_bypass(bool enabled, double reltol, double abstol) {
  if (enabled && !bypass_) {
    // Re-enabling: drop caches captured before bypass was last disabled;
    // their values were not refreshed while it was off.
    std::fill(cache_valid_.begin(), cache_valid_.end(), 0);
    std::fill(cache_valid_alt_.begin(), cache_valid_alt_.end(), 0);
  }
  bypass_ = enabled;
  bypass_reltol_ = reltol;
  bypass_abstol_ = abstol;
}

void MnaSystem::InvalidateDeviceCaches() {
  ++stamp_epoch_;
  std::fill(cache_valid_.begin(), cache_valid_.end(), 0);
  std::fill(cache_valid_alt_.begin(), cache_valid_alt_.end(), 0);
}

void MnaSystem::Assemble(const linalg::Vector& iterate) {
  assert(static_cast<int>(iterate.size()) == num_unknowns_);
  assert(netlist_->num_devices() == num_devices_ &&
         "netlist devices changed after MnaSystem construction");
  util::telemetry::ScopedTimer wall(Metrics().assembly_wall);
  iterate_ = &iterate;
  ctx_.Bind(Frame(iterate));
  const bool replayable =
      ctx_.compiled() && plan_sparse_ == sparse_ &&
      (!sparse_ || sparse_jac_.pattern_version() == plan_pattern_version_);
  if (!replayable || !ReplayAssemble()) RecordAssemble();
  iterate_ = nullptr;
}

void MnaSystem::RecordAssemble() {
  last_assemble_all_bypassed_ = false;
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
  CompileBypass();
  Metrics().plan_compiles.Increment();
}

void MnaSystem::CompileBypass() {
  device_class_.resize(static_cast<size_t>(num_devices_));
  time_free_.resize(static_cast<size_t>(num_devices_));
  input_cache_offset_.resize(static_cast<size_t>(num_devices_) + 1);
  input_unknowns_.clear();
  for (int i = 0; i < num_devices_; ++i) {
    const Device& dev = netlist_->device(i);
    if (!dev.is_nonlinear() && dev.num_states() == 0) {
      device_class_[static_cast<size_t>(i)] =
          dev.has_context_dependent_stamp() ? DeviceClass::kContextStatic
                                            : DeviceClass::kPure;
      time_free_[static_cast<size_t>(i)] = 0;
    } else {
      device_class_[static_cast<size_t>(i)] = DeviceClass::kDynamic;
      time_free_[static_cast<size_t>(i)] =
          dev.has_time_dependent_stamp() ? 0 : 1;
    }
    input_cache_offset_[static_cast<size_t>(i)] =
        static_cast<uint32_t>(input_unknowns_.size());
    for (int t = 0; t < dev.num_terminals(); ++t) {
      input_unknowns_.push_back(static_cast<int32_t>(UnknownOfNode(dev.node(t))));
    }
    const netlist::DeviceSlots& s = slots_[static_cast<size_t>(i)];
    for (int b = 0; b < dev.num_branches(); ++b) {
      input_unknowns_.push_back(static_cast<int32_t>(s.branch_offset + b));
    }
  }
  input_cache_offset_[static_cast<size_t>(num_devices_)] =
      static_cast<uint32_t>(input_unknowns_.size());
  input_cache_.assign(input_unknowns_.size(), 0.0);
  mat_vals_.assign(ctx_.num_matrix_writes(), 0.0);
  rhs_vals_.assign(ctx_.num_rhs_writes(), 0.0);
  state_vals_.assign(ctx_.num_state_writes(), 0.0);
  cache_valid_.assign(static_cast<size_t>(num_devices_), 0);
  cache_epoch_.assign(static_cast<size_t>(num_devices_), 0);
  cache_ctx_epoch_.assign(static_cast<size_t>(num_devices_), 0);
  cache_dt_.assign(static_cast<size_t>(num_devices_), -1.0);
  state_input_vals_.assign(state_vals_.size(), 0.0);
  mat_vals_alt_.assign(mat_vals_.size(), 0.0);
  rhs_vals_alt_.assign(rhs_vals_.size(), 0.0);
  state_vals_alt_.assign(state_vals_.size(), 0.0);
  cache_valid_alt_.assign(static_cast<size_t>(num_devices_), 0);
  cache_ctx_epoch_alt_.assign(static_cast<size_t>(num_devices_), 0);
  cache_dt_alt_.assign(static_cast<size_t>(num_devices_), -1.0);
  input_cache_alt_.assign(input_cache_.size(), 0.0);
  state_input_vals_alt_.assign(state_input_vals_.size(), 0.0);
  state_scale_.assign(state_input_vals_.size(), 0.0);
}

bool MnaSystem::ReplayAssemble() {
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  ctx_.BeginReplay();
  if (bypass_) {
    ctx_.set_capture(mat_vals_.data(), rhs_vals_.data(), state_vals_.data());
  }
  bool matched = true;
  uint64_t bypass_hits = 0;
  uint64_t evals = 0;
  for (int i = 0; i < num_devices_; ++i) {
    const int way = bypass_ ? CanBypassWay(static_cast<size_t>(i)) : -1;
    if (way >= 0) {
      if (way == 1) {
        ctx_.ReplayValues(mat_vals_alt_.data(), rhs_vals_alt_.data(),
                          state_vals_alt_.data());
      } else {
        ctx_.ReplayValues(mat_vals_.data(), rhs_vals_.data(),
                          state_vals_.data());
      }
      ++bypass_hits;
      continue;
    }
    // Keep the previous timepoint's capture alive in the alternate way
    // before this evaluation overwrites it (see mna.h: the two ways
    // converge onto the two phases of a trapezoidal period-2 ripple).
    // Re-evaluations within one timepoint just refresh the primary way.
    if (bypass_ && cache_valid_[static_cast<size_t>(i)] &&
        cache_epoch_[static_cast<size_t>(i)] != stamp_epoch_) {
      PromoteCacheToAlt(static_cast<size_t>(i));
    }
    ++evals;
    if (!ctx_.Replay(netlist_->device(i))) {
      matched = false;
      break;
    }
    if (bypass_) CaptureCache(static_cast<size_t>(i));
  }
  ctx_.set_capture(nullptr, nullptr, nullptr);
  last_assemble_all_bypassed_ =
      matched && bypass_hits == static_cast<uint64_t>(num_devices_);
  if (bypass_hits > 0) Metrics().bypass_hits.Add(bypass_hits);
  Metrics().device_evals.Add(evals);
  if (!matched) {
    ctx_.Invalidate();
    Metrics().plan_mismatches.Increment();
  }
  return matched;
}

int MnaSystem::CanBypassWay(size_t index) const {
  if (cache_valid_[index]) {
    const DeviceClass cls = device_class_[index];
    bool primary_ok = cls == DeviceClass::kPure;
    if (!primary_ok) {
      primary_ok = true;
      if (cache_epoch_[index] != stamp_epoch_) {
        // The epoch moved since capture. A context-static device
        // (waveform source) must re-stamp: the clock may be what moved.
        // A dynamic device that never reads the clock can survive — its
        // stamp is a function of (inputs, previous state, dt, context)
        // only, and each of those is validated: context exactly, dt
        // exactly, previous state within the relative bypass tolerance
        // (state drift maps to the same relative companion-current error
        // the input tolerance already accepts), inputs within the
        // standard tolerance.
        if (cls != DeviceClass::kDynamic || !time_free_[index] ||
            cache_ctx_epoch_[index] != ctx_epoch_ ||
            cache_dt_[index] != analysis_.dt) {
          primary_ok = false;
        } else {
          const netlist::StampContext::Span& span = ctx_.spans()[index];
          for (uint32_t k = span.state_begin; k < span.state_end; ++k) {
            const double prev =
                prev_states_[static_cast<size_t>(ctx_.state_slot(k))];
            const double cached = state_input_vals_[k];
            const double scale =
                std::max(std::fabs(cached), state_scale_[k]);
            if (std::fabs(prev - cached) > bypass_reltol_ * scale) {
              primary_ok = false;
              break;
            }
          }
        }
      }
      if (primary_ok && cls == DeviceClass::kDynamic) {
        // Every input unknown must sit within the bypass tolerance of
        // where it was when the cache was captured.
        const linalg::Vector& x = *iterate_;
        const uint32_t begin = input_cache_offset_[index];
        const uint32_t end = input_cache_offset_[index + 1];
        for (uint32_t k = begin; k < end; ++k) {
          const int32_t u = input_unknowns_[k];
          const double v = u < 0 ? 0.0 : x[static_cast<size_t>(u)];
          const double cached = input_cache_[k];
          if (std::fabs(v - cached) >
              bypass_abstol_ + bypass_reltol_ * std::fabs(cached)) {
            primary_ok = false;
            break;
          }
        }
      }
    }
    if (primary_ok) return 0;
  }
  if (CanBypassAlt(index)) return 1;
  return -1;
}

bool MnaSystem::CanBypassAlt(size_t index) const {
  // The alternate way only ever holds a snapshot from an older timepoint,
  // so it serves exactly the cross-epoch case: time-invariant dynamic
  // devices with matching context/dt and in-tolerance states and inputs.
  if (!cache_valid_alt_[index]) return false;
  if (device_class_[index] != DeviceClass::kDynamic || !time_free_[index]) {
    return false;
  }
  if (cache_ctx_epoch_alt_[index] != ctx_epoch_ ||
      cache_dt_alt_[index] != analysis_.dt) {
    return false;
  }
  const netlist::StampContext::Span& span = ctx_.spans()[index];
  for (uint32_t k = span.state_begin; k < span.state_end; ++k) {
    const double prev =
        prev_states_[static_cast<size_t>(ctx_.state_slot(k))];
    const double cached = state_input_vals_alt_[k];
    const double scale = std::max(std::fabs(cached), state_scale_[k]);
    if (std::fabs(prev - cached) > bypass_reltol_ * scale) {
      return false;
    }
  }
  const linalg::Vector& x = *iterate_;
  const uint32_t begin = input_cache_offset_[index];
  const uint32_t end = input_cache_offset_[index + 1];
  for (uint32_t k = begin; k < end; ++k) {
    const int32_t u = input_unknowns_[k];
    const double v = u < 0 ? 0.0 : x[static_cast<size_t>(u)];
    const double cached = input_cache_alt_[k];
    if (std::fabs(v - cached) >
        bypass_abstol_ + bypass_reltol_ * std::fabs(cached)) {
      return false;
    }
  }
  return true;
}

void MnaSystem::PromoteCacheToAlt(size_t index) {
  const netlist::StampContext::Span& span = ctx_.spans()[index];
  for (uint32_t k = span.mat_begin; k < span.mat_end; ++k) {
    mat_vals_alt_[k] = mat_vals_[k];
  }
  for (uint32_t k = span.rhs_begin; k < span.rhs_end; ++k) {
    rhs_vals_alt_[k] = rhs_vals_[k];
  }
  for (uint32_t k = span.state_begin; k < span.state_end; ++k) {
    state_vals_alt_[k] = state_vals_[k];
    state_input_vals_alt_[k] = state_input_vals_[k];
  }
  for (uint32_t k = input_cache_offset_[index];
       k < input_cache_offset_[index + 1]; ++k) {
    input_cache_alt_[k] = input_cache_[k];
  }
  cache_ctx_epoch_alt_[index] = cache_ctx_epoch_[index];
  cache_dt_alt_[index] = cache_dt_[index];
  cache_valid_alt_[index] = 1;
}

void MnaSystem::CaptureCache(size_t index) {
  const linalg::Vector& x = *iterate_;
  const uint32_t begin = input_cache_offset_[index];
  const uint32_t end = input_cache_offset_[index + 1];
  for (uint32_t k = begin; k < end; ++k) {
    const int32_t u = input_unknowns_[k];
    input_cache_[k] = u < 0 ? 0.0 : x[static_cast<size_t>(u)];
  }
  const netlist::StampContext::Span& span = ctx_.spans()[index];
  for (uint32_t k = span.state_begin; k < span.state_end; ++k) {
    const double prev =
        prev_states_[static_cast<size_t>(ctx_.state_slot(k))];
    state_input_vals_[k] = prev;
    if (std::fabs(prev) > state_scale_[k]) state_scale_[k] = std::fabs(prev);
  }
  cache_epoch_[index] = stamp_epoch_;
  cache_ctx_epoch_[index] = ctx_epoch_;
  cache_dt_[index] = analysis_.dt;
  cache_valid_[index] = 1;
}

void MnaSystem::RotateStates() {
  prev_states_ = curr_states_;
  ++stamp_epoch_;  // stateful device stamps depend on previous state
}

void MnaSystem::ResetCurrentStates() {
  curr_states_ = prev_states_;
  ++stamp_epoch_;
}

linalg::Vector MnaSystem::MultiplyJacobian(const linalg::Vector& x) const {
  linalg::Vector y;
  MultiplyJacobian(x, &y);
  return y;
}

void MnaSystem::MultiplyJacobian(const linalg::Vector& x,
                                 linalg::Vector* y) const {
  assert(static_cast<int>(x.size()) == num_unknowns_);
  if (!sparse_) {
    jacobian_.MultiplyInto(x, y);
    return;
  }
  y->assign(static_cast<size_t>(num_unknowns_), 0.0);
  sparse_jac_.ForEach(
      [&](size_t r, size_t c, double v) { (*y)[r] += v * x[c]; });
}

}  // namespace cmldft::sim
