#include "netlist/stamp_context.h"

#include <unordered_set>

#include "netlist/device.h"

namespace cmldft::netlist {

void StampContext::RefreshConstants(const Device& dev) {
  const int i = dev.ordinal();
  dev.ComputeConstants(frame_.analysis->temperature,
                       frame_.constants + frame_.slots[i].constant_offset);
  frame_.constants_revision[i] = dev.constants_revision();
}

void StampContext::BeginRecord(Owner& owner) {
  owner_ = &owner;
  recording_ = true;
  compiled_ = false;
  mat_.clear();
  rhs_.clear();
  state_.clear();
  spans_.clear();
}

void StampContext::Record(const Device& dev) {
  Span span;
  span.mat_begin = static_cast<uint32_t>(mat_.size());
  span.rhs_begin = static_cast<uint32_t>(rhs_.size());
  span.state_begin = static_cast<uint32_t>(state_.size());
  dev.Stamp(*this);
  span.mat_end = static_cast<uint32_t>(mat_.size());
  span.rhs_end = static_cast<uint32_t>(rhs_.size());
  span.state_end = static_cast<uint32_t>(state_.size());
  spans_.push_back(span);
}

// While recording, the streams hold keys only; EndRecord resolves them.
void StampContext::RecordMatrix(int r, int c, double v) {
  mat_.push_back(Target{nullptr, PackRc(r, c)});
  owner_->RecordMatrix(r, c, v);
}

void StampContext::RecordRhs(int r, double v) {
  rhs_.push_back(Target{nullptr, static_cast<uint64_t>(r)});
  *owner_->RhsTarget(r) += v;
}

bool StampContext::EndRecord(FirstTouch first_touch) {
  recording_ = false;
  bool resolved = true;
  std::unordered_set<const double*> seen;
  seen.reserve(mat_.size() * 2);
  for (Target& e : mat_) {
    const int r = static_cast<int>(e.key >> 33);
    const int c = static_cast<int>((e.key >> 1) & 0xffffffffu);
    e.target = owner_->MatrixTarget(r, c);
    if (e.target == nullptr) resolved = false;
    const bool first = seen.insert(e.target).second;
    if (first && first_touch != FirstTouch::kAccumulate) e.key |= kAssignBit;
  }
  for (Target& e : rhs_) {
    e.target = owner_->RhsTarget(static_cast<int>(e.key));
    if (e.target == nullptr) resolved = false;
  }
  owner_ = nullptr;
  // Sentinels (see the member comment).
  mat_.push_back(Target{nullptr, ~0ull});
  rhs_.push_back(Target{nullptr, ~0ull});
  state_.push_back(-1);
  assign_bias_ = first_touch == FirstTouch::kStoreRaw ? -0.0 : 0.0;
  compiled_ = resolved;
  return resolved;
}

}  // namespace cmldft::netlist
