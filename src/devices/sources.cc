#include "devices/sources.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>

namespace cmldft::devices {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Waveform Waveform::Dc(double value) {
  Waveform w;
  w.kind_ = Kind::kDc;
  w.p_[0] = value;
  return w;
}

Waveform Waveform::Pulse(double v1, double v2, double delay, double rise,
                         double fall, double width, double period) {
  assert(rise > 0.0 && fall > 0.0 && width >= 0.0 && period > 0.0);
  // The delay precedes the first period; ValueAt/NextBreakpoint fold time
  // by the period only after subtracting it.
  assert(delay >= 0.0 && rise + width + fall <= period + 1e-21);
  Waveform w;
  w.kind_ = Kind::kPulse;
  w.p_[0] = v1;
  w.p_[1] = v2;
  w.p_[2] = delay;
  w.p_[3] = rise;
  w.p_[4] = fall;
  w.p_[5] = width;
  w.p_[6] = period;
  return w;
}

Waveform Waveform::Sin(double offset, double amplitude, double freq,
                       double delay, double damping) {
  Waveform w;
  w.kind_ = Kind::kSin;
  w.p_[0] = offset;
  w.p_[1] = amplitude;
  w.p_[2] = freq;
  w.p_[3] = delay;
  w.p_[4] = damping;
  return w;
}

Waveform Waveform::Pwl(std::vector<std::pair<double, double>> points) {
  Waveform w;
  w.kind_ = Kind::kPwl;
  w.pwl_ = std::move(points);
  assert(std::is_sorted(w.pwl_.begin(), w.pwl_.end(),
                        [](const auto& a, const auto& b) { return a.first < b.first; }));
  return w;
}

double Waveform::ValueAt(double time) const {
  switch (kind_) {
    case Kind::kDc:
      return p_[0];
    case Kind::kPulse: {
      const double v1 = p_[0], v2 = p_[1], delay = p_[2], rise = p_[3],
                   fall = p_[4], width = p_[5], period = p_[6];
      if (time < delay) return v1;
      const double t = std::fmod(time - delay, period);
      if (t < rise) return v1 + (v2 - v1) * t / rise;
      if (t < rise + width) return v2;
      if (t < rise + width + fall) return v2 + (v1 - v2) * (t - rise - width) / fall;
      return v1;
    }
    case Kind::kSin: {
      const double offset = p_[0], ampl = p_[1], freq = p_[2], delay = p_[3],
                   damping = p_[4];
      if (time < delay) return offset;
      const double t = time - delay;
      return offset + ampl * std::exp(-damping * t) *
                          std::sin(2.0 * std::numbers::pi * freq * t);
    }
    case Kind::kPwl: {
      if (pwl_.empty()) return 0.0;
      if (time <= pwl_.front().first) return pwl_.front().second;
      if (time >= pwl_.back().first) return pwl_.back().second;
      for (size_t i = 1; i < pwl_.size(); ++i) {
        if (time <= pwl_[i].first) {
          const auto& [t0, v0] = pwl_[i - 1];
          const auto& [t1, v1] = pwl_[i];
          if (t1 == t0) return v1;
          return v0 + (v1 - v0) * (time - t0) / (t1 - t0);
        }
      }
      return pwl_.back().second;
    }
  }
  return 0.0;
}

double Waveform::DcValue() const { return ValueAt(0.0); }

double Waveform::NextBreakpoint(double time) const {
  switch (kind_) {
    case Kind::kDc:
    case Kind::kSin:
      return kInf;
    case Kind::kPulse: {
      const double delay = p_[2], rise = p_[3], fall = p_[4], width = p_[5],
                   period = p_[6];
      if (time < delay) return delay;
      const double base = delay + std::floor((time - delay) / period) * period;
      const double corners[] = {0.0, rise, rise + width, rise + width + fall,
                                period};
      for (double c : corners) {
        const double t = base + c;
        if (t > time + 1e-18) return t;
      }
      return base + period + rise;  // unreachable in practice
    }
    case Kind::kPwl: {
      for (const auto& [t, v] : pwl_) {
        (void)v;
        if (t > time + 1e-18) return t;
      }
      return kInf;
    }
  }
  return kInf;
}

double Waveform::Period() const {
  switch (kind_) {
    case Kind::kPulse:
      return p_[6];
    case Kind::kSin:
      return p_[2] > 0.0 ? 1.0 / p_[2] : kInf;
    case Kind::kDc:
    case Kind::kPwl:
      return kInf;
  }
  return kInf;
}

void VSource::Stamp(netlist::StampContext& ctx) const {
  const netlist::NodeId plus = node(0), minus = node(1);
  // KCL rows: branch current leaves `plus`, enters `minus`.
  ctx.AddNodeBranchMatrix(plus, *this, 0, 1.0);
  ctx.AddNodeBranchMatrix(minus, *this, 0, -1.0);
  // Branch row: V(plus) - V(minus) = E(t).
  ctx.AddBranchNodeMatrix(*this, 0, plus, 1.0);
  ctx.AddBranchNodeMatrix(*this, 0, minus, -1.0);
  const double value = ctx.mode() == netlist::AnalysisMode::kTransient
                           ? waveform_.ValueAt(ctx.time())
                           : waveform_.DcValue();
  ctx.AddBranchRhs(*this, 0, value * ctx.source_scale());
}

void ISource::Stamp(netlist::StampContext& ctx) const {
  const double value = (ctx.mode() == netlist::AnalysisMode::kTransient
                            ? waveform_.ValueAt(ctx.time())
                            : waveform_.DcValue()) *
                       ctx.source_scale();
  // Constant current: no conductance, pure RHS contribution.
  ctx.StampCurrent(node(0), node(1), value, 0.0);
}

void Vcvs::Stamp(netlist::StampContext& ctx) const {
  const netlist::NodeId p = node(0), n = node(1), cp = node(2), cn = node(3);
  ctx.AddNodeBranchMatrix(p, *this, 0, 1.0);
  ctx.AddNodeBranchMatrix(n, *this, 0, -1.0);
  // Branch row: V(p) - V(n) - gain*(V(cp) - V(cn)) = 0.
  ctx.AddBranchNodeMatrix(*this, 0, p, 1.0);
  ctx.AddBranchNodeMatrix(*this, 0, n, -1.0);
  ctx.AddBranchNodeMatrix(*this, 0, cp, -gain_);
  ctx.AddBranchNodeMatrix(*this, 0, cn, gain_);
}

}  // namespace cmldft::devices
