#include "util/telemetry.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <mutex>

#include "util/strings.h"

namespace cmldft::util::telemetry {

std::string_view KindName(Kind kind) {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kTimer: return "timer";
    case Kind::kHistogram: return "histogram";
  }
  return "counter";
}

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct MetricInfo {
  std::string name;
  Kind kind;
  size_t offset;
  size_t num_slots;
  std::vector<double> bounds;  // histograms only
};

// Append-only metric table plus the shard roster. Lives behind a leaked
// pointer so thread_local shard destructors (which run arbitrarily late,
// including after static destruction begins) can always reach it.
class Registry {
 public:
  static Registry& Instance() {
    static Registry* r = new Registry;  // intentionally leaked
    return *r;
  }

  size_t Resolve(std::string_view name, Kind kind, size_t num_slots,
                 const std::vector<double>* bounds) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const MetricInfo& m : metrics_) {
      if (m.name == name) {
        assert(m.kind == kind && "telemetry metric re-registered as a different kind");
        assert((bounds == nullptr || m.bounds == *bounds) &&
               "telemetry histogram re-registered with different bounds");
        return m.offset;
      }
    }
    assert(next_slot_ + num_slots <= internal::kMaxSlots &&
           "telemetry shard capacity exhausted; raise kMaxSlots");
    MetricInfo info;
    info.name = std::string(name);
    info.kind = kind;
    info.offset = next_slot_;
    info.num_slots = num_slots;
    if (bounds != nullptr) info.bounds = *bounds;
    next_slot_ += num_slots;
    metrics_.push_back(std::move(info));
    return metrics_.back().offset;
  }

  const std::vector<double>* BoundsAt(size_t offset) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const MetricInfo& m : metrics_) {
      if (m.offset == offset) return &m.bounds;
    }
    return nullptr;
  }

  void RegisterShard(internal::Shard* shard) {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(shard);
  }

  void RetireShard(internal::Shard* shard) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < internal::kMaxSlots; ++i) {
      retired_[i] += shard->slots[i].load(std::memory_order_relaxed);
    }
    shards_.erase(std::remove(shards_.begin(), shards_.end(), shard),
                  shards_.end());
  }

  Snapshot Capture() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<uint64_t> totals(retired_, retired_ + internal::kMaxSlots);
    for (internal::Shard* s : shards_) {
      for (size_t i = 0; i < internal::kMaxSlots; ++i) {
        totals[i] += s->slots[i].load(std::memory_order_relaxed);
      }
    }
    Snapshot snap;
    snap.metrics.reserve(metrics_.size());
    for (const MetricInfo& m : metrics_) {
      MetricValue v;
      v.name = m.name;
      v.kind = m.kind;
      switch (m.kind) {
        case Kind::kCounter:
          v.count = totals[m.offset];
          break;
        case Kind::kTimer:
          v.count = totals[m.offset];
          v.total_seconds = static_cast<double>(totals[m.offset + 1]) * 1e-9;
          break;
        case Kind::kHistogram: {
          v.bounds = m.bounds;
          v.buckets.resize(m.num_slots);
          uint64_t total = 0;
          for (size_t b = 0; b < m.num_slots; ++b) {
            v.buckets[b] = totals[m.offset + b];
            total += v.buckets[b];
          }
          v.count = total;
          break;
        }
      }
      snap.metrics.push_back(std::move(v));
    }
    std::sort(snap.metrics.begin(), snap.metrics.end(),
              [](const MetricValue& a, const MetricValue& b) {
                return a.name < b.name;
              });
    return snap;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    std::fill(retired_, retired_ + internal::kMaxSlots, uint64_t{0});
    for (internal::Shard* s : shards_) {
      for (size_t i = 0; i < internal::kMaxSlots; ++i) {
        s->slots[i].store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  Registry() = default;
  std::mutex mu_;
  // Deque: MetricInfo addresses stay stable across registrations, so
  // Histogram handles may point at a metric's `bounds` forever.
  std::deque<MetricInfo> metrics_;
  size_t next_slot_ = 0;
  std::vector<internal::Shard*> shards_;
  uint64_t retired_[internal::kMaxSlots] = {};
};

}  // namespace

namespace internal {

Shard::Shard() { Registry::Instance().RegisterShard(this); }
Shard::~Shard() { Registry::Instance().RetireShard(this); }

Shard& LocalShard() {
  thread_local Shard shard;
  return shard;
}

}  // namespace internal

void Timer::RecordSeconds(double seconds) const {
  if (seconds < 0.0) seconds = 0.0;
  RecordNanoseconds(static_cast<uint64_t>(seconds * 1e9));
}

void Timer::RecordNanoseconds(uint64_t ns) const {
  internal::Shard& shard = internal::LocalShard();
  internal::OwnerAdd(shard.slots[offset_], 1);
  internal::OwnerAdd(shard.slots[offset_ + 1], ns);
}

ScopedTimer::ScopedTimer(Timer timer) : timer_(timer), start_ns_(NowNs()) {}

ScopedTimer::~ScopedTimer() { timer_.RecordNanoseconds(NowNs() - start_ns_); }

void Histogram::Record(double value) const {
  // First bucket whose upper edge admits the value; past-the-end = overflow.
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_->begin(), bounds_->end(), value) -
      bounds_->begin());
  internal::OwnerAdd(internal::LocalShard().slots[offset_ + bucket], 1);
}

Counter GetCounter(std::string_view name) {
  return Counter(Registry::Instance().Resolve(name, Kind::kCounter, 1, nullptr));
}

Timer GetTimer(std::string_view name) {
  return Timer(Registry::Instance().Resolve(name, Kind::kTimer, 2, nullptr));
}

Histogram GetHistogram(std::string_view name, std::vector<double> bounds) {
  assert(std::is_sorted(bounds.begin(), bounds.end()) &&
         "histogram bounds must ascend");
  const size_t offset = Registry::Instance().Resolve(
      name, Kind::kHistogram, bounds.size() + 1, &bounds);
  return Histogram(offset, Registry::Instance().BoundsAt(offset));
}

const MetricValue* Snapshot::Find(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

uint64_t Snapshot::Value(std::string_view name) const {
  const MetricValue* m = Find(name);
  return m == nullptr ? 0 : m->count;
}

Snapshot Capture() { return Registry::Instance().Capture(); }

void Reset() { Registry::Instance().Reset(); }

std::string DigestToText(const Snapshot& snapshot) {
  std::string out;
  size_t width = 0;
  for (const MetricValue& m : snapshot.metrics) {
    width = std::max(width, m.name.size());
  }
  const int w = static_cast<int>(width);

  auto section = [&](Kind kind) {
    bool any = false;
    for (const MetricValue& m : snapshot.metrics) {
      if (m.kind != kind) continue;
      if (!any) {
        out += std::string(KindName(kind)) + "s:\n";
        any = true;
      }
      switch (kind) {
        case Kind::kCounter:
          out += util::StrPrintf("  %-*s  %12llu\n", w, m.name.c_str(),
                                 static_cast<unsigned long long>(m.count));
          break;
        case Kind::kTimer: {
          const double mean =
              m.count > 0 ? m.total_seconds / static_cast<double>(m.count) : 0.0;
          out += util::StrPrintf(
              "  %-*s  %12llu x  total %s  mean %s\n", w, m.name.c_str(),
              static_cast<unsigned long long>(m.count),
              util::FormatEngineering(m.total_seconds, "s").c_str(),
              util::FormatEngineering(mean, "s").c_str());
          break;
        }
        case Kind::kHistogram: {
          out += util::StrPrintf("  %-*s  %12llu samples\n", w, m.name.c_str(),
                                 static_cast<unsigned long long>(m.count));
          for (size_t b = 0; b < m.buckets.size(); ++b) {
            if (m.buckets[b] == 0) continue;
            const double pct =
                m.count > 0
                    ? 100.0 * static_cast<double>(m.buckets[b]) /
                          static_cast<double>(m.count)
                    : 0.0;
            const std::string edge =
                b < m.bounds.size()
                    ? "<= " + util::FormatEngineering(m.bounds[b])
                    : "> " + (m.bounds.empty()
                                  ? std::string("all")
                                  : util::FormatEngineering(m.bounds.back()));
            out += util::StrPrintf("    %-14s %12llu  (%.1f%%)\n", edge.c_str(),
                                   static_cast<unsigned long long>(m.buckets[b]),
                                   pct);
          }
          break;
        }
      }
    }
    if (any) out += "\n";
  };

  out += util::StrPrintf("telemetry digest: %zu metrics\n\n",
                         snapshot.metrics.size());
  section(Kind::kCounter);
  section(Kind::kTimer);
  section(Kind::kHistogram);
  while (!out.empty() && out.back() == '\n') out.pop_back();
  out += '\n';
  return out;
}

}  // namespace cmldft::util::telemetry
