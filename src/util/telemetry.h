// Process-wide simulator telemetry: named counters, timers and fixed-bucket
// histograms with near-free hot-path recording.
//
// Design: a single append-only registry assigns each metric a fixed slot
// range in a per-thread shard (a flat array of relaxed atomics). Recording
// touches only the calling thread's shard — no locks, no contention, no
// cross-thread cache traffic — and no other thread records into it, so
// instrumenting a Newton iteration or a transient step costs one
// thread-local load plus a relaxed load and store (no locked
// read-modify-write).
// Snapshots merge every live shard plus the accumulated totals of exited
// threads under the registry mutex; because util::ParallelFor gives every
// index the same work regardless of which thread claims it, counter and
// histogram totals are *exactly* mergeable: a campaign run under
// CMLDFT_THREADS=7 reports bit-identical counts to a serial run. Timers
// record wall-clock and are therefore excluded from determinism
// comparisons (their kind marks them).
//
// Naming scheme (see docs/observability.md): dot-separated, lowercase,
// "<layer>.<component>.<measure>" — e.g. "sim.newton.iterations",
// "linalg.sparse_lu.refactors", "core.screening.class.logic".
//
// Usage at a call site (handles are cheap; cache them in a static):
//
//   static const auto& m = [] {
//     struct M {
//       telemetry::Counter iters = telemetry::GetCounter("sim.newton.iterations");
//     } static const m;
//     return m;
//   }();
//   m.iters.Add(n);
//
// JSON serialization of snapshots lives in report/telemetry_json.h (the
// report library depends on util, not the other way around).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cmldft::util::telemetry {

class Counter;
class Timer;
class Histogram;
Counter GetCounter(std::string_view name);
Timer GetTimer(std::string_view name);
Histogram GetHistogram(std::string_view name, std::vector<double> bounds);

enum class Kind { kCounter, kTimer, kHistogram };

/// "counter" / "timer" / "histogram".
std::string_view KindName(Kind kind);

namespace internal {
// Fixed shard capacity: the registry asserts if metric registrations ever
// outgrow it. Generous — the full solve stack registers a few dozen slots.
inline constexpr size_t kMaxSlots = 4096;

struct Shard {
  Shard();
  ~Shard();
  std::atomic<uint64_t> slots[kMaxSlots] = {};
};

/// The calling thread's shard, created (and registered) on first use.
Shard& LocalShard();

/// slot += delta on the calling thread's own shard. Only the owner writes
/// a shard's slots, so a relaxed load and store cannot lose an update;
/// concurrent snapshots see either the old or the new total.
inline void OwnerAdd(std::atomic<uint64_t>& slot, uint64_t delta) {
  slot.store(slot.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}
}  // namespace internal

/// Monotonic event counter.
class Counter {
 public:
  void Add(uint64_t delta = 1) const {
    internal::OwnerAdd(internal::LocalShard().slots[offset_], delta);
  }
  void Increment() const { Add(1); }

 private:
  friend Counter GetCounter(std::string_view);
  explicit Counter(size_t offset) : offset_(offset) {}
  size_t offset_;
};

/// Wall-clock accumulator: total nanoseconds + sample count. Values are
/// machine- and schedule-dependent; determinism checks must skip timers.
class Timer {
 public:
  void RecordSeconds(double seconds) const;

 private:
  friend Timer GetTimer(std::string_view);
  friend class ScopedTimer;
  explicit Timer(size_t offset) : offset_(offset) {}
  void RecordNanoseconds(uint64_t ns) const;
  size_t offset_;
};

/// RAII span: records the elapsed wall time into `timer` on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer timer);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer timer_;
  uint64_t start_ns_;
};

/// Fixed-bucket histogram: `bounds` are ascending upper edges; bucket i
/// counts values <= bounds[i] (and > bounds[i-1]); one implicit overflow
/// bucket collects the rest. Bucket counts merge exactly across threads.
class Histogram {
 public:
  void Record(double value) const;

 private:
  friend Histogram GetHistogram(std::string_view, std::vector<double>);
  Histogram(size_t offset, const std::vector<double>* bounds)
      : offset_(offset), bounds_(bounds) {}
  size_t offset_;
  const std::vector<double>* bounds_;  ///< registry-owned, stable address
};

// GetCounter / GetTimer / GetHistogram (declared above) resolve a metric
// handle, registering on first use. Handles stay valid for the process
// lifetime. Re-resolving the same name returns the same slots; resolving an
// existing name as a different kind (or a histogram with different bounds)
// is a programming error and asserts.

/// One metric's merged totals at snapshot time.
struct MetricValue {
  std::string name;
  Kind kind = Kind::kCounter;
  /// Counter value; timer sample count; histogram total observations.
  uint64_t count = 0;
  /// Timers only: accumulated wall time.
  double total_seconds = 0.0;
  /// Histograms only.
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
};

/// A merged view over all shards, sorted by metric name. Every registered
/// metric appears, including ones never incremented.
struct Snapshot {
  std::vector<MetricValue> metrics;

  /// nullptr when no such metric exists.
  const MetricValue* Find(std::string_view name) const;
  /// Counter/count value, 0 when absent.
  uint64_t Value(std::string_view name) const;
};

/// Merge retired totals and every live shard. Exact when no other thread
/// is concurrently recording (the campaign/test pattern: record, join
/// workers, capture); otherwise a live view in which each slot reads its
/// owner's latest stored total.
Snapshot Capture();

/// Zero every metric (retired totals and all live shards). For scoping a
/// measurement window in tests and campaigns; quiescent callers only.
void Reset();

/// Human-readable digest of a snapshot (counters, then timers, then
/// histograms) — shared by `cmldft_cli --stats` and tools/telemetry_summarize.
std::string DigestToText(const Snapshot& snapshot);

}  // namespace cmldft::util::telemetry
