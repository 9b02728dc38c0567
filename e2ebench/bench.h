// Shared pieces of the end-to-end campaign benchmark: clocks and order
// statistics, the span recorder of the traced run, metric records, the
// workload interface and the per-layer probes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/telemetry.h"

namespace e2e {

using cmldft::util::Status;
using cmldft::util::StatusOr;
namespace telemetry = cmldft::util::telemetry;

/// Monotonic wall clock [s].
double Now();
/// Process user + system CPU time [s] (getrusage).
double CpuSeconds();
/// Peak resident set size of this process image [MB].
double PeakRssMb();

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> v);
/// Linear-interpolation quantile, q in [0, 1]; 0 if empty.
double Quantile(std::vector<double> v, double q);

/// One span: a call the benchmark made into a layer. `parent` indexes the
/// span that was open when this one began (-1 for a root); spans of one
/// pass share `pass` (-1 outside the timed passes).
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "campaign.MergeCampaignStores"
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int pass = -1;
};

/// In-memory span recorder. Disabled, it records nothing and costs one
/// branch per span. Spans are opened and closed on the calling thread only.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_pass(int pass) { pass_ = pass; }

  int Begin(std::string name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as a JSON array to `path`.
  Status WriteJson(const std::string& path) const;

  /// Per-layer self time over the spans of the traced passes: a span's
  /// duration minus what its children cover, summed by layer (the name up
  /// to the first '.'). The root "bench.pass" spans' self time is
  /// reported as the unattributed remainder. Returns the printed table and
  /// sets `*unattributed_frac` to that remainder over total pass time.
  std::string SelfTimeTable(double* unattributed_frac) const;

 private:
  bool enabled_;
  int pass_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.Begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// A reported metric. `base` states the numerator and denominator of a
/// ratio, or the sample count and quartiles of a median; it is printed,
/// never part of the JSON result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;
};

/// Counter value / timer sample count difference b - a.
uint64_t CountDelta(const telemetry::Snapshot& a, const telemetry::Snapshot& b,
                    const char* name);
/// Timer accumulated-seconds difference b - a.
double SecondsDelta(const telemetry::Snapshot& a, const telemetry::Snapshot& b,
                    const char* name);

/// What one pass produced, for the end-to-end counts.
struct PassOutcome {
  uint64_t units = 0;      ///< units completed (defects, timepoints, corner x die)
  uint64_t attempted = 0;  ///< operations attempted
  uint64_t failed = 0;     ///< operations failed
};

struct WorkloadConfig {
  uint64_t seed = 0;
  std::string root;      ///< repository checkout (golden/ lives here)
  std::string work_dir;  ///< scratch for campaign stores
  /// Corrupt every pass's output before its check (self-test only).
  bool inject_mismatch = false;
};

/// One benchmark workload. main() calls Setup (timed as setup_s,
/// possibly several times), PrepareChecks once (untimed), then RunPass
/// back to back; CheckPass validates the pass just run.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Name of one unit of work, for units_per_s.
  virtual const char* unit_name() const = 0;

  /// Worker threads of the timed passes when --threads is not given.
  virtual int DefaultThreads(int nproc) const { return nproc; }

  /// Preset resolution, input generation from the seed, netlist build.
  virtual Status Setup() = 0;

  /// One-time reference results the per-pass checks compare against
  /// (flat-solver waveform, threads = 1 run, golden report).
  virtual Status PrepareChecks() = 0;

  /// One pass through the program at `threads` worker threads. Spans of
  /// the calls it makes go to `tracer`.
  virtual StatusOr<PassOutcome> RunPass(int threads, Tracer& tracer) = 0;

  /// Validate the output of the last RunPass. A non-OK status describes
  /// the mismatch.
  virtual Status CheckPass(Tracer& tracer) = 0;

  /// Per-layer metrics of this workload's own code path beyond the
  /// counter deltas (traced run only).
  virtual StatusOr<std::vector<Metric>> LayerMetrics(int threads) = 0;
};

std::unique_ptr<Workload> MakeScreenWorkload(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeHierChainWorkload(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeCharacterizeWorkload(const WorkloadConfig& config);

/// Probes: timed calls into one layer's public functions on fixed inputs,
/// made in every traced run whatever the workload (probes.cc).
struct ProbeResults {
  std::vector<Metric> metrics;
  /// sim.tran.wall of the serial screening probe, standing in for
  /// sim.tran.wall_s on a workload that runs no transient.
  double screening_tran_wall_s = 0.0;
};
StatusOr<ProbeResults> RunProbes(const std::string& workload, int threads);

}  // namespace e2e
