// End-to-end campaign benchmark.
//
//   e2ebench --workload screen|hier_chain|characterize --seed N --seconds S
//            --trace 0|1 [--threads T] [--root DIR] [--work-dir DIR]
//            [--inject-mismatch]
//
// One process runs one workload as back-to-back passes (closed loop, one
// pass in flight) for S seconds after an untimed warm-up pass, checks every
// pass's output, and prints each metric by name with its unit. The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones, from counter deltas around traced
// passes, spans around the benchmark's calls and per-layer probes.
//
// Exit codes: 0 = measured and correct, 1 = a call failed or an output
// check failed (the result line then says "correct": false), 2 = usage,
// provenance or set-up refusal (no result line).
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "bench.h"
#include "util/strings.h"

namespace {

using namespace e2e;
using cmldft::util::StrPrintf;

constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  int threads = 0;
  std::string root = ".";
  std::string work_dir = ".bench_build/work";
  bool inject_mismatch = false;
};

int Usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload screen|hier_chain|characterize "
               "--seed N --seconds S --trace 0|1 [--threads T] [--root DIR] "
               "[--work-dir DIR] [--inject-mismatch]\n",
               argv0, why, argv0);
  return 2;
}

/// CPUs this process may run on (what `nproc` prints).
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Pins the calling thread to each allowed CPU in turn, so that the samples
/// of a single-threaded measurement cover every CPU: on a shared host one
/// CPU can run 1.5x slower than another for minutes, and a process that
/// stays on one CPU would report that CPU's speed. The destructor restores
/// the original mask (threads started later inherit it). `tid` names the
/// thread to move; 0 is the calling thread.
class CpuRotation {
 public:
  explicit CpuRotation(pid_t tid = 0) : tid_(tid) {
    CPU_ZERO(&all_);
    if (sched_getaffinity(tid_, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(tid_, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(tid_, sizeof(one), &one);
  }

 private:
  const pid_t tid_;
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// While alive, moves the thread that made it to the next allowed CPU
/// every 10 ms, so that a serial pass runs at the mean speed of all CPUs,
/// as a work-sharing parallel pass does, instead of at the speed of the
/// one CPU the scheduler would keep it on. A helper thread does the moving
/// and sleeps in between; the destructor stops it and restores the mask.
class CpuCycler {
 public:
  CpuCycler() : tid_(static_cast<pid_t>(syscall(SYS_gettid))) {
    helper_ = std::thread([this] {
      CpuRotation rotation(tid_);
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        rotation.Next();
        cv_.wait_for(lock, std::chrono::milliseconds(10), [this] { return stop_; });
      }
    });
  }
  ~CpuCycler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    helper_.join();
  }
  CpuCycler(const CpuCycler&) = delete;
  CpuCycler& operator=(const CpuCycler&) = delete;

 private:
  const pid_t tid_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread helper_;
};

std::string Json(double v) {
  if (!std::isfinite(v)) v = 0.0;
  return StrPrintf("%.17g", v);
}

/// Print the metric lines and the final result object.
void Report(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.base.empty() ? "" : "  [", m.base.empty() ? "" : (m.base + "]").c_str());
  }
  std::string json = StrPrintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += StrPrintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      Json(metrics[i].value).c_str(), metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string MedianBase(const std::vector<double>& v, const char* what) {
  return StrPrintf("median of %zu %s, quartiles %.6g .. %.6g", v.size(), what,
                   Quantile(v, 0.25), Quantile(v, 0.75));
}

/// A ratio with its base printed: 0 when the denominator is 0.
Metric Ratio(const char* name, const char* unit, double num, double den,
             const char* what) {
  return {name, den > 0 ? num / den : 0.0, unit,
          StrPrintf("%s: %.6g / %.6g", what, num, den)};
}

/// Per-pass counter and timer deltas of the traced passes.
class Deltas {
 public:
  void Add(const telemetry::Snapshot& a, const telemetry::Snapshot& b) {
    for (const telemetry::MetricValue& m : b.metrics) {
      if (m.kind == telemetry::Kind::kCounter) {
        values_[m.name].push_back(static_cast<double>(CountDelta(a, b, m.name.c_str())));
      } else if (m.kind == telemetry::Kind::kTimer) {
        values_[m.name].push_back(SecondsDelta(a, b, m.name.c_str()));
      }
    }
  }
  /// Median over the traced passes of one metric's per-pass delta.
  double PerPass(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--inject-mismatch") {
      args.inject_mismatch = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage(argv[0], ("missing value for " + a).c_str());
    char* end = nullptr;
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoll(v, &end, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      args.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (a == "--threads") {
      args.threads = static_cast<int>(std::strtol(v, &end, 10));
    } else if (a == "--root") {
      args.root = v;
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else {
      return Usage(argv[0], ("unknown argument " + a).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(argv[0], ("malformed value for " + a).c_str());
    }
  }
  if (args.workload.empty() || args.seed < 0 || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    return Usage(argv[0], "--workload, --seed >= 0, --seconds > 0 and --trace 0|1 are required");
  }

  WorkloadConfig config;
  config.seed = static_cast<uint64_t>(args.seed);
  config.root = args.root;
  config.work_dir = args.work_dir;
  config.inject_mismatch = args.inject_mismatch;
  std::unique_ptr<Workload> w;
  if (args.workload == "screen") {
    w = MakeScreenWorkload(config);
  } else if (args.workload == "hier_chain") {
    w = MakeHierChainWorkload(config);
  } else if (args.workload == "characterize") {
    w = MakeCharacterizeWorkload(config);
  } else {
    return Usage(argv[0], ("unknown workload " + args.workload).c_str());
  }

  // Provenance: refuse what would make the numbers incomparable.
  const int nproc = Nproc();
  const int threads = args.threads == 0 ? w->DefaultThreads(nproc) : args.threads;
  // Thread count of the traced run's parallel measurements (probes, the
  // other side of util.parallel.speedup) when the passes run serially.
  const int wide = threads == 1 ? nproc : threads;
  const std::string build_type = E2EBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  if (build_type != "Release" || assertions) {
    std::fprintf(stderr,
                 "e2ebench: refusing to time a non-Release build (build type "
                 "'%s', assertions %s); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), assertions ? "on" : "off");
    return 2;
  }
  if (threads < 1 || threads > nproc) {
    std::fprintf(stderr, "e2ebench: refusing %d threads on %d CPU(s)\n",
                 threads, nproc);
    return 2;
  }
  std::printf("provenance: workload=%s seed=%lld nproc=%d threads=%d "
              "build_type=%s trace=%d seconds=%g\n",
              args.workload.c_str(), args.seed, nproc, threads,
              build_type.c_str(), args.trace, args.seconds);

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "e2ebench: cannot create %s: %s\n",
                 args.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  // Set-up, timed by repetition: a burst before the reference runs, then a
  // few more after every timed pass, so that its median spans the run as
  // pass_s does. Each repetition also takes a telemetry snapshot (the
  // first one registers the process's metrics).
  std::vector<double> setup_s;
  auto time_setups = [&](double budget_s, size_t min_reps, size_t max_reps) {
    CpuRotation rotation;
    const double begin = Now();
    for (size_t n = 0; n < min_reps || (Now() - begin < budget_s && n < max_reps); ++n) {
      rotation.Next();
      const double t0 = Now();
      const Status st = w->Setup();
      telemetry::Capture();
      setup_s.push_back(Now() - t0);
      if (!st.ok()) {
        std::fprintf(stderr, "e2ebench: set-up failed: %s\n", st.ToString().c_str());
        return false;
      }
    }
    return true;
  };
  if (!time_setups(0.2, 16, 1000)) return 2;
  if (const Status st = w->PrepareChecks(); !st.ok()) {
    std::fprintf(stderr, "e2ebench: reference run failed: %s\n",
                 st.ToString().c_str());
    return 2;
  }

  Tracer tracer(false);
  uint64_t attempted = 0, failed = 0;
  // One pass plus its check. Returns false (after printing why) on a
  // failed call or a failed check.
  auto run_pass = [&](int pass_threads, int pass_id, PassOutcome* out,
                      double* wall, double* cpu) {
    const double c0 = CpuSeconds();
    const double t0 = Now();
    tracer.set_pass(pass_id);
    StatusOr<PassOutcome> pass = PassOutcome{};
    {
      std::optional<CpuCycler> cycle;
      if (pass_threads == 1) cycle.emplace();
      ScopedSpan root(tracer, "bench.pass");
      pass = w->RunPass(pass_threads, tracer);
    }
    *wall = Now() - t0;
    *cpu = CpuSeconds() - c0;
    tracer.set_pass(-1);
    Status st = pass.ok() ? w->CheckPass(tracer) : pass.status();
    if (pass.ok()) *out = *pass;
    if (!st.ok()) {
      std::printf("check failed: %s\n", st.ToString().c_str());
      return false;
    }
    return true;
  };
  auto fail = [&]() {
    Report(false, attempted == 0 ? 1 : attempted, failed == 0 ? 1 : failed, {});
    return 1;
  };

  PassOutcome out;
  double wall = 0, cpu = 0;
  if (!run_pass(threads, -1, &out, &wall, &cpu)) return fail();  // warm-up

  // Timed section. In the traced run even passes carry spans and counter
  // snapshots and odd passes do not, so the two medians give the tracing
  // overhead.
  std::vector<double> pass_s, cpu_s, traced_s, plain_s, rate;
  uint64_t units = 0;
  Deltas deltas;
  double setup_wall = 0;  // interleaved set-ups, left out of units_per_s
  const double t_start = Now();
  for (int i = 0; Now() - t_start < args.seconds || i < kMinPasses; ++i) {
    const bool traced = args.trace == 1 && i % 2 == 0;
    tracer.set_enabled(traced);
    const telemetry::Snapshot before = traced ? telemetry::Capture() : telemetry::Snapshot{};
    const bool ok = run_pass(threads, traced ? i : -1, &out, &wall, &cpu);
    attempted += out.attempted;
    failed += out.failed;
    if (!ok) return fail();
    if (traced) deltas.Add(before, telemetry::Capture());
    units += out.units;
    rate.push_back(static_cast<double>(out.units) / wall);
    pass_s.push_back(wall);
    cpu_s.push_back(cpu);
    (traced ? traced_s : plain_s).push_back(wall);
    const double s0 = Now();
    if (!time_setups(0.02, 1, 50)) return 2;
    setup_wall += Now() - s0;
  }
  const double timed_wall = Now() - t_start - setup_wall;
  tracer.set_enabled(false);

  std::vector<Metric> metrics;
  std::printf("%s: %zu passes in %.3f s at %d threads; %llu %s(s); fail_frac "
              "%.6g ratio [%llu failed / %llu attempted]\n",
              args.workload.c_str(), pass_s.size(), timed_wall, threads,
              static_cast<unsigned long long>(units), w->unit_name(),
              attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  if (args.trace == 0) {
    metrics.push_back({"setup_s", Median(setup_s), "s",
                       MedianBase(setup_s, "set-ups")});
    metrics.push_back({"pass_s", Median(pass_s), "s",
                       MedianBase(pass_s, "passes")});
    // A median of per-pass rates, so that one pass slowed by the host
    // moves it no more than it moves pass_s.
    metrics.push_back({"units_per_s", Median(rate), "unit/s",
                       MedianBase(rate, "passes, units / pass wall")});
    metrics.push_back({"cpu_s", Median(cpu_s), "s",
                       MedianBase(cpu_s, "passes, user+sys")});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", "process peak"});
    Report(true, attempted, failed, metrics);
    return 0;
  }

  // ---- traced run: per-layer metrics ----------------------------------
  // util.parallel.speedup: one more pass at the thread count the timed
  // passes did not use (1, or nproc when they ran serially).
  const double pass_median = Median(pass_s);
  const int other = threads == 1 ? wide : 1;
  if (!run_pass(other, -1, &out, &wall, &cpu)) return fail();
  const double t1_wall = threads == 1 ? pass_median : wall;
  const double tn_wall = threads == 1 ? wall : pass_median;
  metrics.push_back({"util.parallel.speedup", t1_wall / tn_wall, "ratio",
                     StrPrintf("pass at 1 thread %.6f s / pass at %d threads "
                               "%.6f s (the timed side is the median)",
                               t1_wall, wide, tn_wall)});

  const double acc = deltas.PerPass("sim.tran.accepted_steps");
  const double rej = deltas.PerPass("sim.tran.rejected_steps");
  metrics.push_back({"sim.tran.accepted_steps", acc, "count", "per pass"});
  metrics.push_back(Ratio("sim.tran.accept_ratio", "ratio", acc, acc + rej,
                          "accepted / (accepted + rejected) per pass"));
  metrics.push_back(Ratio("sim.newton.iters_per_step", "iter/step",
                          deltas.PerPass("sim.newton.iterations"), acc,
                          "Newton iterations / accepted steps per pass"));
  const double dc_solves = deltas.PerPass("sim.dc.solves");
  metrics.push_back({"sim.dc.solves", dc_solves, "count", "per pass"});
  metrics.push_back(Ratio("sim.dc.plain_ratio", "ratio",
                          deltas.PerPass("sim.dc.plain_newton_successes"),
                          dc_solves, "plain-Newton successes / DC solves per pass"));
  metrics.push_back({"sim.dc.wall_s", deltas.PerPass("sim.dc.wall"), "s",
                     "per pass, summed over threads"});
  const double shares = deltas.PerPass("sim.hier.schur_factor_shares");
  const double refactors = deltas.PerPass("sim.hier.cell_refactors");
  metrics.push_back(Ratio("sim.hier.share_ratio", "ratio", shares,
                          shares + refactors,
                          "Schur factor shares / cell solves per pass"));
  metrics.push_back({"sim.hier.cell_refactors", refactors, "count", "per pass"});
  metrics.push_back({"linalg.dense_lu.factors",
                     deltas.PerPass("linalg.dense_lu.factors"), "count", "per pass"});
  metrics.push_back({"linalg.sparse_lu.refactors",
                     deltas.PerPass("linalg.sparse_lu.refactors"), "count",
                     "per pass"});
  metrics.push_back({"campaign.records_written",
                     deltas.PerPass("campaign.records_written"), "count",
                     "per pass"});

  auto layer = w->LayerMetrics(wide);
  if (!layer.ok()) {
    std::printf("layer metrics failed: %s\n", layer.status().ToString().c_str());
    return fail();
  }
  metrics.insert(metrics.end(), layer->begin(), layer->end());
  auto probes = RunProbes(args.workload, wide);
  if (!probes.ok()) {
    std::printf("probes failed: %s\n", probes.status().ToString().c_str());
    return fail();
  }
  metrics.insert(metrics.end(), probes->metrics.begin(), probes->metrics.end());
  if (acc > 0) {
    metrics.push_back({"sim.tran.wall_s", deltas.PerPass("sim.tran.wall"), "s",
                       "per pass, summed over threads"});
  } else {
    metrics.push_back({"sim.tran.wall_s", probes->screening_tran_wall_s, "s",
                       "probe: serial screening pass; this workload runs no "
                       "transient"});
  }

  double unattributed_frac = 0;
  const std::string table = tracer.SelfTimeTable(&unattributed_frac);
  std::printf("%s", table.c_str());
  metrics.push_back({"trace.unattributed_frac", unattributed_frac, "ratio",
                     "pass time outside every layer span / pass time"});
  const double traced_median = Median(traced_s), plain_median = Median(plain_s);
  metrics.push_back({"trace.overhead_frac", traced_median / plain_median - 1.0,
                     "ratio",
                     StrPrintf("median traced pass %.6f s (%zu) / median "
                               "untraced pass %.6f s (%zu) - 1",
                               traced_median, traced_s.size(), plain_median,
                               plain_s.size())});

  const std::string span_path =
      args.work_dir + "/spans-" + args.workload + "-seed" +
      std::to_string(args.seed) + ".json";
  if (const Status st = tracer.WriteJson(span_path); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return fail();
  }
  std::printf("spans: %zu written to %s\n", tracer.spans().size(),
              span_path.c_str());
  Report(true, attempted, failed, metrics);
  return 0;
}
