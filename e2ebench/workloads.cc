// The three workloads: `screen` (durable defect-screening campaign),
// `hier_chain` (hierarchical transient of a 256-cell buffer chain) and
// `characterize` (durable corner x Monte-Carlo characterization campaign).
// Each pass calls the program's public functions exactly as
// tools/campaign_run + tools/campaign_merge (or a RunTransient caller)
// would, and every pass's output is checked.
#include <cmath>
#include <filesystem>
#include <optional>

#include "bench.h"
#include "bench/paper_bench.h"
#include "campaign/characterize_campaign.h"
#include "campaign/codec.h"
#include "campaign/merge.h"
#include "campaign/runner.h"
#include "cml/builder.h"
#include "core/characterize.h"
#include "core/screening.h"
#include "report/golden.h"
#include "report/json.h"
#include "report/report.h"
#include "sim/transient.h"
#include "util/file_io.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/strings.h"
#include "waveform/measure.h"

namespace e2e {

namespace {

using namespace cmldft;

/// Input stream of a non-zero workload seed, separated per workload.
util::Rng SeedRng(uint64_t seed, uint64_t salt) {
  return util::Rng(seed * 0x9E3779B97F4A7C15ull ^ salt);
}

StatusOr<report::Json> LoadGolden(const WorkloadConfig& config,
                                  const char* name) {
  return report::ReadJsonFile(config.root + "/golden/" + name + ".json");
}

/// Compare a report exactly the way tools/golden_check does: serialize,
/// parse back, diff within the golden's own tolerance classes.
Status CompareToGolden(const report::Report& rep, const report::Json& golden) {
  auto actual = report::Json::Parse(rep.ToJson().Dump());
  if (!actual.ok()) return actual.status();
  const report::GoldenDiff diff = report::CompareReports(*actual, golden);
  if (!diff.ok()) {
    return Status::Internal("report differs from golden/" + rep.experiment() +
                            ".json:\n" + diff.Summary());
  }
  return Status::Ok();
}

/// Bit-for-bit comparison of encoded records against a threads = 1 run.
Status CompareRecords(const std::vector<std::string>& actual,
                      const std::vector<std::string>& reference) {
  if (actual.size() != reference.size()) {
    return Status::Internal(util::StrPrintf(
        "%zu records, but the threads = 1 run has %zu", actual.size(),
        reference.size()));
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] != reference[i]) {
      return Status::Internal(util::StrPrintf(
          "record %zu is not bit-identical to the threads = 1 run", i));
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Shared by the two durable-campaign workloads: one fresh single-shard store
// per pass, then the merge, with the run and merge walls kept for
// campaign.self_s and campaign.merge_ms.
class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(const WorkloadConfig& config, const char* store_name)
      : config_(config), store_(config.work_dir + "/" + store_name) {}

  StatusOr<std::vector<Metric>> LayerMetrics(int threads) override {
    // Durable and store-less runs alternate, so drift hits both alike.
    std::vector<double> durable, bare;
    Tracer off(false);
    for (int i = 0; i < 3; ++i) {
      const size_t before = run_s_.size();
      auto pass = RunPass(threads, off);
      if (!pass.ok()) return pass.status();
      CMLDFT_RETURN_IF_ERROR(CheckPass(off));
      durable.push_back(run_s_[before]);
      const double t0 = Now();
      CMLDFT_RETURN_IF_ERROR(RunWithoutStore(threads));
      bare.push_back(Now() - t0);
    }
    auto bytes = util::FileSizeOf(store_);
    if (!bytes.ok()) return bytes.status();
    const double run = Median(durable);
    const double without = Median(bare);
    return std::vector<Metric>{
        {"campaign.self_s", run - without, "s",
         util::StrPrintf("median durable run %.6f s - median run without "
                         "store %.6f s, %zu alternating pairs",
                         run, without, bare.size())},
        {"campaign.merge_ms", 1e3 * Median(merge_s_), "ms",
         util::StrPrintf("median of %zu merges", merge_s_.size())},
        {"campaign.store_bytes", static_cast<double>(*bytes), "B",
         "one single-shard store"},
    };
  }

 protected:
  /// The same units evaluated at `threads` without store or merge.
  virtual Status RunWithoutStore(int threads) = 0;

  /// Remove the previous pass's store so every pass starts fresh.
  Status FreshStore() {
    std::error_code ec;
    std::filesystem::remove(store_, ec);
    if (ec) return Status::Internal("cannot remove " + store_ + ": " + ec.message());
    return Status::Ok();
  }

  const WorkloadConfig config_;
  const std::string store_;
  std::vector<double> run_s_;
  std::vector<double> merge_s_;
};

// ---------------------------------------------------------------------------
class ScreenWorkload : public CampaignWorkload {
 public:
  explicit ScreenWorkload(const WorkloadConfig& config)
      : CampaignWorkload(config, "screen.campaign") {}

  const char* unit_name() const override { return "defect"; }

  Status Setup() override {
    auto opt = campaign::ScreeningPreset("coverage_comparison");
    if (!opt.ok()) return opt.status();
    if (config_.seed != 0) {
      // Each rung of the pipe-resistance ladder moves by up to +-10 %. The
      // ladder keeps its length, so the universe keeps its 111 defects.
      util::Rng rng = SeedRng(config_.seed, 0x5C4EE7);
      for (double& r : opt->enumeration.pipe_values) r *= rng.NextDouble(0.9, 1.1);
    }
    opt_ = *opt;
    universe_ = core::ScreeningUniverse(opt_).size();
    return Status::Ok();
  }

  Status PrepareChecks() override {
    if (config_.seed == 0) {
      auto golden = LoadGolden(config_, "coverage_comparison");
      if (!golden.ok()) return golden.status();
      golden_ = std::move(*golden);
      return Status::Ok();
    }
    core::ScreeningOptions serial = opt_;
    serial.threads = 1;
    auto ref = core::ScreenBufferChain(serial);
    if (!ref.ok()) return ref.status();
    reference_ = Encode(*ref);
    return Status::Ok();
  }

  StatusOr<PassOutcome> RunPass(int threads, Tracer& tracer) override {
    CMLDFT_RETURN_IF_ERROR(FreshStore());
    campaign::CampaignOptions co;
    co.screening = opt_;
    co.screening.threads = threads;
    co.store_path = store_;
    double t0 = Now();
    {
      ScopedSpan span(tracer, "campaign.RunScreeningCampaign");
      auto run = campaign::RunScreeningCampaign(co);
      if (!run.ok()) return run.status();
    }
    run_s_.push_back(Now() - t0);
    t0 = Now();
    {
      ScopedSpan span(tracer, "campaign.MergeCampaignStores");
      auto merged = campaign::MergeCampaignStores({store_});
      if (!merged.ok()) return merged.status();
      merged_ = std::move(merged->report);
    }
    merge_s_.push_back(Now() - t0);
    if (config_.inject_mismatch) {
      merged_.outcomes[0].logic_fail = !merged_.outcomes[0].logic_fail;
    }
    {
      ScopedSpan span(tracer, "report.FillCoverageComparisonReport");
      report_.emplace(bench::kCoverageComparisonExperiment,
                      bench::kCoverageComparisonPaperRef,
                      bench::kCoverageComparisonSummary);
      bench::FillCoverageComparisonReport(merged_, opt_, *report_);
    }
    PassOutcome out;
    out.units = static_cast<uint64_t>(merged_.total());
    out.attempted = out.units;
    out.failed =
        static_cast<uint64_t>(merged_.CountClass(core::FaultClass::kUnresolved));
    return out;
  }

  Status CheckPass(Tracer& tracer) override {
    ScopedSpan span(tracer, "bench.check");
    if (static_cast<uint64_t>(merged_.total()) != universe_) {
      return Status::Internal(util::StrPrintf(
          "merged %d outcomes for a universe of %llu defects", merged_.total(),
          static_cast<unsigned long long>(universe_)));
    }
    if (config_.seed == 0) return CompareToGolden(*report_, golden_);
    return CompareRecords(Encode(merged_), reference_);
  }

 protected:
  Status RunWithoutStore(int threads) override {
    core::ScreeningOptions opt = opt_;
    opt.threads = threads;
    return core::ScreenBufferChain(opt).status();
  }

 private:
  static std::vector<std::string> Encode(const core::ScreeningReport& rep) {
    std::vector<std::string> records{campaign::EncodeReferenceRecord(rep)};
    for (size_t i = 0; i < rep.outcomes.size(); ++i) {
      records.push_back(campaign::EncodeOutcomeRecord(i, rep.outcomes[i]));
    }
    return records;
  }

  core::ScreeningOptions opt_;
  uint64_t universe_ = 0;
  report::Json golden_;
  std::vector<std::string> reference_;
  core::ScreeningReport merged_;
  std::optional<report::Report> report_;
};

// ---------------------------------------------------------------------------
class CharacterizeWorkload : public CampaignWorkload {
 public:
  explicit CharacterizeWorkload(const WorkloadConfig& config)
      : CampaignWorkload(config, "characterize.campaign") {}

  const char* unit_name() const override { return "corner x die unit"; }

  Status Setup() override {
    auto config = campaign::CharacterizationPreset("characterization");
    if (!config.ok()) return config.status();
    if (config_.seed != 0) {
      // The detector load capacitance moves by up to +-10 %; it sets every
      // unit's analytic dynamic threshold. A new Monte-Carlo die draw, or
      // corner temperatures moved by 2 C, would change the cost of a pass
      // by up to 30 % (some operating points need the DC homotopy
      // fallbacks), which a seed must not do.
      config->response_load_cap *=
          SeedRng(config_.seed, 0xC4A2).NextDouble(0.9, 1.1);
    }
    config_sweep_ = *config;
    if (core::CharacterizationDies(config_sweep_).size() !=
        static_cast<size_t>(config_sweep_.trials)) {
      return Status::Internal("Monte-Carlo die draw has the wrong size");
    }
    return Status::Ok();
  }

  Status PrepareChecks() override {
    if (config_.seed == 0) {
      auto golden = LoadGolden(config_, "characterization");
      if (!golden.ok()) return golden.status();
      golden_ = std::move(*golden);
      return Status::Ok();
    }
    reference_.clear();
    for (uint64_t id = 0; id < config_sweep_.unit_count(); ++id) {
      auto unit = core::EvaluateCharacterizationUnit(config_sweep_, id);
      if (!unit.ok()) return unit.status();
      reference_.push_back(campaign::EncodeCharacterizationUnitRecord(id, *unit));
    }
    return Status::Ok();
  }

  StatusOr<PassOutcome> RunPass(int threads, Tracer& tracer) override {
    CMLDFT_RETURN_IF_ERROR(FreshStore());
    campaign::CharacterizationCampaignOptions co;
    co.config = config_sweep_;
    co.store_path = store_;
    co.threads = threads;
    double t0 = Now();
    {
      ScopedSpan span(tracer, "campaign.RunCharacterizationCampaign");
      auto run = campaign::RunCharacterizationCampaign(co);
      if (!run.ok()) return run.status();
    }
    run_s_.push_back(Now() - t0);
    t0 = Now();
    {
      ScopedSpan span(tracer, "campaign.MergeCharacterizationStores");
      auto merged = campaign::MergeCharacterizationStores({store_});
      if (!merged.ok()) return merged.status();
      merged_ = std::move(*merged);
    }
    merge_s_.push_back(Now() - t0);
    if (config_.inject_mismatch) merged_.units[0].v1_static_excursion += 1.0;
    {
      ScopedSpan span(tracer, "report.FillCharacterizationReport");
      report_.emplace(core::kCharacterizationExperiment,
                      core::kCharacterizationPaperRef,
                      core::kCharacterizationSummary);
      core::FillCharacterizationReport(merged_.config, merged_.units, *report_);
    }
    PassOutcome out;
    out.units = merged_.units.size();
    out.attempted = out.units;
    return out;
  }

  Status CheckPass(Tracer& tracer) override {
    ScopedSpan span(tracer, "bench.check");
    if (merged_.units.size() != config_sweep_.unit_count()) {
      return Status::Internal(util::StrPrintf(
          "merged %zu units for a sweep of %llu", merged_.units.size(),
          static_cast<unsigned long long>(config_sweep_.unit_count())));
    }
    if (config_.seed == 0) return CompareToGolden(*report_, golden_);
    std::vector<std::string> actual;
    for (size_t id = 0; id < merged_.units.size(); ++id) {
      actual.push_back(
          campaign::EncodeCharacterizationUnitRecord(id, merged_.units[id]));
    }
    return CompareRecords(actual, reference_);
  }

 protected:
  Status RunWithoutStore(int threads) override {
    const uint64_t n = config_sweep_.unit_count();
    std::vector<Status> errors(n);
    util::ParallelFor(
        n,
        [&](size_t id) {
          errors[id] =
              core::EvaluateCharacterizationUnit(config_sweep_, id).status();
        },
        threads);
    for (const Status& st : errors) CMLDFT_RETURN_IF_ERROR(st);
    return Status::Ok();
  }

 private:
  core::CharacterizationConfig config_sweep_;
  report::Json golden_;
  std::vector<std::string> reference_;
  campaign::CharacterizationMergeResult merged_;
  std::optional<report::Report> report_;
};

// ---------------------------------------------------------------------------
class HierChainWorkload : public Workload {
 public:
  static constexpr int kCells = 256;
  static constexpr double kClock = 500e6;
  static constexpr double kStop = 2e-9;

  explicit HierChainWorkload(const WorkloadConfig& config) : config_(config) {}

  const char* unit_name() const override { return "accepted timepoint"; }

  // Serial by default. util::ParallelFor starts fresh threads on every call,
  // four calls per Newton iteration, so a pass at nproc threads times thread
  // start-up and the host's scheduler more than the solver: on a shared
  // 4-vCPU host two sets of ten such runs differed by 29 % in median pass
  // time. The traced run still times a pass at nproc threads
  // (util.parallel.speedup), and probes time sim.hier.solve_ms.tN.
  int DefaultThreads(int) const override { return 1; }

  Status Setup() override {
    // Seed != 0 delays the clock by up to 5 % of a period and extends the
    // window by the same delay, so the part of the window in which edges
    // travel down the chain, and with it the step count, stays the same.
    const double delay =
        config_.seed == 0
            ? 0.0
            : SeedRng(config_.seed, 0x41E2).NextDouble(0.0, 0.05) / kClock;
    nl_.emplace();
    cml::CmlTechnology tech;
    cml::CellBuilder cells(*nl_, tech);
    const cml::DiffPort in = cells.AddDifferentialClock("in", kClock, delay);
    const std::vector<cml::DiffPort> outs = cells.AddBufferChain("x", in, kCells);
    // The primary output plus early stages, which toggle within the window.
    taps_ = {outs[0].p_name, outs[7].p_name, outs[15].p_name,
             outs.back().p_name};
    v_mid_ = tech.v_mid();
    opts_ = sim::TransientOptions{};
    opts_.tstop = kStop + delay;
    opts_.dc.newton.hierarchical = true;
    return Status::Ok();
  }

  Status PrepareChecks() override {
    sim::TransientOptions flat = opts_;
    flat.dc.newton.hierarchical = false;
    auto run = sim::RunTransient(*nl_, flat);
    if (!run.ok()) return run.status();
    flat_ = Measure(*run);
    for (const Measured& m : flat_) {
      if (&m != &flat_.back() && m.crossings.empty()) {
        return Status::Internal("flat reference: tap " + m.tap +
                                " never crosses mid-swing");
      }
    }
    if (config_.seed != 0) {
      sim::TransientOptions serial = opts_;
      serial.dc.newton.hier_threads = 1;
      auto ref = sim::RunTransient(*nl_, serial);
      if (!ref.ok()) return ref.status();
      serial_ = Waveforms(*ref);
    }
    return Status::Ok();
  }

  StatusOr<PassOutcome> RunPass(int threads, Tracer& tracer) override {
    sim::TransientOptions o = opts_;
    o.dc.newton.hier_threads = threads;
    ScopedSpan span(tracer, "sim.RunTransient");
    auto run = sim::RunTransient(*nl_, o);
    PassOutcome out;
    out.attempted = 1;
    if (!run.ok()) {
      out.failed = 1;
      error_ = run.status();
      result_.reset();
      return out;
    }
    out.units = static_cast<uint64_t>(run->stats().accepted_steps);
    result_.emplace(std::move(*run));
    return out;
  }

  Status CheckPass(Tracer& tracer) override {
    ScopedSpan span(tracer, "bench.check");
    if (!result_.has_value()) {
      return Status::Internal("hierarchical transient failed: " +
                              error_.ToString());
    }
    std::vector<Measured> hier = Measure(*result_);
    if (config_.inject_mismatch) hier.front().swing.vhigh += 1.0;
    // The flat-vs-hier tolerances of tests/equivalence_test.cc.
    constexpr double kLevelTol = 2e-3, kCrossTol = 5e-12;
    for (size_t k = 0; k < hier.size(); ++k) {
      const Measured& h = hier[k];
      const Measured& f = flat_[k];
      if (std::fabs(h.swing.vhigh - f.swing.vhigh) > kLevelTol ||
          std::fabs(h.swing.vlow - f.swing.vlow) > kLevelTol ||
          std::fabs(h.swing.swing - f.swing.swing) > kLevelTol) {
        return Status::Internal(util::StrPrintf(
            "tap %s: hier levels %.6f/%.6f V vs flat %.6f/%.6f V",
            h.tap.c_str(), h.swing.vhigh, h.swing.vlow, f.swing.vhigh,
            f.swing.vlow));
      }
      if (h.crossings.size() != f.crossings.size()) {
        return Status::Internal(util::StrPrintf(
            "tap %s: %zu crossings, flat has %zu", h.tap.c_str(),
            h.crossings.size(), f.crossings.size()));
      }
      for (size_t i = 0; i < h.crossings.size(); ++i) {
        if (std::fabs(h.crossings[i] - f.crossings[i]) > kCrossTol) {
          return Status::Internal(util::StrPrintf(
              "tap %s crossing %zu: hier %.4e s vs flat %.4e s", h.tap.c_str(),
              i, h.crossings[i], f.crossings[i]));
        }
      }
    }
    if (config_.seed != 0 && Waveforms(*result_) != serial_) {
      return Status::Internal(
          "hierarchical waveforms are not bit-identical to the threads = 1 run");
    }
    return Status::Ok();
  }

  StatusOr<std::vector<Metric>> LayerMetrics(int threads) override {
    // This workload never enters the campaign layer. Its time metrics are
    // taken from a characterize campaign probe instead, so that they are
    // measured in every traced run; its store and record counts stay 0.
    WorkloadConfig probe_config = config_;
    probe_config.seed = 0;
    probe_config.inject_mismatch = false;
    CharacterizeWorkload probe(probe_config);
    CMLDFT_RETURN_IF_ERROR(probe.Setup());
    CMLDFT_RETURN_IF_ERROR(probe.PrepareChecks());
    auto probe_metrics = probe.LayerMetrics(threads);
    if (!probe_metrics.ok()) return probe_metrics.status();
    std::vector<Metric> out;
    for (Metric m : *probe_metrics) {
      if (m.name == "campaign.store_bytes") {
        m.value = 0.0;
        m.base = "hier_chain writes no store";
      } else {
        m.base = "probe: characterize campaign; " + m.base;
      }
      out.push_back(std::move(m));
    }
    return out;
  }

 private:
  struct Measured {
    std::string tap;
    waveform::SwingStats swing;
    std::vector<double> crossings;
  };

  std::vector<Measured> Measure(const sim::TransientResult& r) const {
    std::vector<Measured> out;
    for (const std::string& tap : taps_) {
      const waveform::Trace v = r.Voltage(tap);
      out.push_back({tap,
                     waveform::MeasureSwing(v, opts_.tstop - kStop / 2, opts_.tstop),
                     waveform::Crossings(v, v_mid_, waveform::Edge::kAny)});
    }
    return out;
  }

  /// Time axis and tap voltages as raw bytes, for bit-for-bit comparison.
  std::string Waveforms(const sim::TransientResult& r) const {
    auto append = [](std::string& out, const std::vector<double>& v) {
      out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double));
    };
    std::string out;
    append(out, r.time());
    for (const std::string& tap : taps_) append(out, r.Voltage(tap).value);
    return out;
  }

  const WorkloadConfig config_;
  std::optional<netlist::Netlist> nl_;
  std::vector<std::string> taps_;
  double v_mid_ = 0.0;
  sim::TransientOptions opts_;
  std::vector<Measured> flat_;
  std::string serial_;
  std::optional<sim::TransientResult> result_;
  Status error_;
};

}  // namespace

std::unique_ptr<Workload> MakeScreenWorkload(const WorkloadConfig& config) {
  return std::make_unique<ScreenWorkload>(config);
}
std::unique_ptr<Workload> MakeHierChainWorkload(const WorkloadConfig& config) {
  return std::make_unique<HierChainWorkload>(config);
}
std::unique_ptr<Workload> MakeCharacterizeWorkload(const WorkloadConfig& config) {
  return std::make_unique<CharacterizeWorkload>(config);
}

}  // namespace e2e
