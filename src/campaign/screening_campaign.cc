#include "campaign/screening_campaign.h"

#include <mutex>
#include <utility>
#include <vector>

#include "campaign/merge.h"
#include "campaign/runner.h"
#include "campaign/work.h"
#include "report/report.h"

namespace cmldft::campaign {

namespace {

constexpr std::string_view kPresets[] = {"coverage_comparison", "quick"};

/// Encodes ScreenBufferChain's results as store records, one emit at a
/// time.
class EmitSink : public Sink {
 public:
  explicit EmitSink(const campaign::Emit& emit) : emit_(emit) {}

  util::Status EmitReference(const core::ScreeningReport& reference) override {
    std::string record = EncodeReferenceRecord(reference);
    std::lock_guard<std::mutex> lock(mu_);
    return emit_(std::move(record));
  }

  util::Status Emit(uint64_t id, const core::DefectOutcome& outcome) override {
    std::string record = EncodeOutcomeRecord(id, outcome);
    std::lock_guard<std::mutex> lock(mu_);
    return emit_(std::move(record));
  }

 private:
  std::mutex mu_;
  const campaign::Emit& emit_;
};

class ScreeningPlan : public PayloadPlan {
 public:
  ScreeningPlan(core::ScreeningOptions options, uint64_t fingerprint,
                uint64_t total_units)
      : PayloadPlan(kScreeningPayload, fingerprint, total_units),
        options_(std::move(options)) {}

  util::Status Execute(const std::vector<uint64_t>& ids, int threads,
                       const campaign::Emit& emit) const override {
    core::ScreeningOptions options = options_;
    options.threads = threads;
    EmitSink sink(emit);
    return core::ScreenBufferChain(options, &ids, &sink).status();
  }

 private:
  core::ScreeningOptions options_;
};

util::StatusOr<std::unique_ptr<const PayloadPlan>> PresetPlan(
    std::string_view preset) {
  auto options = ScreeningPreset(preset);
  if (!options.ok()) return options.status();
  return MakeScreeningPlan(*options);
}

util::Status CheckReference(std::string_view singleton, uint64_t, uint64_t) {
  // The reference carries measurements, not the configuration: all there
  // is to check is that it decodes.
  return DecodeReferenceRecord(singleton).status();
}

util::StatusOr<UnitRecordInfo> OutcomeUnit(std::string_view record,
                                           std::string_view) {
  auto rec = DecodeOutcomeRecord(record);
  if (!rec.ok()) return rec.status();
  // ScreeningReport::CombinedCoverage: every class but no-effect and
  // unresolved is detected.
  const core::FaultClass c = rec->outcome.Classify();
  const bool detected =
      c != core::FaultClass::kNoEffect && c != core::FaultClass::kUnresolved;
  return UnitRecordInfo{rec->unit_id, detected ? 1u : 0u, 1};
}

util::Status ManifestTallies(const MergedStores& merged, report::Report& rep) {
  using report::Tol;
  auto r = DecodeScreeningCampaign(merged);
  if (!r.ok()) return r.status();
  for (int c = 0; c < core::kNumFaultClasses; ++c) {
    const auto fc = static_cast<core::FaultClass>(c);
    rep.AddInt("class_" + std::string(core::FaultClassName(fc)),
               r->CountClass(fc));
  }
  rep.AddScalar("conventional_coverage_pct", r->ConventionalCoverage() * 100,
                "%", Tol::Exact());
  rep.AddScalar("combined_coverage_pct", r->CombinedCoverage() * 100, "%",
                Tol::Exact());
  rep.AddScalar("nominal_swing", r->nominal_swing, "V", Tol::Abs(0.02));
  rep.AddScalar("reference_delay_ps", r->reference_delay * 1e12, "ps",
                Tol::Rel(0.1, 1.0));
  rep.AddScalar("reference_detector_vout", r->reference_detector_vout, "V",
                Tol::Abs(0.02));
  return util::Status::Ok();
}

}  // namespace

const Payload kScreeningPayload = {
    "screening",
    RecordType::kReference,
    RecordType::kOutcome,
    kPresets,
    &PresetPlan,
    &CheckReference,
    &OutcomeUnit,
    {"campaign_manifest",
     "§6 (defect-universe coverage, recombined from campaign shards)",
     "merged shard stores of a durable screening campaign", "outcomes",
     &ManifestTallies},
};

util::StatusOr<core::ScreeningOptions> ScreeningPreset(std::string_view name) {
  core::ScreeningOptions opt;
  if (name == "coverage_comparison") {
    // Must stay bit-identical to bench/coverage_comparison.cc: the CI
    // kill+resume campaign merges into that bench's golden snapshot.
    opt.chain_length = 3;
    opt.sim_time = 50e-9;
    opt.detector.load_cap = 1e-12;
    opt.enumeration.pipe_values = {1e3, 2e3, 4e3, 8e3};
    return opt;
  }
  if (name == "quick") {
    opt.chain_length = 2;
    opt.sim_time = 20e-9;
    opt.detector.load_cap = 1e-12;
    opt.enumeration.pipe_values = {1e3, 4e3};
    return opt;
  }
  return util::Status::InvalidArgument(
      "unknown screening preset '" + std::string(name) +
      "' (available: coverage_comparison, quick)");
}

util::StatusOr<std::unique_ptr<const PayloadPlan>> MakeScreeningPlan(
    const core::ScreeningOptions& options) {
  const std::vector<defects::Defect> universe =
      core::ScreeningUniverse(options);
  return std::unique_ptr<const PayloadPlan>(std::make_unique<ScreeningPlan>(
      options, CampaignFingerprint(options, universe), universe.size()));
}

util::StatusOr<core::ScreeningReport> DecodeScreeningCampaign(
    const MergedStores& merged) {
  if (merged.payload != &kScreeningPayload) {
    return ForeignRecords(*merged.payload, kScreeningPayload);
  }
  auto reference = DecodeReferenceRecord(merged.singleton);
  if (!reference.ok()) return reference.status();
  core::ScreeningReport report = std::move(*reference);
  report.outcomes.reserve(merged.units.size());
  for (const std::string& record : merged.units) {
    auto rec = DecodeOutcomeRecord(record);
    if (!rec.ok()) return rec.status();
    report.outcomes.push_back(std::move(rec->outcome));
  }
  return report;
}

util::StatusOr<CampaignRunStats> RunScreeningCampaign(
    const CampaignOptions& options) {
  auto plan = MakeScreeningPlan(options.screening);
  if (!plan.ok()) return plan.status();
  return RunCampaign(**plan, options.screening.threads, options);
}

}  // namespace cmldft::campaign
