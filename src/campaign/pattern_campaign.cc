#include "campaign/pattern_campaign.h"

#include <utility>

#include "campaign/bytes.h"
#include "campaign/merge.h"
#include "report/report.h"

namespace cmldft::campaign {

namespace {

constexpr std::string_view kPresets[] = {"pattern_coverage", "pattern_quick"};

util::Status ValidateSweep(const testgen::PatternSweepConfig& sweep) {
  if (sweep.benchmarks.empty()) {
    return util::Status::InvalidArgument("sweep has no benchmarks");
  }
  if (sweep.pattern_counts.empty()) {
    return util::Status::InvalidArgument("sweep has no pattern counts");
  }
  for (int c : sweep.pattern_counts) {
    if (c <= 0) {
      return util::Status::InvalidArgument(
          "sweep pattern counts must be positive, got " + std::to_string(c));
    }
  }
  for (const std::string& name : sweep.benchmarks) {
    auto nl = testgen::MakeSweepBenchmark(name);
    if (!nl.ok()) return nl.status();
  }
  return util::Status::Ok();
}

class PatternPlan : public PayloadPlan {
 public:
  explicit PatternPlan(testgen::PatternSweepConfig sweep)
      : PayloadPlan(kPatternPayload, testgen::SweepFingerprint(sweep),
                    sweep.unit_count()),
        sweep_(std::move(sweep)) {}

  util::Status Execute(const std::vector<uint64_t>& ids, int threads,
                       const Emit& emit) const override {
    return ExecuteEachUnit(
        EncodePatternSuiteRecord(sweep_), ids, threads, emit,
        [this](uint64_t id) -> util::StatusOr<std::string> {
          auto unit = testgen::EvaluateSweepUnit(sweep_, id);
          if (!unit.ok()) return unit.status();
          return EncodePatternUnitRecord(id, *unit);
        });
  }

 private:
  testgen::PatternSweepConfig sweep_;
};

util::StatusOr<std::unique_ptr<const PayloadPlan>> PresetPlan(
    std::string_view preset) {
  auto sweep = PatternSweepPreset(preset);
  if (!sweep.ok()) return sweep.status();
  return MakePatternPlan(*sweep);
}

util::Status CheckSuite(std::string_view singleton, uint64_t fingerprint,
                        uint64_t total_units) {
  auto sweep = DecodePatternSuiteRecord(singleton);
  if (!sweep.ok()) return sweep.status();
  if (testgen::SweepFingerprint(*sweep) != fingerprint) {
    return util::Status::FailedPrecondition(
        "suite record does not hash to the store header fingerprint — the "
        "store is corrupt or the benchmark generators changed since the "
        "campaign ran");
  }
  if (sweep->unit_count() != total_units) {
    return util::Status::FailedPrecondition(
        "suite record describes " + std::to_string(sweep->unit_count()) +
        " units but the store header claims " + std::to_string(total_units));
  }
  return util::Status::Ok();
}

util::StatusOr<UnitRecordInfo> SweepUnit(std::string_view record,
                                         std::string_view singleton) {
  auto rec = DecodePatternUnitRecord(record);
  if (!rec.ok()) return rec.status();
  const uint64_t id = rec->unit_id;
  if (!singleton.empty()) {
    auto sweep = DecodePatternSuiteRecord(singleton);
    if (!sweep.ok()) return sweep.status();
    const uint64_t ladder = sweep->pattern_counts.size();
    if (id >= sweep->unit_count() || rec->unit.benchmark != id / ladder ||
        rec->unit.patterns !=
            static_cast<uint32_t>(sweep->pattern_counts[id % ladder])) {
      return util::Status::FailedPrecondition(
          "unit " + std::to_string(id) + " records benchmark " +
          std::to_string(rec->unit.benchmark) + " at " +
          std::to_string(rec->unit.patterns) +
          " patterns, not the cell its unit id implies in the sweep");
    }
  }
  return UnitRecordInfo{id, rec->unit.toggled, rec->unit.togglable};
}

util::Status ManifestTallies(const MergedStores& merged, report::Report& rep) {
  auto result = DecodePatternCampaign(merged);
  if (!result.ok()) return result.status();
  rep.AddInt("benchmarks",
             static_cast<long long>(result->sweep.benchmarks.size()));
  uint64_t transitions = 0;
  uint64_t residual_x = 0;
  for (const testgen::SweepUnitResult& u : result->units) {
    transitions += u.transitions;
    residual_x += u.residual_x;
  }
  rep.AddInt("total_transitions", static_cast<long long>(transitions));
  rep.AddInt("total_residual_x", static_cast<long long>(residual_x));
  return util::Status::Ok();
}

}  // namespace

const Payload kPatternPayload = {
    "pattern",
    RecordType::kPatternSuite,
    RecordType::kPatternUnit,
    kPresets,
    &PresetPlan,
    &CheckSuite,
    &SweepUnit,
    {"pattern_campaign_manifest",
     "§6.6 (toggle coverage vs pattern count, recombined from shards)",
     "merged shard stores of a durable pattern-coverage campaign", "units",
     &ManifestTallies},
};

std::string EncodePatternSuiteRecord(const testgen::PatternSweepConfig& sweep) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kPatternSuite));
  w.U32(static_cast<uint32_t>(sweep.benchmarks.size()));
  for (const std::string& name : sweep.benchmarks) w.Str(name);
  w.U32(static_cast<uint32_t>(sweep.pattern_counts.size()));
  for (int c : sweep.pattern_counts) w.I32(c);
  w.U32(sweep.seed);
  w.I32(sweep.init_max_cycles);
  return w.Take();
}

std::string EncodePatternUnitRecord(uint64_t unit_id,
                                    const testgen::SweepUnitResult& unit) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kPatternUnit));
  w.U64(unit_id);
  w.U32(unit.benchmark);
  w.U32(unit.patterns);
  w.U32(unit.toggled);
  w.U32(unit.togglable);
  w.U64(unit.transitions);
  w.U32(unit.init_cycles);
  w.U32(unit.residual_x);
  w.U32(unit.dffs);
  return w.Take();
}

util::StatusOr<testgen::PatternSweepConfig> DecodePatternSuiteRecord(
    std::string_view payload) {
  ByteReader r(payload);
  if (static_cast<RecordType>(r.U8()) != RecordType::kPatternSuite) {
    return util::Status::ParseError("not a pattern suite record");
  }
  testgen::PatternSweepConfig suite;
  const uint32_t benchmarks = r.U32();
  for (uint32_t i = 0; i < benchmarks && r.ok(); ++i) {
    suite.benchmarks.push_back(r.Str());
  }
  const uint32_t counts = r.U32();
  for (uint32_t i = 0; i < counts && r.ok(); ++i) {
    suite.pattern_counts.push_back(r.I32());
  }
  suite.seed = r.U32();
  suite.init_max_cycles = r.I32();
  CMLDFT_RETURN_IF_ERROR(r.Finish("pattern suite"));
  return suite;
}

util::StatusOr<PatternUnitRecord> DecodePatternUnitRecord(
    std::string_view payload) {
  ByteReader r(payload);
  if (static_cast<RecordType>(r.U8()) != RecordType::kPatternUnit) {
    return util::Status::ParseError("not a pattern unit record");
  }
  PatternUnitRecord rec;
  rec.unit_id = r.U64();
  rec.unit.benchmark = r.U32();
  rec.unit.patterns = r.U32();
  rec.unit.toggled = r.U32();
  rec.unit.togglable = r.U32();
  rec.unit.transitions = r.U64();
  rec.unit.init_cycles = r.U32();
  rec.unit.residual_x = r.U32();
  rec.unit.dffs = r.U32();
  CMLDFT_RETURN_IF_ERROR(r.Finish("pattern unit"));
  return rec;
}

util::StatusOr<testgen::PatternSweepConfig> PatternSweepPreset(
    std::string_view name) {
  testgen::PatternSweepConfig sweep;
  if (name == "pattern_coverage") {
    // Must stay bit-identical to bench/pattern_coverage.cc: the CI
    // kill+resume campaign merges into that bench's golden snapshot.
    sweep.benchmarks = {"counter8", "shift16", "johnson8", "fsm16",
                        "scrambler12"};
    sweep.pattern_counts = {16, 64, 256, 1024};
    return sweep;
  }
  if (name == "pattern_quick") {
    sweep.benchmarks = {"counter4", "shift4"};
    sweep.pattern_counts = {8, 32};
    return sweep;
  }
  return util::Status::InvalidArgument(
      "unknown pattern sweep preset '" + std::string(name) +
      "' (available: pattern_coverage, pattern_quick)");
}

util::StatusOr<std::unique_ptr<const PayloadPlan>> MakePatternPlan(
    const testgen::PatternSweepConfig& sweep) {
  CMLDFT_RETURN_IF_ERROR(ValidateSweep(sweep));
  return std::unique_ptr<const PayloadPlan>(
      std::make_unique<PatternPlan>(sweep));
}

util::StatusOr<PatternCampaignResult> DecodePatternCampaign(
    const MergedStores& merged) {
  if (merged.payload != &kPatternPayload) {
    return ForeignRecords(*merged.payload, kPatternPayload);
  }
  PatternCampaignResult out;
  auto sweep = DecodePatternSuiteRecord(merged.singleton);
  if (!sweep.ok()) return sweep.status();
  out.sweep = std::move(*sweep);
  out.units.reserve(merged.units.size());
  for (const std::string& record : merged.units) {
    auto rec = DecodePatternUnitRecord(record);
    if (!rec.ok()) return rec.status();
    out.units.push_back(rec->unit);
  }
  return out;
}

}  // namespace cmldft::campaign
