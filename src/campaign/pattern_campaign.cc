#include "campaign/pattern_campaign.h"

#include <utility>

#include "campaign/merge.h"
#include "report/report.h"

namespace cmldft::campaign {

namespace {

constexpr std::string_view kPresets[] = {"pattern_coverage", "pattern_quick"};

template <typename Io, typename S>
void PatternSuiteFields(Io& io, S& s) {
  io.Vec(s.benchmarks);
  io.Vec(s.pattern_counts);
  io.U32(s.seed);
  io.I32(s.init_max_cycles);
}

template <typename Io, typename U>
void SweepUnitFields(Io& io, U& u) {
  io.U32(u.benchmark);
  io.U32(u.patterns);
  io.U32(u.toggled);
  io.U32(u.togglable);
  io.U64(u.transitions);
  io.U32(u.init_cycles);
  io.U32(u.residual_x);
  io.U32(u.dffs);
}

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
  return EncodeRecord(RecordType::kPatternSuite,
                      [&](ByteWriter& w) { PatternSuiteFields(w, sweep); });
}

std::string EncodePatternUnitRecord(uint64_t unit_id,
                                    const testgen::SweepUnitResult& unit) {
  return EncodeUnitRecord(RecordType::kPatternUnit, unit_id,
                          [&](ByteWriter& w) { SweepUnitFields(w, unit); });
}

util::StatusOr<testgen::PatternSweepConfig> DecodePatternSuiteRecord(
    std::string_view payload) {
  testgen::PatternSweepConfig suite;
  CMLDFT_RETURN_IF_ERROR(DecodeRecord(
      payload, RecordType::kPatternSuite, "pattern suite record",
      [&](ByteReader& r) { PatternSuiteFields(r, suite); }));
  return suite;
}

util::StatusOr<PatternUnitRecord> DecodePatternUnitRecord(
    std::string_view payload) {
  PatternUnitRecord rec;
  CMLDFT_RETURN_IF_ERROR(DecodeUnitRecord(
      payload, RecordType::kPatternUnit, "pattern unit record", rec.unit_id,
      [&](ByteReader& r) { SweepUnitFields(r, rec.unit); }));
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
  return std::make_unique<const PayloadPlan>(
      kPatternPayload, testgen::SweepFingerprint(sweep), sweep.unit_count(),
      [sweep]() -> util::StatusOr<PreparedPayload> {
        return PreparedPayload{
            EncodePatternSuiteRecord(sweep),
            [sweep](uint64_t id) -> util::StatusOr<std::string> {
              auto unit = testgen::EvaluateSweepUnit(sweep, id);
              if (!unit.ok()) return unit.status();
              return EncodePatternUnitRecord(id, *unit);
            }};
      });
}

util::StatusOr<PatternCampaignResult> DecodePatternCampaign(
    const MergedStores& merged) {
  if (merged.payload != &kPatternPayload) {
    return ForeignRecords(merged.payload->name, kPatternPayload);
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
