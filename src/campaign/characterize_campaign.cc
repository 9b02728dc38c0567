#include "campaign/characterize_campaign.h"

#include <utility>

#include "campaign/bytes.h"
#include "report/report.h"

namespace cmldft::campaign {

namespace {

constexpr std::string_view kPresets[] = {"characterization",
                                         "characterization_quick"};

util::Status ValidateConfig(const core::CharacterizationConfig& config) {
  if (config.temperatures_c.empty()) {
    return util::Status::InvalidArgument("characterization has no temperatures");
  }
  if (config.supplies.empty()) {
    return util::Status::InvalidArgument("characterization has no supplies");
  }
  if (config.vtests.empty()) {
    return util::Status::InvalidArgument("characterization has no vtest values");
  }
  if (config.trials < 0) {
    return util::Status::InvalidArgument(
        "characterization trials must be non-negative, got " +
        std::to_string(config.trials));
  }
  if (config.probe_step <= 0.0 || config.probe_max <= 0.0 ||
      config.hysteresis_step <= 0.0) {
    return util::Status::InvalidArgument(
        "characterization probe/hysteresis steps must be positive");
  }
  if (config.load_gates < 1) {
    return util::Status::InvalidArgument(
        "characterization load_gates must be >= 1");
  }
  return util::Status::Ok();
}

class CharacterizationPlan : public PayloadPlan {
 public:
  explicit CharacterizationPlan(core::CharacterizationConfig config)
      : PayloadPlan(kCharacterizationPayload,
                    core::CharacterizationFingerprint(config),
                    config.unit_count()),
        config_(std::move(config)) {}

  util::Status Execute(const std::vector<uint64_t>& ids, int threads,
                       const Emit& emit) const override {
    return ExecuteEachUnit(
        EncodeCharacterizationSuiteRecord(config_), ids, threads, emit,
        [this](uint64_t id) -> util::StatusOr<std::string> {
          auto unit = core::EvaluateCharacterizationUnit(config_, id);
          if (!unit.ok()) return unit.status();
          return EncodeCharacterizationUnitRecord(id, *unit);
        });
  }

 private:
  core::CharacterizationConfig config_;
};

util::StatusOr<std::unique_ptr<const PayloadPlan>> PresetPlan(
    std::string_view preset) {
  auto config = CharacterizationPreset(preset);
  if (!config.ok()) return config.status();
  return MakeCharacterizationPlan(*config);
}

util::Status CheckSuite(std::string_view singleton, uint64_t fingerprint,
                        uint64_t total_units) {
  auto config = DecodeCharacterizationSuiteRecord(singleton);
  if (!config.ok()) return config.status();
  if (core::CharacterizationFingerprint(*config) != fingerprint) {
    return util::Status::FailedPrecondition(
        "suite record does not hash to the store header fingerprint — the "
        "store is corrupt or the characterization engines changed since the "
        "campaign ran");
  }
  if (config->unit_count() != total_units) {
    return util::Status::FailedPrecondition(
        "suite record describes " + std::to_string(config->unit_count()) +
        " units but the store header claims " + std::to_string(total_units));
  }
  return util::Status::Ok();
}

util::StatusOr<UnitRecordInfo> CornerDieUnit(std::string_view record,
                                             std::string_view singleton) {
  auto rec = DecodeCharacterizationUnitRecord(record);
  if (!rec.ok()) return rec.status();
  const uint64_t id = rec->unit_id;
  if (!singleton.empty()) {
    auto config = DecodeCharacterizationSuiteRecord(singleton);
    if (!config.ok()) return config.status();
    const uint64_t dies = static_cast<uint64_t>(config->trials) + 1;
    if (config->trials < 0 || id >= config->unit_count() ||
        rec->unit.corner != id / dies || rec->unit.die != id % dies) {
      return util::Status::FailedPrecondition(
          "unit " + std::to_string(id) + " records corner " +
          std::to_string(rec->unit.corner) + " die " +
          std::to_string(rec->unit.die) +
          ", not the corner x die its unit id implies");
    }
  }
  // Clean: every measurement of the unit succeeded.
  return UnitRecordInfo{id, rec->unit.measure_failures == 0 ? 1u : 0u, 1};
}

util::Status ManifestTallies(const MergedStores& merged, report::Report& rep) {
  auto result = DecodeCharacterizationCampaign(merged);
  if (!result.ok()) return result.status();
  rep.AddInt("corners", static_cast<long long>(result->config.corner_count()));
  rep.AddInt("dies_per_corner", result->config.trials + 1);
  uint64_t hysteresis_found = 0;
  uint64_t measure_failures = 0;
  for (const core::CharacterizationUnitResult& u : result->units) {
    if (u.hysteresis_found) ++hysteresis_found;
    if (u.measure_failures != 0) ++measure_failures;
  }
  rep.AddInt("hysteresis_found", static_cast<long long>(hysteresis_found));
  rep.AddInt("units_with_failures",
             static_cast<long long>(measure_failures));
  return util::Status::Ok();
}

}  // namespace

const Payload kCharacterizationPayload = {
    "characterization",
    RecordType::kCharacterizationSuite,
    RecordType::kCharacterizationUnit,
    kPresets,
    &PresetPlan,
    &CheckSuite,
    &CornerDieUnit,
    {"characterization_campaign_manifest",
     "§6 detection thresholds taken off-corner, recombined from shards",
     "merged shard stores of a durable characterization campaign", "units",
     &ManifestTallies},
};

std::string EncodeCharacterizationSuiteRecord(
    const core::CharacterizationConfig& config) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kCharacterizationSuite));
  w.F64Vec(config.temperatures_c);
  w.F64Vec(config.supplies);
  w.F64Vec(config.vtests);
  w.I32(config.trials);
  w.U32(config.seed);
  w.F64(config.variation.load_resistance_spread);
  w.F64(config.variation.wire_cap_spread);
  w.F64(config.variation.is_spread);
  w.F64(config.variation.beta_spread);
  w.F64Vec(config.excursion_levels);
  w.F64(config.response_window);
  w.F64(config.response_load_cap);
  w.I32(config.load_gates);
  w.F64(config.load_pipe);
  w.F64(config.probe_max);
  w.F64(config.probe_step);
  w.F64(config.hysteresis_step);
  return w.Take();
}

std::string EncodeCharacterizationUnitRecord(
    uint64_t unit_id, const core::CharacterizationUnitResult& unit) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kCharacterizationUnit));
  w.U64(unit_id);
  w.U32(unit.corner);
  w.U32(unit.die);
  w.F64(unit.v1_static_excursion);
  w.F64(unit.v2_static_excursion);
  w.F64(unit.v2_clean_drop);
  w.F64(unit.v2_dynamic_threshold);
  w.F64(unit.trip_up);
  w.F64(unit.trip_down);
  w.F64(unit.vfb_pass);
  w.F64(unit.vfb_fail);
  w.Bool(unit.hysteresis_found);
  w.Bool(unit.load_clean_flagged);
  w.Bool(unit.load_pipe_flagged);
  w.F64(unit.load_clean_vout);
  w.F64(unit.load_pipe_vout);
  w.U32(unit.measure_failures);
  return w.Take();
}

util::StatusOr<core::CharacterizationConfig> DecodeCharacterizationSuiteRecord(
    std::string_view payload) {
  ByteReader r(payload);
  if (static_cast<RecordType>(r.U8()) != RecordType::kCharacterizationSuite) {
    return util::Status::ParseError("not a characterization suite record");
  }
  core::CharacterizationConfig suite;
  suite.temperatures_c = r.F64Vec();
  suite.supplies = r.F64Vec();
  suite.vtests = r.F64Vec();
  suite.trials = r.I32();
  suite.seed = r.U32();
  suite.variation.load_resistance_spread = r.F64();
  suite.variation.wire_cap_spread = r.F64();
  suite.variation.is_spread = r.F64();
  suite.variation.beta_spread = r.F64();
  suite.excursion_levels = r.F64Vec();
  suite.response_window = r.F64();
  suite.response_load_cap = r.F64();
  suite.load_gates = r.I32();
  suite.load_pipe = r.F64();
  suite.probe_max = r.F64();
  suite.probe_step = r.F64();
  suite.hysteresis_step = r.F64();
  CMLDFT_RETURN_IF_ERROR(r.Finish("characterization suite"));
  return suite;
}

util::StatusOr<CharacterizationUnitRecord> DecodeCharacterizationUnitRecord(
    std::string_view payload) {
  ByteReader r(payload);
  if (static_cast<RecordType>(r.U8()) != RecordType::kCharacterizationUnit) {
    return util::Status::ParseError("not a characterization unit record");
  }
  CharacterizationUnitRecord rec;
  rec.unit_id = r.U64();
  rec.unit.corner = r.U32();
  rec.unit.die = r.U32();
  rec.unit.v1_static_excursion = r.F64();
  rec.unit.v2_static_excursion = r.F64();
  rec.unit.v2_clean_drop = r.F64();
  rec.unit.v2_dynamic_threshold = r.F64();
  rec.unit.trip_up = r.F64();
  rec.unit.trip_down = r.F64();
  rec.unit.vfb_pass = r.F64();
  rec.unit.vfb_fail = r.F64();
  rec.unit.hysteresis_found = r.Bool();
  rec.unit.load_clean_flagged = r.Bool();
  rec.unit.load_pipe_flagged = r.Bool();
  rec.unit.load_clean_vout = r.F64();
  rec.unit.load_pipe_vout = r.F64();
  rec.unit.measure_failures = r.U32();
  CMLDFT_RETURN_IF_ERROR(r.Finish("characterization unit"));
  return rec;
}

util::StatusOr<core::CharacterizationConfig> CharacterizationPreset(
    std::string_view name) {
  core::CharacterizationConfig config;
  // Yield-surface rows pin the paper's nominal detection points (0.35 V
  // variant 2, 0.57 V variant 1) alongside the rest of the ladder.
  config.excursion_levels = {0.10, 0.20, 0.35, 0.45, 0.57, 0.70, 0.90};
  if (name == "characterization") {
    // Must stay identical to bench/characterization.cc: the CI kill+resume
    // campaign merges into that bench's golden snapshot.
    config.temperatures_c = {-40.0, 27.0, 125.0};
    config.supplies = {3.0, 3.3, 3.6};
    config.vtests = {3.6, 3.7, 3.8};
    config.trials = 2;
    return config;
  }
  if (name == "characterization_quick") {
    config.temperatures_c = {27.0};
    config.supplies = {3.3};
    config.vtests = {3.6, 3.7};
    config.trials = 1;
    return config;
  }
  return util::Status::InvalidArgument(
      "unknown characterization preset '" + std::string(name) +
      "' (available: characterization, characterization_quick)");
}

util::StatusOr<std::unique_ptr<const PayloadPlan>> MakeCharacterizationPlan(
    const core::CharacterizationConfig& config) {
  CMLDFT_RETURN_IF_ERROR(ValidateConfig(config));
  return std::unique_ptr<const PayloadPlan>(
      std::make_unique<CharacterizationPlan>(config));
}

util::StatusOr<CharacterizationMergeResult> DecodeCharacterizationCampaign(
    const MergedStores& merged) {
  if (merged.payload != &kCharacterizationPayload) {
    return ForeignRecords(*merged.payload, kCharacterizationPayload);
  }
  CharacterizationMergeResult out;
  auto config = DecodeCharacterizationSuiteRecord(merged.singleton);
  if (!config.ok()) return config.status();
  out.config = std::move(*config);
  out.units.reserve(merged.units.size());
  for (const std::string& record : merged.units) {
    auto rec = DecodeCharacterizationUnitRecord(record);
    if (!rec.ok()) return rec.status();
    out.units.push_back(rec->unit);
  }
  return out;
}

}  // namespace cmldft::campaign
