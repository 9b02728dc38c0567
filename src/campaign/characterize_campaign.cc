#include "campaign/characterize_campaign.h"

#include <utility>

#include "report/report.h"

namespace cmldft::campaign {

namespace {

constexpr std::string_view kPresets[] = {"characterization",
                                         "characterization_quick"};

template <typename Io, typename U>
void CharacterizationUnitFields(Io& io, U& u) {
  io.U32(u.corner);
  io.U32(u.die);
  io.F64(u.v1_static_excursion);
  io.F64(u.v2_static_excursion);
  io.F64(u.v2_clean_drop);
  io.F64(u.v2_dynamic_threshold);
  io.F64(u.trip_up);
  io.F64(u.trip_down);
  io.F64(u.vfb_pass);
  io.F64(u.vfb_fail);
  io.Bool(u.hysteresis_found);
  io.Bool(u.load_clean_flagged);
  io.Bool(u.load_pipe_flagged);
  io.F64(u.load_clean_vout);
  io.F64(u.load_pipe_vout);
  io.U32(u.measure_failures);
}

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
  return EncodeRecord(RecordType::kCharacterizationSuite, [&](ByteWriter& w) {
    core::CharacterizationSuiteFields(w, config);
  });
}

std::string EncodeCharacterizationUnitRecord(
    uint64_t unit_id, const core::CharacterizationUnitResult& unit) {
  return EncodeUnitRecord(
      RecordType::kCharacterizationUnit, unit_id,
      [&](ByteWriter& w) { CharacterizationUnitFields(w, unit); });
}

util::StatusOr<core::CharacterizationConfig> DecodeCharacterizationSuiteRecord(
    std::string_view payload) {
  core::CharacterizationConfig suite;
  CMLDFT_RETURN_IF_ERROR(DecodeRecord(
      payload, RecordType::kCharacterizationSuite,
      "characterization suite record",
      [&](ByteReader& r) { core::CharacterizationSuiteFields(r, suite); }));
  return suite;
}

util::StatusOr<CharacterizationUnitRecord> DecodeCharacterizationUnitRecord(
    std::string_view payload) {
  CharacterizationUnitRecord rec;
  CMLDFT_RETURN_IF_ERROR(DecodeUnitRecord(
      payload, RecordType::kCharacterizationUnit,
      "characterization unit record", rec.unit_id,
      [&](ByteReader& r) { CharacterizationUnitFields(r, rec.unit); }));
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
  return std::make_unique<const PayloadPlan>(
      kCharacterizationPayload, core::CharacterizationFingerprint(config),
      config.unit_count(), [config]() -> util::StatusOr<PreparedPayload> {
        return PreparedPayload{
            EncodeCharacterizationSuiteRecord(config),
            [config](uint64_t id) -> util::StatusOr<std::string> {
              auto unit = core::EvaluateCharacterizationUnit(config, id);
              if (!unit.ok()) return unit.status();
              return EncodeCharacterizationUnitRecord(id, *unit);
            }};
      });
}

util::StatusOr<CharacterizationMergeResult> DecodeCharacterizationCampaign(
    const MergedStores& merged) {
  if (merged.payload != &kCharacterizationPayload) {
    return ForeignRecords(merged.payload->name, kCharacterizationPayload);
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
