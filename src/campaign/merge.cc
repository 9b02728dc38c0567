#include "campaign/merge.h"

#include <map>

#include "campaign/runner.h"
#include "campaign/store.h"
#include "util/hash.h"

namespace cmldft::campaign {

namespace {

RecordType TypeOf(std::string_view record) {
  return static_cast<RecordType>(static_cast<uint8_t>(record[0]));
}

util::Status UnknownType(std::string_view record) {
  return util::Status::ParseError(
      "unknown campaign record type " +
      std::to_string(static_cast<uint8_t>(record[0])));
}

}  // namespace

util::StatusOr<MergedStores> MergeStores(
    const std::vector<std::string>& paths) {
  Metrics().merges.Increment();
  if (paths.empty()) {
    return util::Status::InvalidArgument("no campaign stores to merge");
  }

  // Pass 1: headers, payload and singleton of every store.
  MergedStores out;
  std::vector<ScannedStore> scans;
  scans.reserve(paths.size());
  for (const std::string& path : paths) {
    auto scan = ScanStore(path);
    if (!scan.ok()) return scan.status();
    if (scan->torn_tail) {
      return util::Status::FailedPrecondition(
          path + ": store has a torn tail — the shard was interrupted; "
                 "resume it to completion before merging");
    }
    if (scans.empty()) {
      out.fingerprint = scan->header.fingerprint;
      out.total_units = scan->header.total_units;
      out.shard_count = scan->header.shard_count;
    } else if (scan->header.fingerprint != out.fingerprint ||
               scan->header.total_units != out.total_units ||
               scan->header.shard_count != out.shard_count) {
      return util::Status::FailedPrecondition(
          path + ": store does not belong to this campaign (fingerprint, "
                 "universe size, or shard plan differs from " +
          paths.front() + ")");
    }
    for (const std::string& record : scan->records) {
      const Payload* payload = FindPayload(TypeOf(record));
      if (payload == nullptr) return UnknownType(record);
      if (out.payload == nullptr) out.payload = payload;
      if (payload != out.payload) {
        const util::Status foreign = ForeignRecords(*payload, *out.payload);
        return util::Status(foreign.code(), path + ": " + foreign.message());
      }
      if (TypeOf(record) != payload->singleton_type) continue;
      if (out.singleton.empty()) {
        out.singleton = record;
      } else if (record != out.singleton) {
        return util::Status::FailedPrecondition(
            path + ": singleton (reference/suite) records differ between "
                   "shard stores; the shards were not produced by the same "
                   "engine and configuration");
      }
    }
    scans.push_back(std::move(*scan));
  }
  if (out.singleton.empty()) {
    return util::Status::FailedPrecondition(
        "no store carries the campaign's singleton (reference/suite) record");
  }
  const Payload& payload = *out.payload;

  // Pass 2: unit records, keyed by id. Memory grows with the records
  // present, never with what a header claims.
  std::map<uint64_t, std::string> units;
  for (size_t s = 0; s < scans.size(); ++s) {
    const std::string& path = paths[s];
    uint64_t unit_records = 0;
    for (std::string& record : scans[s].records) {
      if (TypeOf(record) == payload.singleton_type) continue;
      auto unit = payload.unit(record, out.singleton);
      if (!unit.ok()) {
        return util::Status(unit.status().code(),
                            path + ": " + unit.status().message());
      }
      if (unit->id >= out.total_units) {
        return util::Status::FailedPrecondition(
            path + ": record for unit " + std::to_string(unit->id) +
            " outside the universe of " + std::to_string(out.total_units));
      }
      if (!units.emplace(unit->id, std::move(record)).second) {
        return util::Status::FailedPrecondition(
            path + ": unit " + std::to_string(unit->id) +
            " already provided by another record — overlapping or "
            "duplicated shard stores");
      }
      ++unit_records;
    }
    out.shard_units.emplace_back(scans[s].header.shard_index, unit_records);
  }

  // Completeness: a missing unit is a hard error, not a smaller
  // denominator.
  if (units.size() != out.total_units) {
    uint64_t first_missing = 0;
    for (const auto& entry : units) {
      if (entry.first != first_missing) break;
      ++first_missing;
    }
    return util::Status::FailedPrecondition(
        "campaign incomplete: " +
        std::to_string(out.total_units - units.size()) + " of " +
        std::to_string(out.total_units) + " units missing (first missing id " +
        std::to_string(first_missing) +
        ") — run the remaining shards (or resume interrupted ones) before "
        "merging");
  }
  CMLDFT_RETURN_IF_ERROR(payload.check_singleton(out.singleton,
                                                 out.fingerprint,
                                                 out.total_units));

  out.units.reserve(units.size());
  for (auto& entry : units) out.units.push_back(std::move(entry.second));
  return out;
}

// ------------------------------------------------ streaming merge --

StreamingMerge::StreamingMerge(uint64_t total_units)
    : total_units_(total_units),
      seen_(total_units, 0),
      unit_hash_(total_units, 0) {}

util::StatusOr<StreamingMerge::FoldResult> StreamingMerge::Fold(
    std::string_view payload) {
  if (payload.empty()) {
    return util::Status::ParseError("empty record payload");
  }
  const Payload* owner = FindPayload(TypeOf(payload));
  if (owner == nullptr) return UnknownType(payload);
  if (payload_ == nullptr) payload_ = owner;
  if (owner != payload_) return ForeignRecords(*owner, *payload_);

  FoldResult result;
  if (TypeOf(payload) == payload_->singleton_type) {
    if (singleton_.empty()) {
      singleton_ = std::string(payload);
      result.new_singleton = true;
    } else if (singleton_ != payload) {
      return util::Status::FailedPrecondition(
          "singleton record (reference/suite) differs from the one already "
          "folded: the contributing workers do not run the same engine and "
          "configuration");
    } else {
      result.duplicate = true;
    }
    return result;
  }

  // Unit records: decode (validates the payload), dedup by id, tally.
  auto unit = payload_->unit(payload, singleton_);
  if (!unit.ok()) return unit.status();
  if (unit->id >= total_units_) {
    return util::Status::FailedPrecondition(
        "record for unit " + std::to_string(unit->id) +
        " outside the universe of " + std::to_string(total_units_));
  }
  result.unit_id = unit->id;
  const uint64_t hash = util::ContentHasher().Str(payload).Digest();
  if (seen_[unit->id]) {
    if (unit_hash_[unit->id] != hash) {
      return util::Status::FailedPrecondition(
          "unit " + std::to_string(unit->id) +
          " delivered twice with different bytes — the contributing workers "
          "do not run the same engine and configuration");
    }
    result.duplicate = true;
    return result;
  }
  seen_[unit->id] = 1;
  unit_hash_[unit->id] = hash;
  ++units_done_;
  covered_ += unit->covered;
  coverable_ += unit->coverable;
  result.new_unit = true;
  return result;
}

double StreamingMerge::LiveCoverage() const {
  if (coverable_ == 0) return 0.0;
  return static_cast<double>(covered_) / static_cast<double>(coverable_);
}

}  // namespace cmldft::campaign
