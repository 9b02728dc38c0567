#include "campaign/merge.h"

#include <map>

#include "campaign/runner.h"
#include "campaign/store.h"

namespace cmldft::campaign {

namespace {

RecordType TypeOf(std::string_view record) {
  return static_cast<RecordType>(static_cast<uint8_t>(record[0]));
}

}  // namespace

util::StatusOr<MergedStores> MergeStores(
    const std::vector<std::string>& paths) {
  Metrics().merges.Increment();
  if (paths.empty()) {
    return util::Status::InvalidArgument("no campaign stores to merge");
  }

  // Headers agree and no store is torn.
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
    scans.push_back(std::move(*scan));
  }
  // The campaign's payload owns the first singleton record in the stores;
  // the fold refuses every record of another.
  for (size_t s = 0; s < scans.size() && out.payload == nullptr; ++s) {
    for (const std::string& record : scans[s].records) {
      const Payload* owner = FindPayload(TypeOf(record));
      if (owner == nullptr || owner->singleton_type != TypeOf(record)) continue;
      out.payload = owner;
      break;
    }
  }
  if (out.payload == nullptr) {
    return util::Status::FailedPrecondition(
        "no store carries the campaign's singleton (reference/suite) record");
  }
  const RecordType singleton_type = out.payload->singleton_type;

  // Every singleton folds before any unit, so the coordinate checks see
  // the suite.
  StreamingMerge merge(*out.payload, out.total_units);
  for (size_t s = 0; s < scans.size(); ++s) {
    for (const std::string& record : scans[s].records) {
      if (TypeOf(record) != singleton_type) continue;
      auto fold = merge.Fold(record);
      if (!fold.ok()) return InStore(paths[s], fold.status());
    }
  }

  // Then every other record; units are keyed by id. Memory grows with the
  // records present, never with what a header claims.
  std::map<uint64_t, std::string> units;
  for (size_t s = 0; s < scans.size(); ++s) {
    const std::string& path = paths[s];
    uint64_t unit_records = 0;
    for (std::string& record : scans[s].records) {
      if (TypeOf(record) == singleton_type) continue;
      auto fold = merge.Fold(record);
      if (!fold.ok()) return InStore(path, fold.status());
      if (fold->duplicate) {
        return util::Status::FailedPrecondition(
            path + ": unit " + std::to_string(fold->unit_id) +
            " already provided by another record — overlapping or "
            "duplicated shard stores");
      }
      units.emplace(fold->unit_id, std::move(record));
      ++unit_records;
    }
    out.shard_units.emplace_back(scans[s].header.shard_index, unit_records);
  }

  // Completeness: a missing unit is a hard error, not a smaller
  // denominator.
  if (!merge.complete()) {
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
  out.singleton = merge.singleton();
  CMLDFT_RETURN_IF_ERROR(out.payload->check_singleton(
      out.singleton, out.fingerprint, out.total_units));

  out.units.reserve(units.size());
  for (auto& entry : units) out.units.push_back(std::move(entry.second));
  return out;
}

}  // namespace cmldft::campaign
