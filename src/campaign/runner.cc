#include "campaign/runner.h"

#include <optional>
#include <utility>

#include "campaign/progress.h"
#include "campaign/store.h"

namespace cmldft::campaign {

const CampaignMetrics& Metrics() {
  static const CampaignMetrics m;
  return m;
}

namespace {
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const CampaignMetrics& kEagerRegistration = Metrics();
}  // namespace

util::StatusOr<CampaignRunStats> RunCampaign(const PayloadPlan& plan,
                                             int threads,
                                             const RunOptions& options) {
  const CampaignMetrics& metrics = Metrics();
  metrics.runs.Increment();
  const Payload& payload = plan.payload();
  const std::string& path = options.store_path;

  CampaignRunStats stats;
  stats.total_units = plan.total_units();
  stats.shard_units = options.shard.UnitsOf(stats.total_units);
  const StoreHeader header{plan.fingerprint(), options.shard.index,
                           options.shard.count, stats.total_units};

  std::vector<bool> completed(stats.total_units, false);
  std::optional<std::string> stored_singleton;
  std::optional<StoreWriter> writer;

  if (util::FileSizeOf(path).ok()) {
    auto scan = ScanStore(path);
    if (!scan.ok()) return scan.status();
    if (scan->header.fingerprint != header.fingerprint) {
      return util::Status::FailedPrecondition(
          path + ": store fingerprint does not match the requested " +
          std::string(payload.name) +
          " configuration — it belongs to a different campaign; use a fresh "
          "store path (or delete the stale file)");
    }
    if (scan->header.shard_index != header.shard_index ||
        scan->header.shard_count != header.shard_count) {
      return util::Status::FailedPrecondition(
          path + ": store holds shard " +
          ShardPlan{scan->header.shard_index, scan->header.shard_count}
              .ToString() +
          " but this run requested shard " + options.shard.ToString());
    }
    if (scan->header.total_units != header.total_units) {
      return util::Status::FailedPrecondition(
          path + ": store planned " +
          std::to_string(scan->header.total_units) +
          " units but the universe now has " +
          std::to_string(header.total_units));
    }
    if (scan->torn_tail) {
      CMLDFT_RETURN_IF_ERROR(RepairStore(path, *scan));
      stats.torn_tail_recovered = true;
      metrics.torn_tail_recoveries.Increment();
    }
    for (const std::string& record : scan->records) {
      if (static_cast<RecordType>(record[0]) == payload.singleton_type) {
        stored_singleton = record;
        continue;
      }
      // The frame CRC passed but the payload didn't decode: that is not a
      // torn write, it is a format bug or deliberate tampering.
      auto unit = payload.unit(record, stored_singleton.value_or(""));
      if (!unit.ok()) {
        return util::Status(unit.status().code(),
                            path + ": undecodable record in valid region: " +
                                unit.status().message());
      }
      if (unit->id >= stats.total_units) {
        return util::Status::FailedPrecondition(
            path + ": record for unit " + std::to_string(unit->id) +
            " outside the universe of " + std::to_string(stats.total_units));
      }
      if (!completed[unit->id]) {
        completed[unit->id] = true;
        ++stats.resumed_skips;
      }
    }
    stats.resumed = true;
    metrics.resumed_skips.Add(stats.resumed_skips);
    auto w = StoreWriter::OpenAppend(path, options.fsync_batch);
    if (!w.ok()) return w.status();
    writer.emplace(std::move(*w));
  } else {
    auto w = StoreWriter::Create(path, header, options.fsync_batch);
    if (!w.ok()) return w.status();
    writer.emplace(std::move(*w));
  }
  if (options.abort_at_bytes != 0) writer->SetKillAtSize(options.abort_at_bytes);

  std::vector<uint64_t> pending;
  for (uint64_t id = 0; id < stats.total_units; ++id) {
    if (options.shard.Contains(id) && !completed[id]) pending.push_back(id);
  }
  stats.executed = pending.size();

  // Record order in the file follows completion order, which merge does
  // not care about — every unit record carries its universe id.
  ProgressMeter meter(options.progress, stats.shard_units,
                      stats.resumed_skips);
  CMLDFT_RETURN_IF_ERROR(plan.Execute(
      pending, threads, [&](std::string record) -> util::Status {
        const bool singleton =
            static_cast<RecordType>(record[0]) == payload.singleton_type;
        if (singleton && stored_singleton.has_value()) {
          if (record != *stored_singleton) {
            return util::Status::FailedPrecondition(
                path + ": the " + std::string(payload.name) +
                " singleton record (reference/suite) this run produced "
                "differs from the one in the store: the engine or "
                "configuration changed since this campaign started; restart "
                "the campaign with a fresh store");
          }
          return util::Status::Ok();
        }
        CMLDFT_RETURN_IF_ERROR(writer->AppendRecord(record));
        metrics.records_written.Increment();
        if (!singleton) meter.Tick();
        return util::Status::Ok();
      }));
  CMLDFT_RETURN_IF_ERROR(writer->Close());
  meter.Finish();
  return stats;
}

util::StatusOr<std::vector<std::string>> EvaluateUnits(
    const PayloadPlan& plan, const std::vector<uint64_t>& ids, int threads) {
  for (uint64_t id : ids) {
    if (id >= plan.total_units()) {
      return util::Status::OutOfRange(
          "unit " + std::to_string(id) + " outside the universe of " +
          std::to_string(plan.total_units()));
    }
  }
  std::vector<std::string> records;
  records.reserve(ids.size() + 1);
  CMLDFT_RETURN_IF_ERROR(
      plan.Execute(ids, threads, [&records](std::string record) {
        records.push_back(std::move(record));
        return util::Status::Ok();
      }));
  return records;
}

}  // namespace cmldft::campaign
