#include "campaign/runner.h"

#include <mutex>
#include <utility>

#include "campaign/progress.h"
#include "campaign/store.h"
#include "util/parallel.h"

namespace cmldft::campaign {

const CampaignMetrics& Metrics() {
  static const CampaignMetrics m;
  return m;
}

namespace {
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const CampaignMetrics& kEagerRegistration = Metrics();
}  // namespace

util::Status PayloadPlan::Execute(const std::vector<uint64_t>& ids,
                                  int threads, const Emit& emit) const {
  std::call_once(prepared_once_, [this] { prepared_.emplace(prepare_()); });
  if (!prepared_->ok()) return prepared_->status();
  const PreparedPayload& prepared = **prepared_;
  CMLDFT_RETURN_IF_ERROR(emit(prepared.singleton));
  std::mutex mu;
  util::Status first_error = util::Status::Ok();
  util::ParallelFor(
      ids.size(),
      [&](size_t i) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!first_error.ok()) return;
        }
        util::StatusOr<std::string> record = prepared.unit(ids[i]);
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error.ok()) return;
        first_error = record.ok() ? emit(std::move(*record)) : record.status();
      },
      threads);
  return first_error;
}

util::StatusOr<CampaignRunStats> RunCampaign(const PayloadPlan& plan,
                                             int threads,
                                             const RunOptions& options) {
  const CampaignMetrics& metrics = Metrics();
  metrics.runs.Increment();
  const std::string& path = options.store_path;

  CampaignRunStats stats;
  stats.total_units = plan.total_units();
  stats.shard_units = options.shard.UnitsOf(stats.total_units);
  stats.resumed = util::FileSizeOf(path).ok();
  auto store =
      stats.resumed
          ? StoreSession::Resume(plan, options.shard, path, options.fsync_batch)
          : StoreSession::Create(plan, options.shard, path, options.fsync_batch);
  if (!store.ok()) return store.status();
  if (store->torn_tail_repaired()) {
    stats.torn_tail_recovered = true;
    metrics.torn_tail_recoveries.Increment();
  }
  stats.resumed_skips = store->merge().units_done();
  metrics.resumed_skips.Add(stats.resumed_skips);
  if (options.abort_at_bytes != 0) store->SetKillAtSize(options.abort_at_bytes);

  std::vector<uint64_t> pending;
  for (uint64_t id = 0; id < stats.total_units; ++id) {
    if (options.shard.Contains(id) && !store->merge().has_unit(id)) {
      pending.push_back(id);
    }
  }
  stats.executed = pending.size();

  // Record order in the file follows completion order, which merge does
  // not care about — every unit record carries its universe id.
  ProgressMeter meter(options.progress, stats.shard_units,
                      stats.resumed_skips);
  CMLDFT_RETURN_IF_ERROR(plan.Execute(
      pending, threads, [&](std::string record) -> util::Status {
        auto fold = store->Append(record);
        if (!fold.ok()) return fold.status();
        if (!fold->duplicate) metrics.records_written.Increment();
        if (fold->new_unit) meter.Tick();
        return util::Status::Ok();
      }));
  CMLDFT_RETURN_IF_ERROR(store->Close());
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
