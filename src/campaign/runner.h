// Durable, resumable execution of one campaign shard, for any payload.
//
// RunCampaign turns a payload plan's in-memory evaluation into a
// crash-safe unit of a larger campaign:
//
//   1. If the store file exists: scan it, refuse a fingerprint/shard/size
//      mismatch, truncate a torn tail record, and collect the unit ids
//      already completed. Otherwise create the store.
//   2. Execute this shard's pending units and append every record the
//      plan emits as a CRC-framed record, fsync'd in batches. The
//      singleton record is appended once: a resumed store's singleton
//      must be byte-equal to the one this run emits, or the run is refused
//      (the fingerprint cannot see engine-internal changes; a
//      re-simulated screening reference can).
//
// `kill -9` at any instant leaves a valid store prefix; rerunning the
// same command line resumes where the file ends. After all shards
// complete, merge.h reassembles the exact monolithic result.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/payload.h"
#include "campaign/planner.h"
#include "campaign/screening_campaign.h"
#include "core/screening.h"
#include "util/status.h"
#include "util/telemetry.h"

namespace cmldft::campaign {

/// Options every payload's run shares.
struct RunOptions {
  ShardPlan shard;
  /// Path of this shard's `.campaign` result store.
  std::string store_path;
  /// fsync after this many appended records (and always on completion).
  int fsync_batch = 8;
  /// Crash injection for tests/CI: SIGKILL this process the moment the
  /// store would exceed this many bytes (0 = off). See util::AppendFile.
  uint64_t abort_at_bytes = 0;
  /// Print a rate-limited units-done/ETA line to stderr (campaign_run
  /// --progress). Never affects stores or reports.
  bool progress = false;
};

struct CampaignRunStats {
  uint64_t total_units = 0;    ///< universe size under these options
  uint64_t shard_units = 0;    ///< units belonging to this shard
  uint64_t resumed_skips = 0;  ///< shard units already complete in the store
  uint64_t executed = 0;       ///< units evaluated by this run
  bool resumed = false;             ///< store existed before this run
  bool torn_tail_recovered = false; ///< a torn tail record was truncated
};

/// Run (or resume) one shard of `plan` with `threads` workers (0 = auto).
/// The store at `options.store_path` is created if absent; an existing
/// store must match the plan's fingerprint/universe and the shard.
util::StatusOr<CampaignRunStats> RunCampaign(const PayloadPlan& plan,
                                             int threads,
                                             const RunOptions& options);

/// Evaluate `ids` of the plan's universe without a store and return the
/// encoded records the plan emits: the singleton first, then one per unit.
/// Refuses an id outside the universe (a lease grant from the network).
util::StatusOr<std::vector<std::string>> EvaluateUnits(
    const PayloadPlan& plan, const std::vector<uint64_t>& ids, int threads);

/// The `campaign.*` counters (docs/observability.md), registered at load
/// time by whichever binary links the run loop.
struct CampaignMetrics {
  util::telemetry::Counter runs =
      util::telemetry::GetCounter("campaign.runs");
  util::telemetry::Counter records_written =
      util::telemetry::GetCounter("campaign.records_written");
  util::telemetry::Counter resumed_skips =
      util::telemetry::GetCounter("campaign.resumed_skips");
  util::telemetry::Counter torn_tail_recoveries =
      util::telemetry::GetCounter("campaign.torn_tail_recoveries");
  util::telemetry::Counter merges =
      util::telemetry::GetCounter("campaign.merges");
};
const CampaignMetrics& Metrics();

// ---- Defect screening ----

struct CampaignOptions : RunOptions {
  core::ScreeningOptions screening;
};

/// RunCampaign over MakeScreeningPlan(options.screening), with
/// options.screening.threads workers.
util::StatusOr<CampaignRunStats> RunScreeningCampaign(
    const CampaignOptions& options);

}  // namespace cmldft::campaign
