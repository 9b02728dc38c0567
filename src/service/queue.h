// Durable campaign queue for the scheduler daemon.
//
// A campaign is submitted once and must survive any number of scheduler
// restarts, so each lives as two files in the state directory:
//
//   campaign_<id>.json      the submission: preset, priority, resolved
//                           chunk size. Written tmp-then-rename so a
//                           crash mid-submit leaves either no campaign
//                           or a complete one, never a half-parsed file.
//   campaign_<id>.campaign  the PR 4 result store (header shard 0 of 1)
//                           the scheduler appends worker records to.
//
// On open, the queue rescans the directory, repairs any torn store tail
// (the scheduler may have been SIGKILL'd mid-append), and folds every
// surviving record back through a fresh StreamingMerge — rebuilding the
// lease table's done-bitmap and the live coverage estimate from durable
// bytes alone. Leases themselves are deliberately NOT persisted: they are
// time-bounded claims, and a restarted scheduler simply re-issues them.
// Re-issued work is safe because the merge dedups by unit id.
//
// Scheduling order: higher priority first, FIFO (ascending id) within a
// priority. The queue only orders; granting is the scheduler's job.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/merge.h"
#include "campaign/payload.h"
#include "campaign/store.h"
#include "service/lease.h"
#include "util/status.h"

namespace cmldft::service {

struct CampaignSpec {
  uint64_t id = 0;
  std::string preset;
  int priority = 0;         ///< higher runs first
  uint64_t chunk_units = 0; ///< resolved at submit time (never 0)
};

/// One campaign's runtime state: the durable store it appends to, the
/// lease table over its unit universe, and the streaming merge that both
/// dedups deliveries and serves live coverage.
class Campaign {
 public:
  /// Fresh submission: create the store (header only) and an empty table.
  /// The scheduler writes no record itself: the payload's singleton
  /// record (screening reference, pattern/characterization suite) leads
  /// every worker batch (campaign::EvaluateUnits), and the first batch
  /// folded appends it ahead of its units.
  static util::StatusOr<std::unique_ptr<Campaign>> Create(
      const CampaignSpec& spec, const std::string& store_path,
      int fsync_batch);

  /// Restart path: scan + repair the store, fold its records, reopen for
  /// append. A store whose header contradicts the preset's plan is refused.
  static util::StatusOr<std::unique_ptr<Campaign>> Recover(
      const CampaignSpec& spec, const std::string& store_path,
      int fsync_batch);

  const CampaignSpec& spec() const { return spec_; }
  const campaign::PayloadPlan& plan() const { return *plan_; }
  const std::string& store_path() const { return store_path_; }
  LeaseTable& leases() { return leases_; }
  const LeaseTable& leases() const { return leases_; }
  const campaign::StreamingMerge& merge() const { return merge_; }
  bool complete() const { return merge_.complete(); }
  /// Units whose records were recovered from the store at Recover time.
  uint64_t recovered_units() const { return recovered_units_; }
  bool torn_tail_repaired() const { return torn_tail_repaired_; }

  struct FoldStats {
    uint64_t new_units = 0;
    uint64_t duplicates = 0;
  };

  /// Fold one worker batch: every record is pushed through the streaming
  /// merge; new records (first delivery) are appended to the store and
  /// their units marked done in the lease table; bit-identical duplicates
  /// are dropped. Any merge refusal (drift, corruption, foreign payload)
  /// aborts the batch — records before the bad one are already durable,
  /// which is safe for the same reason duplicates are.
  util::StatusOr<FoldStats> FoldRecords(
      const std::vector<std::string>& records);

  /// Flush and close the store writer (call once, at completion).
  util::Status Finish();

  /// Crash-injection passthrough: SIGKILL the scheduler when this
  /// campaign's store grows past `bytes` (see util::AppendFile).
  void SetKillAtSize(uint64_t bytes);

 private:
  Campaign(CampaignSpec spec, std::unique_ptr<const campaign::PayloadPlan> plan,
           std::string store_path);

  CampaignSpec spec_;
  std::unique_ptr<const campaign::PayloadPlan> plan_;
  std::string store_path_;
  LeaseTable leases_;
  campaign::StreamingMerge merge_;
  std::optional<campaign::StoreWriter> writer_;
  uint64_t recovered_units_ = 0;
  bool torn_tail_repaired_ = false;
  bool finished_ = false;
};

class CampaignQueue {
 public:
  /// Open (creating if needed) `state_dir` and recover every campaign in
  /// it. `default_chunk_units` sizes leases for submissions that don't
  /// specify one.
  static util::StatusOr<CampaignQueue> Open(const std::string& state_dir,
                                            uint64_t default_chunk_units,
                                            int fsync_batch);

  /// Persist and instantiate a new campaign. `chunk_units` 0 means the
  /// queue default. Returns the assigned campaign id.
  util::StatusOr<uint64_t> Submit(std::string_view preset, int priority,
                                  uint64_t chunk_units);

  Campaign* Find(uint64_t id);
  /// All campaigns in scheduling order: priority desc, id asc.
  std::vector<Campaign*> Ordered();
  bool AllComplete() const;
  size_t size() const { return campaigns_.size(); }
  const std::string& state_dir() const { return state_dir_; }

  /// Arm crash injection on every current and future campaign store.
  void SetKillAtSize(uint64_t bytes);

 private:
  CampaignQueue(std::string state_dir, uint64_t default_chunk_units,
                int fsync_batch)
      : state_dir_(std::move(state_dir)),
        default_chunk_units_(default_chunk_units),
        fsync_batch_(fsync_batch) {}

  std::string StorePathFor(uint64_t id) const;
  std::string SpecPathFor(uint64_t id) const;

  std::string state_dir_;
  uint64_t default_chunk_units_;
  int fsync_batch_;
  uint64_t kill_at_bytes_ = 0;
  uint64_t next_id_ = 1;
  std::vector<std::unique_ptr<Campaign>> campaigns_;  ///< ascending id
};

}  // namespace cmldft::service
