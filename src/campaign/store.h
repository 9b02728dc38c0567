// The `.campaign` result store: an append-only binary file that makes a
// screening campaign crash-safe.
//
// Layout:
//
//   header (40 bytes, CRC-protected):
//     magic "CMLCAMP1" | version u32 | fingerprint u64 |
//     shard_index u32 | shard_count u32 | total_units u64 | header crc u32
//   records, each in the one frame of campaign/bytes.h (shared with the
//   service wire), with a length of 1..kMaxRecordBytes:
//     payload_len u32 | payload crc32 u32 | payload bytes (codec.h)
//
// All integers little-endian. The file is only ever appended to (plus a
// single truncate during torn-tail repair), so a crash at ANY byte leaves
// a valid prefix: ScanStore walks records until the first frame that is
// torn or whose length or CRC doesn't check out, reports everything before
// it as valid, and flags the rest as a torn tail for RepairStore to cut
// off.
// Completed work is never lost; incomplete work is never trusted.
//
// What a store may hold is decided in one place, StreamingMerge::Fold: a
// StoreSession (the one writer of a store that a run or the scheduler
// appends to) folds every record it reads back or appends, and the merge
// (merge.h) folds every record of every store it recombines.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/payload.h"
#include "campaign/planner.h"
#include "util/file_io.h"
#include "util/status.h"

namespace cmldft::campaign {

inline constexpr std::string_view kStoreMagic = "CMLCAMP1";
inline constexpr uint32_t kStoreVersion = 1;
/// Serialized header size (see layout above).
inline constexpr uint64_t kStoreHeaderBytes = 40;
/// Upper bound on a single record payload (the store's frame bound);
/// anything larger is corruption.
inline constexpr uint32_t kMaxRecordBytes = 16u << 20;

struct StoreHeader {
  uint64_t fingerprint = 0;
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  uint64_t total_units = 0;
};

/// Appends CRC-framed records, fsyncing every `fsync_batch` appends (and
/// on Close). Not internally synchronized.
class StoreWriter {
 public:
  /// Start a fresh store at `path` (truncates any existing file), writing
  /// and syncing the header before returning.
  static util::StatusOr<StoreWriter> Create(const std::string& path,
                                            const StoreHeader& header,
                                            int fsync_batch = 8);
  /// Reopen a scanned-and-repaired store for appending.
  static util::StatusOr<StoreWriter> OpenAppend(const std::string& path,
                                                int fsync_batch = 8);

  util::Status AppendRecord(std::string_view payload);
  util::Status Close();

  /// Crash-injection passthrough (see util::AppendFile::SetKillAtSize).
  void SetKillAtSize(uint64_t file_size) { file_.SetKillAtSize(file_size); }

 private:
  StoreWriter(util::AppendFile file, int fsync_batch)
      : file_(std::move(file)), fsync_batch_(fsync_batch) {}

  util::AppendFile file_;
  int fsync_batch_;
  int unsynced_ = 0;
};

struct ScannedStore {
  StoreHeader header;
  /// Record payloads in file order (framing already stripped and checked).
  std::vector<std::string> records;
  /// True when the file ends in an unreadable region (crash mid-write).
  bool torn_tail = false;
  /// Byte length of the valid prefix (header + intact records).
  uint64_t valid_bytes = 0;
};

/// Read and validate a store. A missing file, short/corrupt header, or
/// version/magic mismatch is a hard error; an invalid record region is
/// tolerated only as a tail (everything before it is returned, torn_tail
/// is set). Record *payload* contents are not decoded here.
util::StatusOr<ScannedStore> ScanStore(const std::string& path);

/// Cut a torn tail off the underlying file (no-op for a clean scan).
util::Status RepairStore(const std::string& path, const ScannedStore& scan);

/// `status` with the path of the store it concerns in front of its message.
inline util::Status InStore(const std::string& path,
                            const util::Status& status) {
  return util::Status(status.code(), path + ": " + status.message());
}

/// Streaming incremental merge, and the record gate: the one decision of
/// whether a record belongs in a store of one payload's campaign. Records
/// fold one at a time, in any order, as a run emits them, as workers
/// deliver them or as a store is read back; the scheduler reads a live
/// coverage estimate off it for the status API.
///
/// Idempotent by construction: a unit record delivered twice (a reclaimed
/// lease whose original worker also finished, a re-sent batch) is accepted
/// when bit-identical to the first delivery and refused otherwise — the
/// first record wins, the duplicate is only cross-checked, and
/// `units_done` never double-counts. The singleton record gets the same
/// treatment, which is the resume guard extended across hosts: two
/// workers running different engine builds cannot contribute to one
/// campaign.
///
/// `LiveCoverage` is the payload's headline ratio (payload.h,
/// UnitRecordInfo) over the units folded so far; at completion it equals
/// the value the merged report derives from the same records.
class StreamingMerge {
 public:
  StreamingMerge(const Payload& payload, uint64_t total_units)
      : payload_(&payload), total_units_(total_units) {}

  struct FoldResult {
    /// A unit not seen before was folded in.
    bool new_unit = false;
    /// First delivery of the singleton record.
    bool new_singleton = false;
    /// Bit-identical re-delivery of an already-folded record; ignored.
    bool duplicate = false;
    /// Set for unit records (valid when new_unit or duplicate).
    uint64_t unit_id = 0;
  };

  /// Fold one record payload (store framing already stripped). Refuses an
  /// empty or unknown record, another payload's record, a singleton that
  /// differs from the one folded, an undecodable unit, an out-of-universe
  /// unit id, a unit whose coordinates contradict its id (checked once the
  /// singleton is folded), and a second, different record for a unit.
  util::StatusOr<FoldResult> Fold(std::string_view record);

  uint64_t total_units() const { return total_units_; }
  uint64_t units_done() const { return unit_hash_.size(); }
  bool complete() const { return units_done() == total_units_; }
  bool has_unit(uint64_t id) const { return unit_hash_.count(id) != 0; }
  /// The folded singleton record; empty before it arrives.
  const std::string& singleton() const { return singleton_; }

  /// Payload headline ratio over the units folded so far (0 when none).
  double LiveCoverage() const;

 private:
  const Payload* payload_;
  uint64_t total_units_;
  std::string singleton_;
  /// Content hash of each folded unit record, by unit id: memory grows
  /// with the records folded, never with a header's universe.
  std::map<uint64_t, uint64_t> unit_hash_;
  uint64_t covered_ = 0;
  uint64_t coverable_ = 0;
};

/// One shard store of one plan, open for appending, whose every record has
/// passed StreamingMerge::Fold. Not internally synchronized: the run loop
/// appends under PayloadPlan::Execute's serialization of emits, the
/// scheduler from its one event loop. Every refusal names the store.
class StoreSession {
 public:
  /// Start a fresh store at `path` (truncating any file there), its header
  /// written and synced before this returns.
  static util::StatusOr<StoreSession> Create(const PayloadPlan& plan,
                                             const ShardPlan& shard,
                                             const std::string& path,
                                             int fsync_batch);
  /// Reopen the store at `path`: refuse a header that is not `shard` of
  /// `plan` and any stored record Fold refuses, then cut off a torn tail.
  /// A refused store is left as it was.
  static util::StatusOr<StoreSession> Resume(const PayloadPlan& plan,
                                             const ShardPlan& shard,
                                             const std::string& path,
                                             int fsync_batch);

  /// Fold `record` and write it if it is new, so it is durable before the
  /// caller counts it. A bit-identical duplicate is not written.
  util::StatusOr<StreamingMerge::FoldResult> Append(std::string_view record);

  const std::string& path() const { return path_; }
  const StreamingMerge& merge() const { return merge_; }
  bool torn_tail_repaired() const { return torn_tail_repaired_; }

  /// Sync and close the store (idempotent). A new record after this is an
  /// error; duplicates still fold.
  util::Status Close();

  /// Crash-injection passthrough (see util::AppendFile::SetKillAtSize).
  void SetKillAtSize(uint64_t file_size) { writer_.SetKillAtSize(file_size); }

 private:
  StoreSession(std::string path, StreamingMerge merge, StoreWriter writer)
      : path_(std::move(path)), merge_(std::move(merge)),
        writer_(std::move(writer)) {}

  std::string path_;
  StreamingMerge merge_;
  StoreWriter writer_;
  bool torn_tail_repaired_ = false;
  bool closed_ = false;
};

}  // namespace cmldft::campaign
