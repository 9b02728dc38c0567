// Work-stealing lease table for one campaign.
//
// The campaign's unit universe (the deterministic planner order that PR 4
// shards striped by `id % N`) is cut into contiguous, lease-sized chunks.
// Each chunk moves through a small state machine:
//
//   pending ──grant──> leased ──all units folded──> done
//      ^                  │
//      └──every lease─────┘
//         expired/released
//
// A lease is time-bounded on the monotonic clock: a worker that dies (or
// stalls past the deadline) simply stops renewing its claim and the chunk
// is re-issued — nothing is ever "taken back" over the network. Because
// completion is recorded per *unit* (the streaming merge dedups by id,
// first record wins, duplicates must be bit-identical), re-issuing a
// chunk whose original worker is secretly still alive is safe: both may
// finish, one delivery folds, the other verifies.
//
// Work stealing proper: when every remaining chunk is already leased, an
// idle worker is granted a *second* lease on the chunk with the nearest
// deadline (capped at two active leases per chunk, never two to the same
// worker) instead of being told to wait — a slow or dead straggler can
// delay a campaign by at most one chunk evaluation, not by a lease
// timeout.
//
// Pure bookkeeping: no sockets, no clocks of its own (callers pass `now`),
// so every policy above is unit-testable deterministically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cmldft::service {

/// Chunk states surfaced by the status API.
enum class ChunkState : uint8_t { kPending, kLeased, kDone };

struct LeaseInfo {
  uint64_t lease_id = 0;
  uint64_t chunk = 0;
  std::string worker;
  double deadline = 0;  ///< monotonic seconds (util::MonotonicSeconds)
  bool stolen = false;  ///< granted on top of another active lease
};

struct LeaseGrant {
  uint64_t lease_id = 0;
  uint64_t chunk = 0;
  bool stolen = false;
  /// The chunk's not-yet-completed unit ids, ascending.
  std::vector<uint64_t> unit_ids;
};

class LeaseTable {
 public:
  /// `chunk_units` is clamped to [1, total_units].
  LeaseTable(uint64_t total_units, uint64_t chunk_units);

  uint64_t total_units() const { return total_units_; }
  uint64_t chunk_count() const { return chunk_remaining_.size(); }
  uint64_t units_done() const { return units_done_; }
  bool AllDone() const { return units_done_ == total_units_; }

  /// Mark a unit complete (store rebuild on scheduler restart, and every
  /// new unit the streaming merge folds). Idempotent. Completing the last
  /// unit of a chunk retires the chunk and drops its active leases.
  void MarkDone(uint64_t unit_id);

  /// Grant a lease to `worker`: the lowest-indexed pending chunk, or — when
  /// none is pending — steal the leased chunk with the nearest deadline
  /// (unless `worker` already holds it, or two leases are active on it).
  /// nullopt when nothing is grantable (all done, or steal caps reached).
  std::optional<LeaseGrant> Acquire(const std::string& worker, double now,
                                    double lease_seconds);

  /// Release a worker's lease (normal completion path after its records
  /// folded, or connection teardown). Unknown ids are ignored.
  void Release(uint64_t lease_id);

  /// Drop every lease whose deadline passed; their chunks (if incomplete)
  /// return to pending. Returns the number of leases expired.
  uint64_t ExpireLeases(double now);

  /// Earliest active-lease deadline, or +infinity when none (poll timeout).
  double NextDeadline() const;

  ChunkState StateOfChunk(uint64_t chunk) const;
  /// Active leases, ascending lease id (status API).
  std::vector<LeaseInfo> ActiveLeases() const;

 private:
  std::vector<uint64_t> PendingUnitsOf(uint64_t chunk) const;
  uint64_t ActiveLeaseCount(uint64_t chunk) const;

  uint64_t total_units_;
  uint64_t chunk_units_;
  uint64_t units_done_ = 0;
  uint64_t next_lease_id_ = 1;
  std::vector<uint8_t> unit_done_;
  /// Units of each chunk not yet done (chunk is done at zero).
  std::vector<uint64_t> chunk_remaining_;
  std::vector<LeaseInfo> leases_;  ///< active only, ascending lease id
};

}  // namespace cmldft::service
