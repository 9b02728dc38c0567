#include "service/lease.h"

#include <algorithm>
#include <limits>

namespace cmldft::service {

LeaseTable::LeaseTable(uint64_t total_units, uint64_t chunk_units)
    : total_units_(total_units),
      chunk_units_(std::max<uint64_t>(
          1, std::min(chunk_units == 0 ? 1 : chunk_units,
                      std::max<uint64_t>(1, total_units)))),
      unit_done_(total_units, 0) {
  const uint64_t chunks =
      total_units == 0 ? 0 : (total_units + chunk_units_ - 1) / chunk_units_;
  chunk_remaining_.resize(chunks);
  for (uint64_t c = 0; c < chunks; ++c) {
    const uint64_t first = c * chunk_units_;
    const uint64_t last = std::min(first + chunk_units_, total_units);
    chunk_remaining_[c] = last - first;
  }
}

void LeaseTable::MarkDone(uint64_t unit_id) {
  if (unit_id >= total_units_ || unit_done_[unit_id]) return;
  unit_done_[unit_id] = 1;
  ++units_done_;
  const uint64_t chunk = unit_id / chunk_units_;
  if (--chunk_remaining_[chunk] == 0) {
    // Chunk retired: its leases (original and any steal) are spent.
    leases_.erase(std::remove_if(leases_.begin(), leases_.end(),
                                 [chunk](const LeaseInfo& l) {
                                   return l.chunk == chunk;
                                 }),
                  leases_.end());
  }
}

std::vector<uint64_t> LeaseTable::PendingUnitsOf(uint64_t chunk) const {
  std::vector<uint64_t> ids;
  const uint64_t first = chunk * chunk_units_;
  const uint64_t last = std::min(first + chunk_units_, total_units_);
  for (uint64_t id = first; id < last; ++id) {
    if (!unit_done_[id]) ids.push_back(id);
  }
  return ids;
}

uint64_t LeaseTable::ActiveLeaseCount(uint64_t chunk) const {
  uint64_t n = 0;
  for (const LeaseInfo& l : leases_) {
    if (l.chunk == chunk) ++n;
  }
  return n;
}

std::optional<LeaseGrant> LeaseTable::Acquire(const std::string& worker,
                                              double now,
                                              double lease_seconds) {
  // Lowest-indexed chunk with work remaining and no active lease.
  std::optional<uint64_t> target;
  bool stolen = false;
  for (uint64_t c = 0; c < chunk_remaining_.size(); ++c) {
    if (chunk_remaining_[c] != 0 && ActiveLeaseCount(c) == 0) {
      target = c;
      break;
    }
  }
  if (!target.has_value()) {
    // Work stealing: double up on the leased chunk with the nearest
    // deadline. Cap at two active leases per chunk, and never grant a
    // worker a chunk it already holds — that would only duplicate its own
    // in-flight work.
    double best_deadline = std::numeric_limits<double>::infinity();
    for (uint64_t c = 0; c < chunk_remaining_.size(); ++c) {
      if (chunk_remaining_[c] == 0) continue;
      if (ActiveLeaseCount(c) >= 2) continue;
      bool held_by_worker = false;
      double deadline = std::numeric_limits<double>::infinity();
      for (const LeaseInfo& l : leases_) {
        if (l.chunk != c) continue;
        if (l.worker == worker) held_by_worker = true;
        deadline = std::min(deadline, l.deadline);
      }
      if (held_by_worker) continue;
      if (deadline < best_deadline) {
        best_deadline = deadline;
        target = c;
      }
    }
    stolen = target.has_value();
  }
  if (!target.has_value()) return std::nullopt;

  LeaseInfo lease;
  lease.lease_id = next_lease_id_++;
  lease.chunk = *target;
  lease.worker = worker;
  lease.deadline = now + lease_seconds;
  lease.stolen = stolen;
  leases_.push_back(lease);

  LeaseGrant grant;
  grant.lease_id = lease.lease_id;
  grant.chunk = lease.chunk;
  grant.stolen = stolen;
  grant.unit_ids = PendingUnitsOf(lease.chunk);
  return grant;
}

void LeaseTable::Release(uint64_t lease_id) {
  leases_.erase(std::remove_if(leases_.begin(), leases_.end(),
                               [lease_id](const LeaseInfo& l) {
                                 return l.lease_id == lease_id;
                               }),
                leases_.end());
}

uint64_t LeaseTable::ExpireLeases(double now) {
  const size_t before = leases_.size();
  leases_.erase(std::remove_if(leases_.begin(), leases_.end(),
                               [now](const LeaseInfo& l) {
                                 return l.deadline <= now;
                               }),
                leases_.end());
  return before - leases_.size();
}

double LeaseTable::NextDeadline() const {
  double next = std::numeric_limits<double>::infinity();
  for (const LeaseInfo& l : leases_) next = std::min(next, l.deadline);
  return next;
}

ChunkState LeaseTable::StateOfChunk(uint64_t chunk) const {
  if (chunk >= chunk_remaining_.size() || chunk_remaining_[chunk] == 0) {
    return ChunkState::kDone;
  }
  return ActiveLeaseCount(chunk) > 0 ? ChunkState::kLeased
                                     : ChunkState::kPending;
}

std::vector<LeaseInfo> LeaseTable::ActiveLeases() const { return leases_; }

}  // namespace cmldft::service
