// The seam between the screening engine and the campaign runtime.
//
// core::ScreenBufferChain enumerates a deterministically-ordered defect
// universe and runs the unit ids it is given (all of them by default). A
// Sink receives every completed outcome, plus the fault-free reference
// measurements, as they are produced; the screening payload
// (screening_campaign.cc) encodes them as store records, and the engine
// itself stays oblivious to files, shards, and restarts.
//
// Emit is called from worker threads and must be internally
// synchronized. Determinism contract: whatever subset of ids runs, each
// unit's outcome is bit-identical to the same unit in a monolithic serial
// run — selection never changes computation.
#pragma once

#include <cstdint>

#include "core/screening.h"
#include "util/status.h"

namespace cmldft::campaign {

/// Receives completed screening results. Implementations are internally
/// synchronized; Emit is called from worker threads in completion order
/// (which is nondeterministic — durable consumers must key by unit id).
class Sink {
 public:
  virtual ~Sink() = default;
  /// The fault-free reference measurements (report with empty outcomes).
  /// Called once, before any Emit.
  virtual util::Status EmitReference(const core::ScreeningReport& reference) = 0;
  /// One completed unit. `id` indexes the stable universe ordering.
  virtual util::Status Emit(uint64_t id, const core::DefectOutcome& outcome) = 0;
};

}  // namespace cmldft::campaign
