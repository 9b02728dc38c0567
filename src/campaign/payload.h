// One interface over the campaign payloads.
//
// Every durable campaign — the §6 defect-screening universe, the §6.6
// pattern-coverage sweep and the off-corner characterization grid — has
// the same shape: one *singleton* record that every shard writes first
// (the fault-free screening reference, or the pattern/characterization
// suite), then one record per universe unit, keyed by its unit id. A
// `Payload` descriptor says what differs between them; everything else
// runs once for all of them: the run loop (runner.h), the store merge and
// the streaming fold (merge.h), the manifest (manifest.h), the service
// queue and worker, and the tools.
//
// A payload lives in one file that defines its descriptor (the record
// codec, the preset table, the plan, unit evaluation, the live-coverage
// term and the manifest tallies) plus one row in the registry below.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/codec.h"
#include "util/status.h"

namespace cmldft::report {
class Report;
}  // namespace cmldft::report

namespace cmldft::campaign {

class PayloadPlan;
struct MergedStores;

/// What generic code reads off one unit record.
struct UnitRecordInfo {
  uint64_t id = 0;
  /// Live-coverage term: a payload's headline ratio is the sum of
  /// `covered` over the sum of `coverable` across its units.
  uint64_t covered = 0;
  uint64_t coverable = 0;
};

/// The manifest fields (manifest.h) that differ per payload.
struct ManifestSpec {
  std::string_view experiment;
  std::string_view paper_ref;
  std::string_view summary;
  /// Header of the per-store record count column.
  std::string_view shard_column;
  /// Adds the payload's tallies after the universe and shard-plan entries.
  util::Status (*tallies)(const MergedStores& merged, report::Report& rep);
};

struct Payload {
  /// "screening", "pattern" or "characterization" — the scheduler's status
  /// JSON prints it.
  std::string_view name;
  RecordType singleton_type;
  RecordType unit_type;
  /// Preset names, matched exactly.
  std::span<const std::string_view> presets;
  /// The plan of one of `presets`. Enumeration only — no simulation.
  util::StatusOr<std::unique_ptr<const PayloadPlan>> (*plan)(
      std::string_view preset);
  /// Checks the campaign's singleton record against a store header's
  /// fingerprint and universe size (as far as the record describes them).
  util::Status (*check_singleton)(std::string_view singleton,
                                  uint64_t fingerprint, uint64_t total_units);
  /// Decodes a unit record. Given the campaign's singleton record
  /// (non-empty), also requires the coordinates the record carries to be
  /// the ones its unit id implies.
  util::StatusOr<UnitRecordInfo> (*unit)(std::string_view record,
                                         std::string_view singleton);
  ManifestSpec manifest;
};

/// Receives the encoded records of PayloadPlan::Execute. Calls are
/// serialized by Execute; an error stops the execution.
using Emit = std::function<util::Status(std::string record)>;

/// What a plan prepares once before it evaluates any unit: the singleton
/// record, and the function that evaluates one unit (an id below
/// total_units()) into its encoded record. `unit` is called from worker
/// threads at once.
struct PreparedPayload {
  std::string singleton;
  std::function<util::StatusOr<std::string>(uint64_t id)> unit;
};

/// A payload bound to one configuration: its store fingerprint, its
/// universe size and the evaluation of any subset of its units.
class PayloadPlan {
 public:
  using Prepare = std::function<util::StatusOr<PreparedPayload>()>;

  PayloadPlan(const Payload& payload, uint64_t fingerprint,
              uint64_t total_units, Prepare prepare)
      : payload_(payload), fingerprint_(fingerprint),
        total_units_(total_units), prepare_(std::move(prepare)) {}
  PayloadPlan(const PayloadPlan&) = delete;
  PayloadPlan& operator=(const PayloadPlan&) = delete;

  const Payload& payload() const { return payload_; }
  uint64_t fingerprint() const { return fingerprint_; }
  uint64_t total_units() const { return total_units_; }

  /// Evaluates `ids` (each < total_units()) on `threads` workers (0 =
  /// auto, util/parallel.h). Emits the singleton record first, then one
  /// unit record per id in completion order, and stops at the first
  /// error. Each unit is bit-identical to the same unit of a monolithic
  /// serial run. The first call runs `prepare` (for screening, the
  /// fault-free reference); every later call reuses what it returned, so
  /// building a plan simulates nothing. Defined in runner.cc, with its
  /// callers: a bench that links a payload file for its preset alone links
  /// neither the run loop nor the registry, nor their metrics.
  util::Status Execute(const std::vector<uint64_t>& ids, int threads,
                       const Emit& emit) const;

 private:
  const Payload& payload_;
  uint64_t fingerprint_;
  uint64_t total_units_;
  Prepare prepare_;
  mutable std::once_flag prepared_once_;
  mutable std::optional<util::StatusOr<PreparedPayload>> prepared_;
};

/// The one refusal of records that belong to another payload (`found`
/// names it, as PayloadNameOf does).
inline util::Status ForeignRecords(std::string_view found,
                                   const Payload& expected) {
  return util::Status::FailedPrecondition(
      "store holds " + std::string(found) + " records, not " +
      std::string(expected.name) + " records");
}

// ---- Registry ----

/// The payload owning record type `type` (singleton or unit), or null.
const Payload* FindPayload(RecordType type);

/// The plan of any payload's preset. An unknown name is InvalidArgument
/// listing every preset.
util::StatusOr<std::unique_ptr<const PayloadPlan>> PlanForPreset(
    std::string_view preset);

}  // namespace cmldft::campaign
