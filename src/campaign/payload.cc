#include "campaign/payload.h"

#include "campaign/characterize_campaign.h"
#include "campaign/pattern_campaign.h"
#include "campaign/screening_campaign.h"

namespace cmldft::campaign {

namespace {

// One row per payload. A payload's file defines its descriptor; this table
// is the only place that lists them all.
constexpr const Payload* kRegistry[] = {
    &kScreeningPayload,
    &kPatternPayload,
    &kCharacterizationPayload,
};

}  // namespace

const Payload* FindPayload(RecordType type) {
  for (const Payload* p : kRegistry) {
    if (p->singleton_type == type || p->unit_type == type) return p;
  }
  return nullptr;
}

util::StatusOr<std::unique_ptr<const PayloadPlan>> PlanForPreset(
    std::string_view preset) {
  std::string available;
  for (const Payload* p : kRegistry) {
    for (std::string_view name : p->presets) {
      if (name == preset) return p->plan(preset);
      if (!available.empty()) available += ", ";
      available += name;
    }
  }
  return util::Status::InvalidArgument("unknown campaign preset '" +
                                       std::string(preset) +
                                       "' (available: " + available + ")");
}

}  // namespace cmldft::campaign
