#include "campaign/planner.h"

#include "util/strings.h"

namespace cmldft::campaign {

std::string ShardPlan::ToString() const {
  return util::StrPrintf("%u/%u", index, count);
}

util::StatusOr<ShardPlan> ParseShardSpec(std::string_view spec) {
  const size_t slash = spec.find('/');
  ShardPlan plan;
  if (slash == std::string_view::npos ||
      !util::ParseU32(spec.substr(0, slash), &plan.index) ||
      !util::ParseU32(spec.substr(slash + 1), &plan.count)) {
    return util::Status::InvalidArgument(
        "bad shard spec '" + std::string(spec) +
        "': expected i/N with 0-based shard index, e.g. 0/4");
  }
  if (plan.count == 0) {
    return util::Status::InvalidArgument("bad shard spec '" +
                                         std::string(spec) +
                                         "': shard count must be >= 1");
  }
  if (plan.index >= plan.count) {
    return util::Status::InvalidArgument(
        "bad shard spec '" + std::string(spec) + "': index " +
        std::to_string(plan.index) + " out of range for " +
        std::to_string(plan.count) + " shards (indices are 0-based)");
  }
  return plan;
}

}  // namespace cmldft::campaign
