#include "campaign/manifest.h"

#include "util/strings.h"

namespace cmldft::campaign {

util::StatusOr<report::Report> BuildCampaignManifest(
    const MergedStores& merged) {
  using report::Tol;
  const ManifestSpec& spec = merged.payload->manifest;
  report::Report rep(std::string(spec.experiment), std::string(spec.paper_ref),
                     std::string(spec.summary));

  rep.AddText("fingerprint",
              util::StrPrintf("%016llx",
                              static_cast<unsigned long long>(
                                  merged.fingerprint)));
  rep.AddInt("total_units", static_cast<long long>(merged.total_units));
  rep.AddInt("shard_count", static_cast<long long>(merged.shard_count));
  CMLDFT_RETURN_IF_ERROR(spec.tallies(merged, rep));

  // Per-store contribution: how the campaign was decomposed. Informational
  // — the same universe merged from a different shard split is still the
  // same campaign result.
  report::Table& shards = rep.AddTable(
      "shards",
      {{"shard", Tol::Info()}, {std::string(spec.shard_column), Tol::Info()}});
  for (const auto& [index, count] : merged.shard_units) {
    shards.NewRow().Int(index).Int(static_cast<long long>(count));
  }
  return rep;
}

}  // namespace cmldft::campaign
