// Run (or resume) one shard of a durable defect-screening campaign.
//
//   campaign_run --store <path.campaign> [--shard i/N] [--preset NAME]
//                [--resume] [--overwrite] [--threads N] [--fsync-batch N]
//                [--hier] [--hier-quantum Q]
//                [--telemetry <path.json>] [--abort-after-bytes N]
//
// The store is an append-only, CRC-checked binary file (docs/campaign.md):
// `kill -9` at any instant leaves a valid prefix, and rerunning the same
// command with --resume continues where the file ends — completed defects
// are never re-simulated. When every shard's store is complete,
// campaign_merge reassembles the monolithic report bit-identically.
//
// An existing store is only touched when --resume (continue it) or
// --overwrite (discard it) says so. Screening presets:
// coverage_comparison, quick. Presets with a "pattern_" prefix
// (pattern_coverage, pattern_quick) run a toggle-coverage sweep over
// sequential benchmarks instead (campaign/pattern_campaign.h), and
// presets with a "characterization" prefix (characterization,
// characterization_quick) run a corner/Monte-Carlo characterization
// (campaign/characterize_campaign.h) — same store format, durability,
// and resume semantics, different payloads.
// --abort-after-bytes is the crash-injection hook used by tests and CI:
// the process SIGKILLs itself mid-write once the store reaches that size.
//
// Exit codes: 0 = shard complete, 1 = screening/store failure,
// 2 = usage error (bad flags, store/flag mismatch).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/characterize_campaign.h"
#include "campaign/pattern_campaign.h"
#include "campaign/runner.h"
#include "report/telemetry_json.h"
#include "util/file_io.h"
#include "util/telemetry.h"

using namespace cmldft;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --store <path.campaign> [--shard i/N] [--preset NAME]\n"
      "          [--resume] [--overwrite] [--threads N] [--fsync-batch N]\n"
      "          [--hier] [--hier-quantum Q]\n"
      "          [--telemetry <path.json>]\n"
      "          [--abort-after-bytes N] [--progress]\n"
      "presets: coverage_comparison (default), quick, pattern_coverage, "
      "pattern_quick, characterization, characterization_quick\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_path;
  std::string shard_spec = "0/1";
  std::string preset = "coverage_comparison";
  std::string telemetry_path;
  bool resume = false;
  bool overwrite = false;
  bool progress = false;
  int threads = 0;
  bool hier = false;
  double hier_quantum = 0.0;
  int fsync_batch = 8;
  unsigned long long abort_at_bytes = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--store") {
      store_path = next("--store");
    } else if (arg == "--shard") {
      shard_spec = next("--shard");
    } else if (arg == "--preset") {
      preset = next("--preset");
    } else if (arg == "--telemetry") {
      telemetry_path = next("--telemetry");
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--overwrite") {
      overwrite = true;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--threads") {
      threads = std::atoi(next("--threads"));
    } else if (arg == "--hier") {
      // Hierarchical bordered-block-diagonal solver (docs/performance.md
      // "Layer 6"): per-cell elimination with factor sharing. Solutions
      // are tolerance-equivalent to the flat path.
      hier = true;
    } else if (arg == "--hier-quantum") {
      hier_quantum = std::atof(next("--hier-quantum"));
      if (!std::isfinite(hier_quantum) || hier_quantum < 0.0) {
        std::fprintf(stderr,
                     "%s: --hier-quantum requires a finite value >= 0\n",
                     argv[0]);
        return 2;
      }
    } else if (arg == "--fsync-batch") {
      fsync_batch = std::atoi(next("--fsync-batch"));
    } else if (arg == "--abort-after-bytes") {
      abort_at_bytes = std::strtoull(next("--abort-after-bytes"), nullptr, 10);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (store_path.empty()) {
    std::fprintf(stderr, "%s: --store is required\n", argv[0]);
    return Usage(argv[0]);
  }

  auto shard = campaign::ParseShardSpec(shard_spec);
  if (!shard.ok()) {
    std::fprintf(stderr, "%s\n", shard.status().ToString().c_str());
    return 2;
  }

  const bool store_exists = util::FileSizeOf(store_path).ok();
  if (store_exists && !resume && !overwrite) {
    std::fprintf(stderr,
                 "%s: store %s already exists — pass --resume to continue the "
                 "campaign or --overwrite to discard it\n",
                 argv[0], store_path.c_str());
    return 2;
  }
  if (store_exists && overwrite) {
    std::remove(store_path.c_str());
  }

  util::StatusOr<campaign::CampaignRunStats> stats =
      util::Status::Internal("unreachable");
  // --hier only applies to defect-screening presets; reject it elsewhere so
  // a typo'd invocation fails loudly instead of silently running flat.
  if ((hier || hier_quantum != 0.0) &&
      (campaign::IsCharacterizationPreset(preset) ||
       campaign::IsPatternPreset(preset))) {
    std::fprintf(stderr,
                 "%s: --hier/--hier-quantum only apply to screening presets "
                 "(preset '%s' is not one)\n",
                 argv[0], preset.c_str());
    return 2;
  }

  if (campaign::IsCharacterizationPreset(preset)) {
    campaign::CharacterizationCampaignOptions opt;
    auto config = campaign::CharacterizationPreset(preset);
    if (!config.ok()) {
      std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
      return 2;
    }
    opt.config = *config;
    opt.shard = *shard;
    opt.store_path = store_path;
    opt.threads = threads;
    opt.fsync_batch = fsync_batch;
    opt.abort_at_bytes = abort_at_bytes;
    opt.progress = progress;
    stats = campaign::RunCharacterizationCampaign(opt);
  } else if (campaign::IsPatternPreset(preset)) {
    campaign::PatternCampaignOptions opt;
    auto sweep = campaign::PatternSweepPreset(preset);
    if (!sweep.ok()) {
      std::fprintf(stderr, "%s\n", sweep.status().ToString().c_str());
      return 2;
    }
    opt.sweep = *sweep;
    opt.shard = *shard;
    opt.store_path = store_path;
    opt.threads = threads;
    opt.fsync_batch = fsync_batch;
    opt.abort_at_bytes = abort_at_bytes;
    opt.progress = progress;
    stats = campaign::RunPatternCampaign(opt);
  } else {
    campaign::CampaignOptions opt;
    auto screening = campaign::ScreeningPreset(preset);
    if (!screening.ok()) {
      std::fprintf(stderr, "%s\n", screening.status().ToString().c_str());
      return 2;
    }
    opt.screening = *screening;
    opt.screening.threads = threads;
    opt.screening.hierarchical = hier;
    opt.screening.hier_share_quantum = hier_quantum;
    opt.shard = *shard;
    opt.store_path = store_path;
    opt.fsync_batch = fsync_batch;
    opt.abort_at_bytes = abort_at_bytes;
    opt.progress = progress;
    stats = campaign::RunScreeningCampaign(opt);
  }
  if (!stats.ok()) {
    std::fprintf(stderr, "campaign shard failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("shard %s of %llu-unit universe: %llu unit(s) in shard, "
              "%llu resumed, %llu executed%s\n",
              shard->ToString().c_str(),
              static_cast<unsigned long long>(stats->total_units),
              static_cast<unsigned long long>(stats->shard_units),
              static_cast<unsigned long long>(stats->resumed_skips),
              static_cast<unsigned long long>(stats->executed),
              stats->torn_tail_recovered ? " (torn tail truncated)" : "");

  if (!telemetry_path.empty()) {
    util::Status st = report::WriteTelemetrySnapshotFile(
        telemetry_path, util::telemetry::Capture());
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
