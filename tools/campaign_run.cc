// Run (or resume) one shard of a durable campaign.
//
//   campaign_run --store <path.campaign> [--shard i/N] [--preset NAME]
//                [--resume] [--overwrite] [--threads N] [--fsync-batch N]
//                [--telemetry <path.json>] [--abort-after-bytes N]
//
// The preset picks the payload (campaign/payload.h): defect screening
// (coverage_comparison, quick), a toggle-coverage sweep over sequential
// benchmarks (pattern_coverage, pattern_quick) or a corner/Monte-Carlo
// characterization (characterization, characterization_quick) — one
// store format, durability and resume semantics for all of them.
//
// The store is an append-only, CRC-checked binary file (docs/campaign.md):
// `kill -9` at any instant leaves a valid prefix, and rerunning the same
// command with --resume continues where the file ends — completed units
// are never re-evaluated. When every shard's store is complete,
// campaign_merge reassembles the monolithic report bit-identically.
//
// An existing store is only touched when --resume (continue it) or
// --overwrite (discard it) says so. --threads (0 = all cores) and
// --fsync-batch take 1 to 9 decimal digits; anything else is a usage
// error, refused before any work starts.
// --abort-after-bytes is the crash-injection hook used by tests and CI:
// the process SIGKILLs itself mid-write once the store reaches that size.
//
// Exit codes: 0 = shard complete, 1 = evaluation/store failure,
// 2 = usage error (bad flags, store/flag mismatch).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/payload.h"
#include "campaign/runner.h"
#include "report/telemetry_json.h"
#include "util/file_io.h"
#include "util/strings.h"
#include "util/telemetry.h"

using namespace cmldft;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --store <path.campaign> [--shard i/N] [--preset NAME]\n"
      "          [--resume] [--overwrite] [--threads N] [--fsync-batch N]\n"
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
    auto count = [&](const char* flag) -> int {
      const char* value = next(flag);
      uint32_t v = 0;
      if (!util::ParseU32(value, &v)) {
        std::fprintf(stderr,
                     "%s: %s takes 1 to 9 decimal digits, not '%s'\n",
                     argv[0], flag, value);
        std::exit(2);
      }
      return static_cast<int>(v);
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
      threads = count("--threads");
    } else if (arg == "--fsync-batch") {
      fsync_batch = count("--fsync-batch");
    } else if (arg == "--abort-after-bytes") {
      abort_at_bytes = count("--abort-after-bytes");
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

  auto plan = campaign::PlanForPreset(preset);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 2;
  }
  campaign::RunOptions opt;
  opt.shard = *shard;
  opt.store_path = store_path;
  opt.fsync_batch = fsync_batch;
  opt.abort_at_bytes = abort_at_bytes;
  opt.progress = progress;
  auto stats = campaign::RunCampaign(**plan, threads, opt);
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
