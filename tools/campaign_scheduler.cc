// Long-lived campaign scheduler daemon (docs/campaign.md, "Distributed
// service").
//
//   campaign_scheduler --state-dir <dir> [--port N] [--http-port N]
//                      [--port-file <path.json>] [--lease-seconds S]
//                      [--chunk-units N] [--retry-ms N] [--fsync-batch N]
//                      [--submit PRESET[:PRIORITY[:CHUNK_UNITS]]]...
//                      [--idle-exit] [--telemetry <path.json>]
//                      [--abort-after-bytes N]
//
// Owns the durable campaign queue in --state-dir: every submission (and
// every worker-streamed result record) survives a kill -9 of this
// process; restarting with the same state dir resumes exactly where the
// durable bytes end. Ports default to ephemeral; --port-file publishes
// the bound ports as JSON for scripts. --idle-exit makes the daemon exit
// 0 once every campaign is complete and the last worker has drained —
// with no campaigns at all it exits immediately, which is how the
// telemetry schema golden snapshots the service.* metric registry.
// --abort-after-bytes SIGKILLs the daemon mid-append once a campaign
// store reaches that size (crash injection for the durability drills).
//
// Exit codes: 0 = idle exit, 1 = fatal service error, 2 = usage error,
// among them a number not read in full or out of range (a port above
// 65535), refused before the state dir or a listener opens.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "report/json.h"
#include "report/telemetry_json.h"
#include "service/scheduler.h"
#include "util/strings.h"
#include "util/telemetry.h"

using namespace cmldft;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --state-dir <dir> [--port N] [--http-port N]\n"
      "          [--port-file <path.json>] [--lease-seconds S]\n"
      "          [--chunk-units N] [--retry-ms N] [--fsync-batch N]\n"
      "          [--submit PRESET[:PRIORITY[:CHUNK_UNITS]]]...\n"
      "          [--idle-exit] [--telemetry <path.json>]\n"
      "          [--abort-after-bytes N]\n",
      argv0);
  return 2;
}

constexpr uint32_t kMaxPort = 65535;
/// The largest number util::ParseU32 reads: 9 decimal digits.
constexpr uint32_t kMaxCount = 999999999;

struct SubmitSpec {
  std::string preset;
  int priority = 0;
  uint64_t chunk_units = 0;
};

/// PRESET[:PRIORITY[:CHUNK_UNITS]], every number read in full: PRIORITY
/// may carry a '-'. Nullopt when a number is not one.
std::optional<SubmitSpec> ParseSubmit(std::string_view arg) {
  SubmitSpec spec;
  const size_t c1 = arg.find(':');
  spec.preset = std::string(arg.substr(0, c1));
  if (c1 == std::string_view::npos) return spec;
  const std::string_view rest = arg.substr(c1 + 1);
  const size_t c2 = rest.find(':');
  const std::string_view priority = rest.substr(0, c2);
  const bool negative = !priority.empty() && priority[0] == '-';
  uint32_t magnitude = 0;
  if (!util::ParseU32(priority.substr(negative ? 1 : 0), &magnitude)) {
    return std::nullopt;
  }
  spec.priority = negative ? -static_cast<int>(magnitude)
                           : static_cast<int>(magnitude);
  if (c2 == std::string_view::npos) return spec;
  uint32_t chunk_units = 0;
  if (!util::ParseU32(rest.substr(c2 + 1), &chunk_units)) return std::nullopt;
  spec.chunk_units = chunk_units;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  service::SchedulerOptions options;
  std::string port_file;
  std::string telemetry_path;
  std::vector<SubmitSpec> submits;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Every number is read in full and in range; a bad one exits 2 naming
    // its flag, before the state dir or a listener opens.
    auto number = [&](const char* flag, uint32_t max) -> uint32_t {
      const char* value = next(flag);
      uint32_t v = 0;
      if (!util::ParseU32(value, &v) || v > max) {
        std::fprintf(stderr,
                     "%s: %s takes a whole number of 0 to %u, not '%s'\n",
                     argv[0], flag, max, value);
        std::exit(2);
      }
      return v;
    };
    if (arg == "--state-dir") {
      options.state_dir = next("--state-dir");
    } else if (arg == "--port") {
      options.worker_port = static_cast<uint16_t>(number("--port", kMaxPort));
    } else if (arg == "--http-port") {
      options.http_port =
          static_cast<uint16_t>(number("--http-port", kMaxPort));
    } else if (arg == "--port-file") {
      port_file = next("--port-file");
    } else if (arg == "--lease-seconds") {
      const char* value = next("--lease-seconds");
      char* end = nullptr;
      options.lease_seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' ||
          !std::isfinite(options.lease_seconds)) {
        std::fprintf(stderr, "%s: --lease-seconds takes a number, not '%s'\n",
                     argv[0], value);
        return 2;
      }
    } else if (arg == "--chunk-units") {
      options.chunk_units = number("--chunk-units", kMaxCount);
    } else if (arg == "--retry-ms") {
      options.retry_ms = number("--retry-ms", kMaxCount);
    } else if (arg == "--fsync-batch") {
      options.fsync_batch =
          static_cast<int>(number("--fsync-batch", kMaxCount));
    } else if (arg == "--submit") {
      const char* value = next("--submit");
      const auto spec = ParseSubmit(value);
      if (!spec) {
        std::fprintf(stderr,
                     "%s: --submit takes PRESET[:PRIORITY[:CHUNK_UNITS]] with "
                     "whole numbers, not '%s'\n",
                     argv[0], value);
        return 2;
      }
      submits.push_back(*spec);
    } else if (arg == "--idle-exit") {
      options.idle_exit = true;
    } else if (arg == "--telemetry") {
      telemetry_path = next("--telemetry");
    } else if (arg == "--abort-after-bytes") {
      options.abort_at_bytes = number("--abort-after-bytes", kMaxCount);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (options.state_dir.empty()) {
    std::fprintf(stderr, "%s: --state-dir is required\n", argv[0]);
    return Usage(argv[0]);
  }
  if (options.lease_seconds <= 0 || options.chunk_units == 0) {
    std::fprintf(stderr, "%s: --lease-seconds and --chunk-units must be positive\n",
                 argv[0]);
    return Usage(argv[0]);
  }

  auto scheduler = service::Scheduler::Create(options);
  if (!scheduler.ok()) {
    std::fprintf(stderr, "%s\n", scheduler.status().ToString().c_str());
    return 1;
  }

  for (const SubmitSpec& s : submits) {
    auto id = (*scheduler)->Submit(s.preset, s.priority, s.chunk_units);
    if (!id.ok()) {
      std::fprintf(stderr, "submit %s: %s\n", s.preset.c_str(),
                   id.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[scheduler] submitted campaign %llu (%s)\n",
                 static_cast<unsigned long long>(*id), s.preset.c_str());
  }

  if (!port_file.empty()) {
    // tmp-then-rename: a script polling for the file never reads half of it.
    report::Json doc = report::Json::Object();
    doc.Set("worker_port", report::Json::Int((*scheduler)->worker_port()));
    doc.Set("http_port", report::Json::Int((*scheduler)->http_port()));
    const std::string tmp = port_file + ".tmp";
    util::Status st = report::WriteJsonFile(tmp, doc);
    if (st.ok() && std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      st = util::Status::Internal("rename " + tmp + " failed");
    }
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  const util::Status st = (*scheduler)->Run();
  if (!st.ok()) {
    std::fprintf(stderr, "scheduler failed: %s\n", st.ToString().c_str());
    return 1;
  }

  if (!telemetry_path.empty()) {
    const util::Status ts = report::WriteTelemetrySnapshotFile(
        telemetry_path, util::telemetry::Capture());
    if (!ts.ok()) {
      std::fprintf(stderr, "%s\n", ts.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
