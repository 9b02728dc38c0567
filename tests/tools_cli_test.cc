// Error-path contract for the command-line tools: bad argv, missing
// files, and unreadable inputs (e.g. a directory where a JSON file is
// expected) must exit with a clear diagnostic and the documented status
// code — never a raw abort, an unchecked StatusOr, or a baffling parse
// error from an empty ifstream read. Binaries are located via compile
// definitions so the test tracks the build tree.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

namespace {

struct ToolResult {
  int exit_code = -1;
  std::string stderr_text;
};

ToolResult RunTool(const std::string& cmd) {
  const std::string err_path = testing::TempDir() + "cmldft_tool_stderr.txt";
  const int status =
      std::system((cmd + " >/dev/null 2>" + err_path).c_str());
  ToolResult r;
  if (status != -1 && WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  std::ifstream f(err_path);
  r.stderr_text.assign(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
  std::remove(err_path.c_str());
  return r;
}

std::string WriteTempJson(const std::string& name, const std::string& body) {
  const std::string path = testing::TempDir() + name;
  std::ofstream(path) << body;
  return path;
}

TEST(GoldenCheckCli, UsageAndMissingInputs) {
  const std::string bin = GOLDEN_CHECK_BIN;
  EXPECT_EQ(RunTool(bin).exit_code, 2);
  EXPECT_EQ(RunTool(bin + " one.json").exit_code, 2);
  EXPECT_EQ(RunTool(bin + " a.json b.json c.json").exit_code, 2);

  auto r = RunTool(bin + " /nonexistent/a.json /nonexistent/b.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("/nonexistent/a.json"), std::string::npos);

  // Missing golden gets the regeneration hint.
  const std::string actual = WriteTempJson("gc_actual.json", "{}");
  r = RunTool(bin + " " + actual + " /nonexistent/golden.json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("golden"), std::string::npos);
  std::remove(actual.c_str());
}

TEST(GoldenCheckCli, DirectoryInputIsACleanError) {
  const std::string bin = GOLDEN_CHECK_BIN;
  auto r = RunTool(bin + " " + testing::TempDir() + " " + testing::TempDir());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("directory"), std::string::npos)
      << r.stderr_text;
}

TEST(GoldenCheckCli, MalformedJsonNamesTheFile) {
  const std::string bin = GOLDEN_CHECK_BIN;
  const std::string bad = WriteTempJson("gc_bad.json", "{ not json");
  auto r = RunTool(bin + " " + bad + " " + bad);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("gc_bad.json"), std::string::npos)
      << r.stderr_text;
  std::remove(bad.c_str());
}

TEST(TelemetrySummarizeCli, UsageAndBadInputs) {
  const std::string bin = TELEMETRY_SUMMARIZE_BIN;
  EXPECT_EQ(RunTool(bin).exit_code, 2);
  EXPECT_EQ(RunTool(bin + " /nonexistent/snap.json").exit_code, 2);

  auto r = RunTool(bin + " " + testing::TempDir());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("directory"), std::string::npos)
      << r.stderr_text;

  // Valid JSON that is not a telemetry snapshot: named, clean failure.
  const std::string notsnap = WriteTempJson("ts_notsnap.json", "{\"a\": 1}");
  r = RunTool(bin + " " + notsnap);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("ts_notsnap.json"), std::string::npos)
      << r.stderr_text;
  std::remove(notsnap.c_str());
}

TEST(CampaignRunCli, UsageErrors) {
  const std::string bin = CAMPAIGN_RUN_BIN;
  EXPECT_EQ(RunTool(bin).exit_code, 2);                       // no --store
  EXPECT_EQ(RunTool(bin + " --bogus").exit_code, 2);          // unknown flag
  EXPECT_EQ(RunTool(bin + " --store").exit_code, 2);          // missing value
  // A store in a directory that does not exist: a flag the tool accepted
  // would run into a store failure (exit 1), so exit 2 can only come from
  // the flag itself.
  const std::string store = " --store /nonexistent/cmldft/x.campaign";
  EXPECT_EQ(RunTool(bin + store + " --shard 5/2").exit_code, 2);
  EXPECT_EQ(RunTool(bin + store + " --preset nope").exit_code, 2);
  // Numeric flags take 1 to 9 decimal digits and name themselves when
  // they refuse a value.
  for (const char* flag :
       {"--threads", "--fsync-batch", "--abort-after-bytes"}) {
    for (const char* bad : {"abc", "-3", "4x", "1234567890", "''"}) {
      const auto r = RunTool(bin + store + " " + flag + " " + bad);
      EXPECT_EQ(r.exit_code, 2) << flag << " " << bad;
      EXPECT_NE(r.stderr_text.find(flag), std::string::npos)
          << flag << " " << bad << ": " << r.stderr_text;
    }
  }
  // The hierarchical solver is not a campaign option.
  for (const char* gone : {"--hier", "--hier-quantum 1e-9"}) {
    const auto r = RunTool(bin + store + " " + gone);
    EXPECT_EQ(r.exit_code, 2) << gone;
    EXPECT_NE(r.stderr_text.find("unknown argument"), std::string::npos)
        << gone << ": " << r.stderr_text;
  }
}

TEST(CampaignSchedulerCli, UsageErrors) {
  // A state dir under a directory that does not exist: a value the tool
  // accepted would run into the state-dir failure (exit 1) before any
  // listener binds, so exit 2 can only come from the flag itself.
  const std::string base = std::string(SCHEDULER_BIN) +
                           " --state-dir /nonexistent/cmldft/state --idle-exit";
  EXPECT_EQ(RunTool(base + " --port 65535 --http-port 0 --lease-seconds 0.5"
                           " --submit quick:-2:8 --retry-ms 0")
                .exit_code,
            1);
  const std::pair<const char*, const char*> bad_values[] = {
      {"--port", "70000"},         {"--port", "abc"},
      {"--http-port", "65536"},    {"--retry-ms", "abc"},
      {"--retry-ms", "-1"},        {"--chunk-units", "4x"},
      {"--fsync-batch", "-3"},     {"--abort-after-bytes", "1e3"},
      {"--lease-seconds", "abc"},  {"--lease-seconds", "nan"},
      {"--submit", "quick:x"},     {"--submit", "quick:1:-4"},
      {"--submit", "quick:1:2:3"}, {"--submit", "quick:"}};
  for (const auto& [flag, bad] : bad_values) {
    const auto r = RunTool(base + " " + flag + " " + bad);
    EXPECT_EQ(r.exit_code, 2) << flag << " " << bad;
    EXPECT_NE(r.stderr_text.find(flag), std::string::npos)
        << flag << " " << bad << ": " << r.stderr_text;
  }
}

TEST(CampaignWorkerCli, UsageErrors) {
  // An unreadable port file and a 1 ms give-up budget: a value the tool
  // accepted would end in "scheduler unreachable" (exit 3) without any
  // dial, so exit 2 can only come from the flag itself.
  const std::string bin = WORKER_BIN;
  const std::string base =
      bin + " --port-file /nonexistent/cmldft/ports.json --give-up-ms 1";
  EXPECT_EQ(RunTool(base + " --threads 2 --poll-ms 1").exit_code, 3);
  const std::pair<const char*, const char*> bad_values[] = {
      {"--threads", "abc"},      {"--threads", "-2"},
      {"--poll-ms", "5x"},       {"--give-up-ms", "1e3"},
      {"--abort-on-grant", "''"}};
  for (const auto& [flag, bad] : bad_values) {
    const auto r = RunTool(base + " " + flag + " " + bad);
    EXPECT_EQ(r.exit_code, 2) << flag << " " << bad;
    EXPECT_NE(r.stderr_text.find(flag), std::string::npos)
        << flag << " " << bad << ": " << r.stderr_text;
  }
  // --connect's port is read before the one-of check, so these never
  // reach a dial either; the refusal quotes the bad value.
  for (const char* bad : {"127.0.0.1:70000", "127.0.0.1:0", "127.0.0.1:x",
                          "127.0.0.1"}) {
    const auto r = RunTool(base + " --connect " + bad);
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_NE(r.stderr_text.find(std::string("'") + bad + "'"),
              std::string::npos)
        << bad << ": " << r.stderr_text;
  }
}

TEST(CampaignWorkerCli, OutOfRangePortFileIsNotPublished) {
  // A worker_port outside 1..65535 is never cast to a port: the worker
  // names the file, keeps waiting for a real one, and gives up (exit 3).
  const std::string ports =
      WriteTempJson("bad_ports.json", "{\"worker_port\": 70000}");
  const auto r = RunTool(std::string(WORKER_BIN) + " --port-file " + ports +
                         " --give-up-ms 200");
  EXPECT_EQ(r.exit_code, 3) << r.stderr_text;
  EXPECT_NE(r.stderr_text.find(ports + ": worker_port is not an integer "
                                       "from 1 to 65535"),
            std::string::npos)
      << r.stderr_text;
  std::remove(ports.c_str());
}

TEST(CampaignRunCli, ExistingStoreNeedsResumeOrOverwrite) {
  const std::string bin = CAMPAIGN_RUN_BIN;
  const std::string store =
      WriteTempJson("existing.campaign", "placeholder bytes");
  auto r = RunTool(bin + " --store " + store);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("--resume"), std::string::npos)
      << r.stderr_text;
  EXPECT_NE(r.stderr_text.find("--overwrite"), std::string::npos);
  std::remove(store.c_str());
}

TEST(CampaignMergeCli, UsageAndMergeFailures) {
  const std::string bin = CAMPAIGN_MERGE_BIN;
  EXPECT_EQ(RunTool(bin).exit_code, 2);              // no stores
  EXPECT_EQ(RunTool(bin + " --bogus x").exit_code, 2);
  EXPECT_EQ(RunTool(bin + " --manifest").exit_code, 2);
  // The screening preset is read off the stores' fingerprint, not a flag.
  auto gone = RunTool(bin + " --preset quick /nonexistent/shard.campaign");
  EXPECT_EQ(gone.exit_code, 2);
  EXPECT_NE(gone.stderr_text.find("unknown argument"), std::string::npos)
      << gone.stderr_text;

  // A nonexistent store is a merge failure (1), with the path named.
  auto r = RunTool(bin + " /nonexistent/shard.campaign");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.stderr_text.find("shard.campaign"), std::string::npos)
      << r.stderr_text;

  // Garbage pretending to be a store: refused, not misparsed.
  const std::string junk = WriteTempJson("junk.campaign", "not a store");
  r = RunTool(bin + " " + junk);
  EXPECT_EQ(r.exit_code, 1);
  std::remove(junk.c_str());
}

}  // namespace
