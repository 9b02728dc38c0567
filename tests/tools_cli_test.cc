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
  EXPECT_EQ(
      RunTool(bin + " --store /tmp/x.campaign --shard 5/2").exit_code, 2);
  EXPECT_EQ(
      RunTool(bin + " --store /tmp/x.campaign --preset nope").exit_code, 2);
}

TEST(CampaignRunCli, HierFlagErrors) {
  const std::string bin = CAMPAIGN_RUN_BIN;
  // --hier-quantum must be finite and >= 0, and needs a value.
  auto r = RunTool(bin + " --store /tmp/x.campaign --hier-quantum -1e-6");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("--hier-quantum"), std::string::npos)
      << r.stderr_text;
  EXPECT_EQ(
      RunTool(bin + " --store /tmp/x.campaign --hier-quantum").exit_code, 2);
  // Non-finite quanta are refused: inf would key every block entry on 0
  // and share unrelated factorizations; nan would silently mean 0.
  for (const char* bad : {"nan", "inf", "-inf"}) {
    r = RunTool(bin + " --store /tmp/x.campaign --hier-quantum " + bad);
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_NE(r.stderr_text.find("finite"), std::string::npos)
        << bad << ": " << r.stderr_text;
  }
  // The hierarchical solver only applies to defect-screening presets;
  // pattern and characterization campaigns reject it loudly instead of
  // silently running flat.
  r = RunTool(bin +
              " --store /tmp/x.campaign --preset pattern_quick --hier");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find("screening presets"), std::string::npos)
      << r.stderr_text;
  EXPECT_EQ(RunTool(bin + " --store /tmp/x.campaign --preset "
                          "characterization_quick --hier")
                .exit_code,
            2);
  EXPECT_EQ(RunTool(bin + " --store /tmp/x.campaign --preset pattern_quick "
                          "--hier-quantum 1e-9")
                .exit_code,
            2);
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
