// Campaign runtime tests: CRC/hash primitives, shard planning, the
// screening record codec, store scan/torn-tail recovery, the payload
// registry, and the headline durability invariant for every payload —
// kill (in-process truncation or a real SIGKILL'd child process)
// anywhere, resume, merge, and the recombined records are bit-identical
// to an uninterrupted in-memory evaluation at any thread count.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "campaign/characterize_campaign.h"
#include "campaign/codec.h"
#include "campaign/merge.h"
#include "campaign/pattern_campaign.h"
#include "campaign/payload.h"
#include "campaign/planner.h"
#include "campaign/runner.h"
#include "campaign/store.h"
#include "core/screening.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/hash.h"

namespace cmldft {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "cmldft_campaign_" + name;
}

core::ScreeningOptions QuickOptions(int threads = 1) {
  auto opt = campaign::ScreeningPreset("quick");
  EXPECT_TRUE(opt.ok());
  opt->threads = threads;
  return *opt;
}

/// Bit-exact encoding of an entire report (reference + every outcome in
/// order) — two reports are equivalent iff these strings are equal.
std::string EncodeWholeReport(const core::ScreeningReport& r) {
  std::string s = campaign::EncodeReferenceRecord(r);
  for (size_t i = 0; i < r.outcomes.size(); ++i) {
    s += campaign::EncodeOutcomeRecord(i, r.outcomes[i]);
  }
  return s;
}

/// The monolithic in-memory run every campaign result must reproduce.
const core::ScreeningReport& DirectQuickReport() {
  static const core::ScreeningReport report = [] {
    auto r = core::ScreenBufferChain(QuickOptions());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }();
  return report;
}

// ------------------------------------------------------------ primitives --

TEST(Crc32, KnownVectors) {
  const char check[] = "123456789";
  EXPECT_EQ(util::Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(util::Crc32("", 0), 0x00000000u);
  // Incremental == one-shot.
  uint32_t st = util::Crc32Init();
  st = util::Crc32Update(st, check, 4);
  st = util::Crc32Update(st, check + 4, 5);
  EXPECT_EQ(util::Crc32Final(st), 0xCBF43926u);
}

TEST(ContentHasher, StableAndSensitive) {
  EXPECT_EQ(util::ContentHasher().Digest(), 0xCBF29CE484222325ull);
  const uint64_t a = util::ContentHasher().Str("ab").U64(1).Digest();
  EXPECT_EQ(util::ContentHasher().Str("ab").U64(1).Digest(), a);
  EXPECT_NE(util::ContentHasher().Str("ab").U64(2).Digest(), a);
  // Length prefixing: ("ab","c") and ("a","bc") must differ.
  EXPECT_NE(util::ContentHasher().Str("ab").Str("c").Digest(),
            util::ContentHasher().Str("a").Str("bc").Digest());
}

TEST(ShardPlan, ParseAndErrors) {
  auto p = campaign::ParseShardSpec("2/5");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->index, 2u);
  EXPECT_EQ(p->count, 5u);
  EXPECT_EQ(p->ToString(), "2/5");
  for (const char* bad : {"", "3", "a/b", "1/", "/4", "5/5", "7/4", "0/0",
                          "-1/4", "1/4x"}) {
    EXPECT_FALSE(campaign::ParseShardSpec(bad).ok()) << bad;
  }
}

TEST(ShardPlan, PartitionsUniverseExactly) {
  const uint64_t total = 23;
  for (uint32_t count : {1u, 2u, 3u, 7u}) {
    uint64_t covered = 0;
    for (uint64_t id = 0; id < total; ++id) {
      int owners = 0;
      for (uint32_t i = 0; i < count; ++i) {
        if (campaign::ShardPlan{i, count}.Contains(id)) ++owners;
      }
      EXPECT_EQ(owners, 1) << "id " << id << " count " << count;
    }
    for (uint32_t i = 0; i < count; ++i) {
      covered += campaign::ShardPlan{i, count}.UnitsOf(total);
    }
    EXPECT_EQ(covered, total) << "count " << count;
  }
}

// ----------------------------------------------------------------- codec --

core::DefectOutcome SampleOutcome() {
  core::DefectOutcome o;
  o.defect.type = defects::DefectType::kBridge;
  o.defect.device = "x1.q2";
  o.defect.terminal_a = 1;
  o.defect.terminal_b = 2;
  o.defect.node_a = "x1.op";
  o.defect.node_b = "x2.opb";
  o.defect.resistance = 123.5;
  o.converged = true;
  o.logic_fail = true;
  o.iddq_fail = true;
  o.max_gate_amplitude = 0.31;
  o.min_detector_vout = -1.25;
  o.detector_vouts = {0.0, -0.5, 3.25};
  o.supply_current = 1.5e-3;
  return o;
}

TEST(Codec, OutcomeRoundTripsBitIdentically) {
  const core::DefectOutcome o = SampleOutcome();
  const std::string payload = campaign::EncodeOutcomeRecord(42, o);
  auto rec = campaign::DecodeOutcomeRecord(payload);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->unit_id, 42u);
  EXPECT_EQ(campaign::EncodeOutcomeRecord(42, rec->outcome), payload);
  EXPECT_EQ(rec->outcome.defect.Id(), o.defect.Id());
  EXPECT_EQ(rec->outcome.detector_vouts, o.detector_vouts);
}

TEST(Codec, FailedOutcomeKeepsSolverError) {
  core::DefectOutcome o;
  o.converged = false;
  o.error = "newton diverged at t=1.2e-9 (node \"x1.op\")";
  const std::string payload = campaign::EncodeOutcomeRecord(7, o);
  auto rec = campaign::DecodeOutcomeRecord(payload);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->outcome.error, o.error);
  EXPECT_FALSE(rec->outcome.converged);
}

TEST(Codec, ReferenceRoundTrip) {
  core::ScreeningReport r;
  r.nominal_swing = 0.41;
  r.reference_delay = 6.25e-11;
  r.reference_detector_vout = 3.2;
  r.reference_supply_current = 4.1e-3;
  r.reference_detector_vouts = {3.2, 3.19};
  const std::string payload = campaign::EncodeReferenceRecord(r);
  auto rec = campaign::DecodeReferenceRecord(payload);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(campaign::EncodeReferenceRecord(*rec), payload);
  // Each decoder takes its own record type only.
  EXPECT_FALSE(campaign::DecodeOutcomeRecord(payload).ok());
  EXPECT_FALSE(campaign::DecodeReferenceRecord(
                   campaign::EncodeOutcomeRecord(1, SampleOutcome()))
                   .ok());
}

TEST(Codec, RejectsTruncatedTrailingAndUnknown) {
  const std::string payload = campaign::EncodeOutcomeRecord(3, SampleOutcome());
  // Every strict prefix must be rejected, never mis-decoded.
  for (size_t n : {size_t{0}, size_t{1}, payload.size() / 2,
                   payload.size() - 1}) {
    EXPECT_FALSE(campaign::DecodeOutcomeRecord(payload.substr(0, n)).ok())
        << n;
  }
  EXPECT_FALSE(campaign::DecodeOutcomeRecord(payload + "x").ok());
  std::string unknown = payload;
  unknown[0] = 99;
  EXPECT_FALSE(campaign::DecodeOutcomeRecord(unknown).ok());
}

TEST(Codec, FingerprintSeesOptionsAndUniverseButNotThreads) {
  core::ScreeningOptions opt = QuickOptions();
  const auto universe = core::ScreeningUniverse(opt);
  ASSERT_FALSE(universe.empty());
  const uint64_t base = campaign::CampaignFingerprint(opt, universe);

  core::ScreeningOptions threads = opt;
  threads.threads = 7;
  EXPECT_EQ(campaign::CampaignFingerprint(threads, universe), base);

  core::ScreeningOptions tweaked = opt;
  tweaked.sim_time *= 2;
  EXPECT_NE(campaign::CampaignFingerprint(tweaked, universe), base);

  auto fewer = universe;
  fewer.pop_back();
  EXPECT_NE(campaign::CampaignFingerprint(opt, fewer), base);

  auto mutated = universe;
  mutated[0].resistance += 1.0;
  EXPECT_NE(campaign::CampaignFingerprint(opt, mutated), base);
}

TEST(Screening, UniverseIsStableAndMatchesDirectRun) {
  const auto a = core::ScreeningUniverse(QuickOptions());
  const auto b = core::ScreeningUniverse(QuickOptions());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Id(), b[i].Id()) << i;
  }
  EXPECT_EQ(static_cast<int>(a.size()), DirectQuickReport().total());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Id(), DirectQuickReport().outcomes[i].defect.Id()) << i;
  }
}

// ----------------------------------------------------------------- store --

campaign::StoreHeader TestHeader() {
  campaign::StoreHeader h;
  h.fingerprint = 0xDEADBEEFCAFEF00Dull;
  h.shard_index = 1;
  h.shard_count = 4;
  h.total_units = 99;
  return h;
}

std::vector<std::string> WriteTestStore(const std::string& path, int records) {
  auto w = campaign::StoreWriter::Create(path, TestHeader());
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  std::vector<std::string> payloads;
  for (int i = 0; i < records; ++i) {
    payloads.push_back(campaign::EncodeOutcomeRecord(i, SampleOutcome()));
    EXPECT_TRUE(w->AppendRecord(payloads.back()).ok());
  }
  EXPECT_TRUE(w->Close().ok());
  return payloads;
}

TEST(Store, WriteScanRoundTrip) {
  const std::string path = TempPath("roundtrip.campaign");
  const auto payloads = WriteTestStore(path, 5);
  auto scan = campaign::ScanStore(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->header.fingerprint, TestHeader().fingerprint);
  EXPECT_EQ(scan->header.shard_index, 1u);
  EXPECT_EQ(scan->header.shard_count, 4u);
  EXPECT_EQ(scan->header.total_units, 99u);
  ASSERT_EQ(scan->records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(scan->records[i], payloads[i]) << i;
  }
  auto size = util::FileSizeOf(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(scan->valid_bytes, *size);
  std::remove(path.c_str());
}

TEST(Store, TornTailAtEveryTruncationPoint) {
  const std::string path = TempPath("torn.campaign");
  WriteTestStore(path, 3);
  auto full = campaign::ScanStore(path);
  ASSERT_TRUE(full.ok());
  const uint64_t full_size = full->valid_bytes;

  // Truncating anywhere inside the record region must yield the longest
  // valid record prefix and flag (only) a mid-record cut as torn.
  for (uint64_t cut = campaign::kStoreHeaderBytes; cut < full_size; ++cut) {
    WriteTestStore(path, 3);
    ASSERT_TRUE(util::TruncateFile(path, cut).ok());
    auto scan = campaign::ScanStore(path);
    ASSERT_TRUE(scan.ok()) << "cut " << cut << ": "
                           << scan.status().ToString();
    EXPECT_LE(scan->valid_bytes, cut);
    EXPECT_EQ(scan->torn_tail, scan->valid_bytes != cut) << "cut " << cut;
    for (size_t i = 0; i < scan->records.size(); ++i) {
      EXPECT_EQ(scan->records[i], full->records[i]);
    }
    if (scan->torn_tail) {
      ASSERT_TRUE(campaign::RepairStore(path, *scan).ok());
      auto rescan = campaign::ScanStore(path);
      ASSERT_TRUE(rescan.ok());
      EXPECT_FALSE(rescan->torn_tail);
      EXPECT_EQ(rescan->records.size(), scan->records.size());
    }
  }
  std::remove(path.c_str());
}

TEST(Store, CorruptRecordCrcStopsTheScan) {
  const std::string path = TempPath("crc.campaign");
  const auto payloads = WriteTestStore(path, 3);
  // Flip one payload byte of the second record (header + rec0 + frame + 1).
  const uint64_t off = campaign::kStoreHeaderBytes + 8 + payloads[0].size() +
                       8 + payloads[1].size() / 2;
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(off));
  const char flipped = static_cast<char>(f.get() ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(off));
  f.put(flipped);
  f.close();
  auto scan = campaign::ScanStore(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->records.size(), 1u);  // only the first record survives
  std::remove(path.c_str());
}

TEST(Store, HeaderCorruptionIsAHardError) {
  const std::string path = TempPath("header.campaign");

  // Too short to hold a header.
  { std::ofstream(path, std::ios::binary) << "CMLCAMP1"; }
  EXPECT_FALSE(campaign::ScanStore(path).ok());

  // Wrong magic.
  WriteTestStore(path, 1);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');
  }
  EXPECT_FALSE(campaign::ScanStore(path).ok());

  // Valid magic but corrupted header body (CRC mismatch).
  WriteTestStore(path, 1);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put('\x7E');
  }
  EXPECT_FALSE(campaign::ScanStore(path).ok());

  EXPECT_FALSE(campaign::ScanStore(TempPath("nonexistent.campaign")).ok());
  std::remove(path.c_str());
}

// ------------------------------------------------------------- registry --

TEST(PayloadRegistry, PresetsAndRecordTypes) {
  const std::pair<const char*, const char*> presets[] = {
      {"coverage_comparison", "screening"}, {"quick", "screening"},
      {"pattern_coverage", "pattern"},      {"pattern_quick", "pattern"},
      {"characterization", "characterization"},
      {"characterization_quick", "characterization"}};
  for (const auto& [preset, name] : presets) {
    auto plan = campaign::PlanForPreset(preset);
    ASSERT_TRUE(plan.ok()) << preset << ": " << plan.status().ToString();
    const campaign::Payload& p = (*plan)->payload();
    EXPECT_EQ(p.name, name) << preset;
    EXPECT_GT((*plan)->total_units(), 0u) << preset;
    EXPECT_EQ(campaign::FindPayload(p.singleton_type), &p);
    EXPECT_EQ(campaign::FindPayload(p.unit_type), &p);
  }
  EXPECT_EQ(campaign::FindPayload(static_cast<campaign::RecordType>(99)),
            nullptr);

  // Exact names only; an unknown one lists all six presets.
  for (const char* bad : {"no_such_preset", "pattern_", "characterization_x",
                          "Quick"}) {
    auto plan = campaign::PlanForPreset(bad);
    ASSERT_FALSE(plan.ok()) << bad;
    for (const char* preset :
         {"coverage_comparison", "quick", "pattern_coverage", "pattern_quick",
          "characterization", "characterization_quick"}) {
      EXPECT_NE(plan.status().message().find(preset), std::string::npos)
          << bad << " / " << preset;
    }
  }
}

// ------------------------------------------- durability, every payload --
//
// One suite over the quick preset of every payload. Each case runs real
// shards through the one run loop and merge and compares the merged
// records with a direct in-memory evaluation of the whole universe.

using PlanPtr = std::unique_ptr<const campaign::PayloadPlan>;

struct PayloadCase {
  const char* preset;
  /// A quick preset of another payload (cheap to run).
  const char* foreign_preset;
  /// This preset with one configuration knob changed.
  PlanPtr (*perturbed)();
  /// The unit record with a coordinate its id does not imply (payloads
  /// whose unit records carry coordinates).
  std::string (*misplace)(const std::string& unit_record) = nullptr;
};

PlanPtr PerturbedScreening() {
  core::ScreeningOptions opt = QuickOptions();
  opt.sim_time *= 2;
  return std::move(campaign::MakeScreeningPlan(opt)).value();
}

PlanPtr PerturbedPattern() {
  auto sweep = campaign::PatternSweepPreset("pattern_quick");
  sweep->seed ^= 1;
  return std::move(campaign::MakePatternPlan(*sweep)).value();
}

PlanPtr PerturbedCharacterization() {
  auto config = campaign::CharacterizationPreset("characterization_quick");
  config->seed ^= 1;
  return std::move(campaign::MakeCharacterizationPlan(*config)).value();
}

std::string MisplacePatternUnit(const std::string& record) {
  auto rec = campaign::DecodePatternUnitRecord(record);
  rec->unit.benchmark = 2000000000u;
  return campaign::EncodePatternUnitRecord(rec->unit_id, rec->unit);
}

std::string MisplaceCharacterizationUnit(const std::string& record) {
  auto rec = campaign::DecodeCharacterizationUnitRecord(record);
  rec->unit.corner = 2000000000u;
  return campaign::EncodeCharacterizationUnitRecord(rec->unit_id, rec->unit);
}

std::string CaseName(const testing::TestParamInfo<PayloadCase>& info) {
  return info.param.preset;
}

/// Rewrites the records of store `from`, each as changed by
/// `edit_record`, into a fresh store `to` under `from`'s header as changed
/// by `edit`.
void CopyStore(const std::string& from, const std::string& to,
               const std::function<void(campaign::StoreHeader&)>& edit,
               const std::function<std::string(const std::string&)>&
                   edit_record = [](const std::string& r) { return r; }) {
  auto scan = campaign::ScanStore(from);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  campaign::StoreHeader header = scan->header;
  edit(header);
  auto w = campaign::StoreWriter::Create(to, header);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  for (const std::string& record : scan->records) {
    ASSERT_TRUE(w->AppendRecord(edit_record(record)).ok());
  }
  ASSERT_TRUE(w->Close().ok());
}

class CampaignDurability : public testing::TestWithParam<PayloadCase> {
 protected:
  void SetUp() override {
    auto plan = campaign::PlanForPreset(GetParam().preset);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(*plan);
  }

  std::string Path(const std::string& name) const {
    const std::string path =
        TempPath(std::string(GetParam().preset) + "_" + name + ".campaign");
    std::remove(path.c_str());
    return path;
  }

  util::StatusOr<campaign::CampaignRunStats> Run(const std::string& path,
                                                 campaign::ShardPlan shard = {},
                                                 int threads = 1) const {
    campaign::RunOptions opt;
    opt.shard = shard;
    opt.store_path = path;
    return campaign::RunCampaign(*plan_, threads, opt);
  }

  /// The singleton record, then every unit in id order, evaluated serially
  /// in memory — the monolithic run every campaign must reproduce.
  const std::vector<std::string>& Direct() const {
    static std::map<std::string, std::vector<std::string>> cache;
    std::vector<std::string>& records = cache[GetParam().preset];
    if (records.empty()) {
      std::vector<uint64_t> ids(plan_->total_units());
      for (uint64_t id = 0; id < ids.size(); ++id) ids[id] = id;
      auto direct = campaign::EvaluateUnits(*plan_, ids, /*threads=*/1);
      EXPECT_TRUE(direct.ok()) << direct.status().ToString();
      if (direct.ok()) records = std::move(*direct);
    }
    return records;
  }

  void ExpectMergesToDirect(const std::vector<std::string>& paths,
                            const std::string& context) const {
    auto merged = campaign::MergeStores(paths);
    ASSERT_TRUE(merged.ok()) << context << ": " << merged.status().ToString();
    EXPECT_EQ(merged->payload, &plan_->payload());
    EXPECT_EQ(merged->fingerprint, plan_->fingerprint());
    EXPECT_EQ(merged->shard_count, paths.size());
    const std::vector<std::string>& direct = Direct();
    ASSERT_EQ(merged->units.size() + 1, direct.size()) << context;
    EXPECT_EQ(merged->singleton, direct[0]) << context;
    for (size_t i = 0; i < merged->units.size(); ++i) {
      EXPECT_EQ(merged->units[i], direct[i + 1]) << context << ", unit " << i;
    }
  }

  PlanPtr plan_;
};

TEST_P(CampaignDurability, SingleShardMatchesDirectRun) {
  const std::string path = Path("single");
  auto stats = Run(path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->total_units, plan_->total_units());
  EXPECT_EQ(stats->executed, stats->total_units);
  EXPECT_FALSE(stats->resumed);
  ExpectMergesToDirect({path}, "single shard");
  std::remove(path.c_str());
}

TEST_P(CampaignDurability, ThreeShardsMergeBitIdenticallyAtOddThreadCounts) {
  // Odd/mismatched thread counts must not leak into the merged result:
  // records land in completion order, but merge keys on unit ids.
  const std::vector<std::string> paths = {Path("m0"), Path("m1"), Path("m2")};
  for (int threads : {1, 3, 7}) {
    for (uint32_t i = 0; i < 3; ++i) {
      std::remove(paths[i].c_str());
      auto stats = Run(paths[i], {i, 3}, threads);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->executed, stats->shard_units);
    }
    // Merge order must not matter.
    ExpectMergesToDirect({paths[2], paths[0], paths[1]},
                         "threads=" + std::to_string(threads));
  }
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST_P(CampaignDurability, TruncateResumeLoopStaysBitIdentical) {
  const std::string pristine = Path("pristine");
  ASSERT_TRUE(Run(pristine).ok());
  auto bytes = util::ReadFileBytes(pristine);
  ASSERT_TRUE(bytes.ok());

  // Cut the store at seeded offsets (mid-record or on a boundary); resume
  // must complete it and merge must reproduce the direct run every time.
  const std::string path = Path("resume");
  std::mt19937 rng(20260806);  // seeded: failures reproduce exactly
  std::uniform_int_distribution<uint64_t> cut(campaign::kStoreHeaderBytes,
                                              bytes->size() - 1);
  for (int iter = 0; iter < 4; ++iter) {
    const uint64_t at = cut(rng);
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(bytes->data(), static_cast<std::streamoff>(at));
    }
    auto stats = Run(path);
    ASSERT_TRUE(stats.ok()) << "cut " << at << ": "
                            << stats.status().ToString();
    EXPECT_TRUE(stats->resumed);
    EXPECT_EQ(stats->resumed_skips + stats->executed, stats->shard_units);
    ExpectMergesToDirect({path}, "cut " + std::to_string(at));
  }
  std::remove(path.c_str());
  std::remove(pristine.c_str());
}

TEST_P(CampaignDurability, ResumeOfCompleteShardExecutesNothing) {
  const std::string path = Path("complete");
  ASSERT_TRUE(Run(path).ok());
  auto size = util::FileSizeOf(path);
  ASSERT_TRUE(size.ok());
  auto again = Run(path);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->resumed);
  EXPECT_EQ(again->executed, 0u);
  EXPECT_EQ(again->resumed_skips, again->shard_units);
  // The re-derived singleton matched the stored one: nothing appended.
  EXPECT_EQ(util::FileSizeOf(path).value(), *size);
  std::remove(path.c_str());
}

TEST_P(CampaignDurability, RefusesForeignAndMismatchedStores) {
  const std::string path = Path("foreign");
  ASSERT_TRUE(Run(path).ok());

  // Same store, different configuration: fingerprint mismatch.
  campaign::RunOptions opt;
  opt.store_path = path;
  auto r = campaign::RunCampaign(*GetParam().perturbed(), 1, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("fingerprint"), std::string::npos)
      << r.status().ToString();

  // Same configuration, different shard plan.
  r = Run(path, {0, 2});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("shard"), std::string::npos)
      << r.status().ToString();

  // A store of another payload refuses the resume too.
  const std::string other = Path("other_payload");
  auto other_plan = campaign::PlanForPreset(GetParam().foreign_preset);
  ASSERT_TRUE(other_plan.ok());
  campaign::RunOptions other_opt;
  other_opt.store_path = other;
  ASSERT_TRUE(campaign::RunCampaign(**other_plan, 1, other_opt).ok());
  opt.store_path = other;
  r = campaign::RunCampaign(*plan_, 1, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("fingerprint"), std::string::npos);

  // Merge: a store of another campaign (header differs) ...
  const std::string mismatched = Path("mismatched");
  CopyStore(path, mismatched,
            [](campaign::StoreHeader& h) { h.fingerprint ^= 1; });
  auto merged = campaign::MergeStores({path, mismatched});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("does not belong"),
            std::string::npos)
      << merged.status().ToString();
  merged = campaign::MergeStores({path, other});
  ASSERT_FALSE(merged.ok());

  // ... and records of another payload under this campaign's header.
  const std::string mixed = Path("mixed");
  auto header = campaign::ScanStore(path);
  ASSERT_TRUE(header.ok());
  CopyStore(other, mixed,
            [&](campaign::StoreHeader& h) { h = header->header; });
  merged = campaign::MergeStores({path, mixed});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(merged.status().message().find(
                "store holds " + std::string((*other_plan)->payload().name) +
                " records, not " + std::string(plan_->payload().name) +
                " records"),
            std::string::npos)
      << merged.status().ToString();
  for (const auto& p : {path, other, mismatched, mixed}) std::remove(p.c_str());
}

TEST_P(CampaignDurability, MergeRefusesIncompleteAndDuplicateStores) {
  const std::string s0 = Path("half0");
  const std::string s1 = Path("half1");
  ASSERT_TRUE(Run(s0, {0, 2}).ok());
  ASSERT_TRUE(Run(s1, {1, 2}).ok());

  // Only shard 0: half the universe is missing.
  auto merged = campaign::MergeStores({s0});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("incomplete"), std::string::npos);
  EXPECT_NE(merged.status().message().find("first missing id 1"),
            std::string::npos)
      << merged.status().ToString();
  // Shard 0 twice: duplicate units.
  merged = campaign::MergeStores({s0, s0});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("already provided"),
            std::string::npos);
  ExpectMergesToDirect({s0, s1}, "both shards");
  merged = campaign::MergeStores({s0, s1, s1});
  ASSERT_FALSE(merged.ok());

  // A torn (interrupted) shard makes the merge fail; it can never be
  // folded in as "covered" ...
  auto size = util::FileSizeOf(s1);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(util::TruncateFile(s1, *size - 3).ok());
  merged = campaign::MergeStores({s0, s1});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("torn"), std::string::npos);
  // ... and cleanly repaired but still incomplete is equally fatal.
  auto scan = campaign::ScanStore(s1);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(campaign::RepairStore(s1, *scan).ok());
  merged = campaign::MergeStores({s0, s1});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("missing"), std::string::npos);
  std::remove(s0.c_str());
  std::remove(s1.c_str());
}

TEST_P(CampaignDurability, HeaderClaimingMoreUnitsIsAnIncompleteCampaign) {
  // A header's universe size is a claim, not an allocation size: a store
  // with valid CRCs whose header says 2^50 units merges as incomplete,
  // naming the first id no record covers.
  const std::string path = Path("claim");
  const std::string huge = Path("huge");
  ASSERT_TRUE(Run(path).ok());
  CopyStore(path, huge,
            [](campaign::StoreHeader& h) { h.total_units = uint64_t{1} << 50; });
  auto merged = campaign::MergeStores({huge});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(merged.status().message().find("incomplete"), std::string::npos);
  EXPECT_NE(merged.status().message().find(
                "first missing id " + std::to_string(plan_->total_units())),
            std::string::npos)
      << merged.status().ToString();
  // The run loop refuses to resume it as well.
  EXPECT_FALSE(Run(huge).ok());
  std::remove(path.c_str());
  std::remove(huge.c_str());
}

int RunChild(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Unit records that carry coordinates: the pattern benchmark and pattern
// count, the characterization corner and die.
class UnitCoordinates : public CampaignDurability {};

TEST_P(UnitCoordinates, MergeRefusesUnitWithMisplacedCoordinates) {
  // A unit record with valid CRCs whose coordinates are not the ones its
  // id implies is refused: the report assembly indexes the configuration
  // with them.
  const std::string path = Path("coords");
  const std::string tampered = Path("coords_tampered");
  ASSERT_TRUE(Run(path).ok());
  const campaign::Payload& payload = plan_->payload();
  uint64_t unit_id = 0;
  bool misplaced = false;
  CopyStore(
      path, tampered, [](campaign::StoreHeader&) {},
      [&](const std::string& record) {
        if (misplaced || static_cast<campaign::RecordType>(record[0]) !=
                             payload.unit_type) {
          return record;
        }
        misplaced = true;
        unit_id = payload.unit(record, "")->id;
        return GetParam().misplace(record);
      });
  auto merged = campaign::MergeStores({tampered});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(merged.status().message().find(tampered + ": unit " +
                                           std::to_string(unit_id)),
            std::string::npos)
      << merged.status().ToString();
#ifdef CAMPAIGN_MERGE_BIN
  // campaign_merge refuses (exit 1) instead of crashing.
  EXPECT_EQ(RunChild(std::string(CAMPAIGN_MERGE_BIN) + " --coverage-report " +
                     Path("coords_report") + " " + tampered),
            1);
#endif
  std::remove(path.c_str());
  std::remove(tampered.c_str());
}

#ifdef CAMPAIGN_RUN_BIN

TEST_P(CampaignDurability, SigkilledChildResumesBitIdentically) {
  const std::string path = Path("child");
  const std::string base = std::string(CAMPAIGN_RUN_BIN) + " --store " + path +
                           " --preset " + GetParam().preset + " --threads 2";

  // Final store size of an uninterrupted run bounds the injection points.
  ASSERT_EQ(RunChild(base), 0);
  auto size = util::FileSizeOf(path);
  ASSERT_TRUE(size.ok());

  std::mt19937 rng(424242);  // seeded: failures reproduce exactly
  std::uniform_int_distribution<uint64_t> cut(campaign::kStoreHeaderBytes + 1,
                                              *size - 1);
  for (int iter = 0; iter < 3; ++iter) {
    const uint64_t at = cut(rng);
    std::remove(path.c_str());
    // The child SIGKILLs itself mid-write at `at` bytes: shell reports 137.
    ASSERT_EQ(RunChild(base + " --abort-after-bytes " + std::to_string(at)),
              137)
        << "injection at " << at;
    auto partial = util::FileSizeOf(path);
    ASSERT_TRUE(partial.ok());
    EXPECT_EQ(*partial, at) << "torn write should stop at the kill point";
    ASSERT_EQ(RunChild(base + " --resume"), 0) << "resume after kill at " << at;
    ExpectMergesToDirect({path}, "kill at " + std::to_string(at));
  }
  std::remove(path.c_str());
}

#endif  // CAMPAIGN_RUN_BIN

const PayloadCase kScreeningCase{"quick", "pattern_quick",
                                 &PerturbedScreening};
const PayloadCase kPatternCase{"pattern_quick", "characterization_quick",
                               &PerturbedPattern, &MisplacePatternUnit};
const PayloadCase kCharacterizationCase{"characterization_quick",
                                        "pattern_quick",
                                        &PerturbedCharacterization,
                                        &MisplaceCharacterizationUnit};
INSTANTIATE_TEST_SUITE_P(EveryPayload, CampaignDurability,
                         testing::Values(kScreeningCase, kPatternCase,
                                         kCharacterizationCase),
                         CaseName);
INSTANTIATE_TEST_SUITE_P(PayloadsWithCoordinates, UnitCoordinates,
                         testing::Values(kPatternCase, kCharacterizationCase),
                         CaseName);

// ---------------------------------------------- screening-specific merge --

TEST(ScreeningMerge, TypedMergesRefuseOtherPayloads) {
  const std::string path = TempPath("typed_pattern.campaign");
  std::remove(path.c_str());
  auto plan = campaign::PlanForPreset("pattern_quick");
  ASSERT_TRUE(plan.ok());
  campaign::RunOptions opt;
  opt.store_path = path;
  ASSERT_TRUE(campaign::RunCampaign(**plan, 1, opt).ok());
  auto screening = campaign::MergeCampaignStores({path});
  ASSERT_FALSE(screening.ok());
  EXPECT_NE(screening.status().message().find(
                "store holds pattern records, not screening records"),
            std::string::npos)
      << screening.status().ToString();
  auto characterization = campaign::MergeCharacterizationStores({path});
  ASSERT_FALSE(characterization.ok());
  EXPECT_NE(characterization.status().message().find(
                "store holds pattern records, not characterization records"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ScreeningMerge, MergedReportMatchesDirectRun) {
  const std::string path = TempPath("typed_screening.campaign");
  std::remove(path.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.store_path = path;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  auto merged = campaign::MergeCampaignStores({path});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(EncodeWholeReport(merged->report),
            EncodeWholeReport(DirectQuickReport()));
  std::remove(path.c_str());
}

TEST(ScreeningMerge, DivergentReferenceRefuses) {
  const std::string a = TempPath("refa.campaign");
  const std::string b = TempPath("refb.campaign");
  std::remove(a.c_str());
  std::remove(b.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.shard = {0, 2};
  opt.store_path = a;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  opt.shard = {1, 2};
  opt.store_path = b;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());

  // Rebuild store b with a perturbed reference record: as if the shard ran
  // on a different engine build.
  auto scan = campaign::ScanStore(b);
  ASSERT_TRUE(scan.ok());
  auto wr = campaign::StoreWriter::Create(b, scan->header);
  ASSERT_TRUE(wr.ok());
  for (const std::string& payload : scan->records) {
    auto reference = campaign::DecodeReferenceRecord(payload);
    if (reference.ok()) {
      reference->nominal_swing += 1e-9;
      ASSERT_TRUE(
          wr->AppendRecord(campaign::EncodeReferenceRecord(*reference)).ok());
    } else {
      ASSERT_TRUE(wr->AppendRecord(payload).ok());
    }
  }
  ASSERT_TRUE(wr->Close().ok());

  auto merged = campaign::MergeCampaignStores({a, b});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().ToString().find("reference"), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

}  // namespace
}  // namespace cmldft
