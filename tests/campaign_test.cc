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
#include <mutex>
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
#include "service/protocol.h"
#include "service/queue.h"
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

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

// The byte format pinned: one fixed instance of every record type, and a
// store header, against the bytes the format has always produced. A field
// moved, widened or dropped shows up here before it reaches a store.
TEST(Codec, EveryRecordKeepsItsBytes) {
  core::ScreeningReport reference;
  reference.nominal_swing = 0.41;
  reference.reference_delay = 6.25e-11;
  reference.reference_detector_vout = 3.2;
  reference.reference_supply_current = 4.1e-3;
  reference.reference_detector_vouts = {3.2, 3.19};
  EXPECT_EQ(Hex(campaign::EncodeReferenceRecord(reference)),
      "013d0ad7a3703dda3f95d626e80b2ed13d9a99999999990940091b9e5e29cb70"
      "3f020000009a9999999999094085eb51b81e850940");

  EXPECT_EQ(Hex(campaign::EncodeOutcomeRecord(42, SampleOutcome())),
      "022a00000000000000050500000078312e713201000000020000000500000078"
      "312e6f700600000078322e6f70620000000000e05e4001000000000001000100"
      "d7a3703d0ad7d33f000000000000f4bf03000000000000000000000000000000"
      "0000e0bf0000000000000a40fa7e6abc7493583f");

  testgen::PatternSweepConfig sweep;
  sweep.benchmarks = {"counter4", "shift4"};
  sweep.pattern_counts = {8, 32};
  sweep.seed = 0xACE1u;
  sweep.init_max_cycles = 5;
  EXPECT_EQ(Hex(campaign::EncodePatternSuiteRecord(sweep)),
      "030200000008000000636f756e74657234060000007368696674340200000008"
      "00000020000000e1ac000005000000");

  testgen::SweepUnitResult sweep_unit;
  sweep_unit.benchmark = 1;
  sweep_unit.patterns = 32;
  sweep_unit.toggled = 17;
  sweep_unit.togglable = 20;
  sweep_unit.transitions = 0x123456789ull;
  sweep_unit.init_cycles = 3;
  sweep_unit.residual_x = 2;
  sweep_unit.dffs = 4;
  EXPECT_EQ(Hex(campaign::EncodePatternUnitRecord(7, sweep_unit)),
      "0407000000000000000100000020000000110000001400000089674523010000"
      "00030000000200000004000000");

  core::CharacterizationConfig config;
  config.temperatures_c = {27.0};
  config.supplies = {3.3};
  config.vtests = {3.6, 3.7};
  config.trials = 1;
  config.seed = 0xC0A1u;
  config.variation.load_resistance_spread = 0.1;
  config.variation.wire_cap_spread = 0.25;
  config.variation.is_spread = 0.15;
  config.variation.beta_spread = 0.05;
  config.excursion_levels = {0.35, 0.57};
  config.response_window = 250e-9;
  config.response_load_cap = 1e-12;
  config.load_gates = 3;
  config.load_pipe = 4e3;
  config.probe_max = 1.0;
  config.probe_step = 0.02;
  config.hysteresis_step = 0.004;
  EXPECT_EQ(Hex(campaign::EncodeCharacterizationSuiteRecord(config)),
      "05010000000000000000003b40010000006666666666660a4002000000cdcccc"
      "cccccc0c409a99999999990d4001000000a1c000009a9999999999b93f000000"
      "000000d03f333333333333c33f9a9999999999a93f02000000666666666666d6"
      "3f3d0ad7a3703de23f8dedb5a0f7c6903e11ea2d819997713d03000000000000"
      "000040af40000000000000f03f7b14ae47e17a943ffca9f1d24d62703f");
  EXPECT_EQ(core::CharacterizationFingerprint(config), 747843136655320902ull);

  core::CharacterizationUnitResult unit;
  unit.corner = 2;
  unit.die = 1;
  unit.v1_static_excursion = 0.56;
  unit.v2_static_excursion = 0.34;
  unit.v2_clean_drop = 0.012;
  unit.v2_dynamic_threshold = -1.0;
  unit.trip_up = 3.31;
  unit.trip_down = 3.12;
  unit.vfb_pass = 3.4;
  unit.vfb_fail = 2.9;
  unit.hysteresis_found = true;
  unit.load_clean_flagged = false;
  unit.load_pipe_flagged = true;
  unit.load_clean_vout = 3.25;
  unit.load_pipe_vout = 2.75;
  unit.measure_failures = 0x11;
  EXPECT_EQ(Hex(campaign::EncodeCharacterizationUnitRecord(5, unit)),
      "0605000000000000000200000001000000ec51b81e85ebe13fc3f5285c8fc2d5"
      "3ffa7e6abc7493883f000000000000f0bf7b14ae47e17a0a40f6285c8fc2f508"
      "403333333333330b4033333333333307400100010000000000000a4000000000"
      "0000064011000000");

  EXPECT_EQ(campaign::CampaignFingerprint(core::ScreeningOptions(),
                                          {SampleOutcome().defect}),
            8842772049916166819ull);

  const std::string path = TempPath("pinned_header.campaign");
  campaign::StoreHeader header;
  header.fingerprint = 0xDEADBEEFCAFEF00Dull;
  header.shard_index = 1;
  header.shard_count = 4;
  header.total_units = 99;
  auto writer = campaign::StoreWriter::Create(path, header);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->AppendRecord("xyz").ok());
  ASSERT_TRUE(writer->Close().ok());
  auto bytes = util::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(Hex(*bytes),
      "434d4c43414d5031010000000df0fecaefbeadde010000000400000063000000"
      "000000000e3c5da80300000067ba8eeb78797a");
  std::remove(path.c_str());
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

/// Encodes everything a ScreenBufferChain sink receives, in arrival order.
class RecordingSink : public core::ScreeningSink {
 public:
  util::Status EmitReference(const core::ScreeningReport& reference) override {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(campaign::EncodeReferenceRecord(reference));
    return util::Status::Ok();
  }
  util::Status Emit(uint64_t id, const core::DefectOutcome& outcome) override {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(campaign::EncodeOutcomeRecord(id, outcome));
    return util::Status::Ok();
  }
  std::vector<std::string> records() {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> records_;
};

TEST(Screening, SinkAndIdsSeeTheDirectRunsOutcomes) {
  // The streaming form of ScreenBufferChain (e2ebench's screening probe
  // times its sink): the reference first, then each selected id's outcome,
  // bit-identical to the whole-universe run; the report holds the selected
  // outcomes in order. An id outside the universe is refused.
  const core::ScreeningReport& direct = DirectQuickReport();
  const std::vector<uint64_t> ids = {5, 3};
  RecordingSink sink;
  auto report = core::ScreenBufferChain(QuickOptions(), &ids, &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::vector<std::string> expected = {
      campaign::EncodeReferenceRecord(direct),
      campaign::EncodeOutcomeRecord(5, direct.outcomes[5]),
      campaign::EncodeOutcomeRecord(3, direct.outcomes[3])};
  EXPECT_EQ(sink.records(), expected);
  ASSERT_EQ(report->total(), 2);
  EXPECT_EQ(campaign::EncodeOutcomeRecord(5, report->outcomes[0]), expected[1]);
  EXPECT_EQ(campaign::EncodeOutcomeRecord(3, report->outcomes[1]), expected[2]);

  const std::vector<uint64_t> outside = {direct.outcomes.size()};
  auto refused = core::ScreenBufferChain(QuickOptions(), &outside);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("outside the enumerated universe"),
            std::string::npos)
      << refused.status().ToString();
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

// The store and the wire share one frame rule: a length of 1..bound. A
// zero-length frame is refused on the wire and ends a store's valid prefix.
TEST(Frame, ZeroLengthFrameIsRefusedOnTheWireAndInTheStore) {
  const std::string empty_frame(8, '\0');  // length 0, CRC-32 of nothing
  std::string buffer = empty_frame;
  std::string payload;
  EXPECT_FALSE(service::ExtractFrame(buffer, &payload).ok());

  const std::string path = TempPath("zero_frame.campaign");
  const auto payloads = WriteTestStore(path, 1);
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << empty_frame << service::Frame(payloads[0]);
  }
  auto scan = campaign::ScanStore(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes,
            campaign::kStoreHeaderBytes + 8 + payloads[0].size());
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
    // The codec names each record type's payload as the registry does.
    EXPECT_EQ(campaign::PayloadNameOf(p.singleton_type), p.name);
    EXPECT_EQ(campaign::PayloadNameOf(p.unit_type), p.name);
  }
  EXPECT_EQ(campaign::FindPayload(static_cast<campaign::RecordType>(99)),
            nullptr);
  EXPECT_TRUE(
      campaign::PayloadNameOf(static_cast<campaign::RecordType>(99)).empty());

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

/// Writes a fresh store at `path` holding `records` under `header`.
void WriteStore(const std::string& path, const campaign::StoreHeader& header,
                const std::vector<std::string>& records) {
  auto w = campaign::StoreWriter::Create(path, header);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  for (const std::string& record : records) {
    ASSERT_TRUE(w->AppendRecord(record).ok());
  }
  ASSERT_TRUE(w->Close().ok());
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
  edit(scan->header);
  for (std::string& record : scan->records) record = edit_record(record);
  WriteStore(to, scan->header, scan->records);
}

/// `record` with the lowest bit of its last byte flipped. Every record of
/// every payload ends in a measurement or configuration field, so the
/// result still decodes, with the same unit id and coordinates.
std::string FlipLastBit(std::string record) {
  record.back() ^= 1;
  return record;
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

TEST_P(CampaignDurability, ResumeRefusesADriftedSingleton) {
  // A finished store holding a singleton that differs from the one this
  // engine derives (here: one byte, valid CRC) is refused and left as it
  // was: in place of the true singleton, and as a second singleton before
  // or after it.
  const std::string path = Path("drift");
  const std::string drifted = Path("drifted");
  ASSERT_TRUE(Run(path).ok());
  auto scan = campaign::ScanStore(path);
  ASSERT_TRUE(scan.ok());
  const std::vector<std::string>& records = scan->records;
  ASSERT_EQ(static_cast<campaign::RecordType>(records.front()[0]),
            plan_->payload().singleton_type);
  const std::string stale = FlipLastBit(records.front());
  std::vector<std::string> replaced = records;
  replaced.front() = stale;
  std::vector<std::string> stale_first = records;
  stale_first.insert(stale_first.begin(), stale);
  std::vector<std::string> stale_last = records;
  stale_last.push_back(stale);
  const std::pair<const char*, std::vector<std::string>> variants[] = {
      {"replaced", replaced},
      {"stale first", stale_first},
      {"stale last", stale_last}};
  for (const auto& [name, variant] : variants) {
    WriteStore(drifted, scan->header, variant);
    const uint64_t size = util::FileSizeOf(drifted).value();
    auto r = Run(drifted);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status().code(), util::StatusCode::kFailedPrecondition);
    for (const std::string& named : {drifted, std::string("singleton")}) {
      EXPECT_NE(r.status().message().find(named), std::string::npos)
          << name << ": " << r.status().ToString();
    }
    EXPECT_EQ(util::FileSizeOf(drifted).value(), size);
  }
  std::remove(path.c_str());
  std::remove(drifted.c_str());
}

TEST_P(CampaignDurability, TwoRecordsForOneUnitAreRefusedEverywhere) {
  // A store holding two different records (valid CRCs) for one unit id is
  // refused by resume, by a scheduler restart and by merge alike, each
  // naming the store and the unit.
  const std::string path = Path("twice");
  ASSERT_TRUE(Run(path).ok());
  auto scan = campaign::ScanStore(path);
  ASSERT_TRUE(scan.ok());
  const std::string last = scan->records.back();
  auto unit = plan_->payload().unit(last, "");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  const std::string unit_name = "unit " + std::to_string(unit->id);
  scan->records.push_back(FlipLastBit(last));
  WriteStore(path, scan->header, scan->records);
  const uint64_t size = util::FileSizeOf(path).value();
  auto expect_refused = [&](const util::Status& st, const std::string& store,
                            const char* who) {
    ASSERT_FALSE(st.ok()) << who;
    EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition) << who;
    for (const std::string& named : {store, unit_name}) {
      EXPECT_NE(st.message().find(named), std::string::npos)
          << who << ": " << st.ToString();
    }
  };

  expect_refused(Run(path).status(), path, "resume");
  EXPECT_EQ(util::FileSizeOf(path).value(), size);
  expect_refused(campaign::MergeStores({path}).status(), path, "merge");

  // The scheduler's store of the same preset has this header (shard 0 of
  // 1): a restart over it must refuse it too.
  const std::string dir = TempPath(std::string(GetParam().preset) + "_state");
  std::system(("rm -rf " + dir).c_str());
  {
    auto queue = service::CampaignQueue::Open(dir, 8, 1);
    ASSERT_TRUE(queue.ok()) << queue.status().ToString();
    ASSERT_TRUE(queue->Submit(GetParam().preset, 0, 0).ok());
  }
  const std::string store = dir + "/campaign_1.campaign";
  WriteStore(store, scan->header, scan->records);
  expect_refused(service::CampaignQueue::Open(dir, 8, 1).status(), store,
                 "scheduler restart");
  std::system(("rm -rf " + dir).c_str());
  std::remove(path.c_str());
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

#ifdef CAMPAIGN_MERGE_BIN

TEST(ScreeningMerge, CoverageReportRefusesAConfigurationOfNoPreset) {
  // A screening reference carries no thresholds: campaign_merge takes them
  // from the preset whose fingerprint the store has, and refuses a store
  // of any other configuration rather than report it against the wrong
  // thresholds.
  const std::string path = TempPath("no_preset.campaign");
  const std::string out = TempPath("no_preset.json");
  const std::string err = TempPath("no_preset.stderr");
  std::remove(path.c_str());
  campaign::CampaignOptions opt;
  opt.screening = QuickOptions();
  opt.screening.iddq_fraction *= 2;
  opt.store_path = path;
  ASSERT_TRUE(campaign::RunScreeningCampaign(opt).ok());
  const std::string merge = std::string(CAMPAIGN_MERGE_BIN) + " ";
  const int status = std::system(
      (merge + "--coverage-report " + out + " " + path + " >/dev/null 2>" + err)
          .c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(
                    campaign::MakeScreeningPlan(opt.screening)
                        .value()
                        ->fingerprint()));
  auto message = util::ReadFileBytes(err);
  ASSERT_TRUE(message.ok());
  EXPECT_NE(message->find(fingerprint), std::string::npos) << *message;
  // The manifest needs no thresholds: the store itself merges.
  EXPECT_EQ(RunChild(merge + "--manifest " + out + " " + path), 0);
  for (const auto& p : {path, out, err}) std::remove(p.c_str());
}

#endif  // CAMPAIGN_MERGE_BIN

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
