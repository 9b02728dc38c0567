// Distributed campaign service tests (src/service): wire-protocol codec
// and framing, work-stealing lease-table policy, streaming-merge
// idempotency, durable-queue submit/recover — and, with the real
// binaries, the headline drills: a worker SIGKILL'd mid-lease whose chunk
// is re-issued without double-counting a single unit (the merged report
// stays byte-identical to a monolithic run), and the status API's live
// coverage converging to the final merged value.
#include <gtest/gtest.h>
#include <csignal>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "campaign/merge.h"
#include "campaign/pattern_campaign.h"
#include "campaign/store.h"
#include "report/json.h"
#include "service/lease.h"
#include "service/payload.h"
#include "service/protocol.h"
#include "service/queue.h"
#include "util/clock.h"
#include "util/file_io.h"
#include "util/net.h"

namespace cmldft {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "cmldft_service_" + name;
}

// ------------------------------------------------------ protocol codec --

TEST(ServiceProtocol, GrantRoundTripsEveryField) {
  service::Message msg;
  msg.type = service::MessageType::kGrant;
  msg.campaign_id = 7;
  msg.lease_id = 42;
  msg.preset = "pattern_quick";
  msg.fingerprint = 0xdeadbeefcafef00dULL;
  msg.lease_seconds = 12.5;
  msg.unit_ids = {0, 3, 17, 1u << 20};

  auto decoded = service::DecodeMessage(service::EncodeMessage(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, service::MessageType::kGrant);
  EXPECT_EQ(decoded->campaign_id, 7u);
  EXPECT_EQ(decoded->lease_id, 42u);
  EXPECT_EQ(decoded->preset, "pattern_quick");
  EXPECT_EQ(decoded->fingerprint, 0xdeadbeefcafef00dULL);
  EXPECT_DOUBLE_EQ(decoded->lease_seconds, 12.5);
  EXPECT_EQ(decoded->unit_ids, msg.unit_ids);
}

TEST(ServiceProtocol, RecordsAndAckRoundTrip) {
  service::Message batch;
  batch.type = service::MessageType::kRecords;
  batch.campaign_id = 3;
  batch.lease_id = 9;
  batch.records = {"alpha", std::string("\x00\x01\xff", 3), ""};
  auto decoded = service::DecodeMessage(service::EncodeMessage(batch));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->records, batch.records);

  service::Message ack;
  ack.type = service::MessageType::kAck;
  ack.campaign_id = 3;
  ack.accepted = false;
  ack.campaign_complete = true;
  ack.error = "nope";
  decoded = service::DecodeMessage(service::EncodeMessage(ack));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->accepted);
  EXPECT_TRUE(decoded->campaign_complete);
  EXPECT_EQ(decoded->error, "nope");
}

TEST(ServiceProtocol, RejectsTruncationTrailingGarbageAndUnknownType) {
  service::Message msg;
  msg.type = service::MessageType::kHello;
  msg.worker = "w1";
  const std::string payload = service::EncodeMessage(msg);

  for (size_t cut = 1; cut < payload.size(); ++cut) {
    EXPECT_FALSE(service::DecodeMessage(payload.substr(0, cut)).ok())
        << "truncation at " << cut << " must not decode";
  }
  EXPECT_FALSE(service::DecodeMessage(payload + "x").ok());
  std::string bad_type = payload;
  bad_type[0] = 99;
  EXPECT_FALSE(service::DecodeMessage(bad_type).ok());
}

TEST(ServiceProtocol, ExtractFrameIsIncrementalAndChecksCrc) {
  service::Message a;
  a.type = service::MessageType::kWorkRequest;
  service::Message b;
  b.type = service::MessageType::kWait;
  b.retry_ms = 250;
  const std::string stream = service::Frame(service::EncodeMessage(a)) +
                             service::Frame(service::EncodeMessage(b));

  // Feed the stream a byte at a time; exactly two frames must pop out.
  std::string buffer;
  std::vector<std::string> payloads;
  for (char ch : stream) {
    buffer.push_back(ch);
    std::string payload;
    auto got = service::ExtractFrame(buffer, &payload);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (*got) payloads.push_back(payload);
  }
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_TRUE(buffer.empty());
  auto second = service::DecodeMessage(payloads[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->retry_ms, 250u);

  // Flip one payload byte: the CRC must refuse the frame.
  std::string corrupt = service::Frame(service::EncodeMessage(a));
  corrupt.back() ^= 0x40;
  std::string payload;
  EXPECT_FALSE(service::ExtractFrame(corrupt, &payload).ok());

  // An absurd declared length is corruption, not a huge allocation.
  std::string oversized(8, '\0');
  oversized[3] = 0x7f;  // length ~2 GiB
  EXPECT_FALSE(service::ExtractFrame(oversized, &payload).ok());
}

// ------------------------------------------------------- lease table --

TEST(ServiceLease, GrantsPendingChunksInOrderThenSteals) {
  service::LeaseTable table(10, 4);  // chunks: {0-3}, {4-7}, {8-9}
  EXPECT_EQ(table.chunk_count(), 3u);

  auto g0 = table.Acquire("w1", /*now=*/0, /*lease_seconds=*/10);
  auto g1 = table.Acquire("w2", 1, 10);
  auto g2 = table.Acquire("w3", 2, 10);
  ASSERT_TRUE(g0 && g1 && g2);
  EXPECT_EQ(g0->unit_ids, (std::vector<uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(g2->unit_ids, (std::vector<uint64_t>{8, 9}));
  EXPECT_FALSE(g0->stolen);

  // Everything is leased: the next worker steals the nearest deadline
  // (w1's chunk, leased first), the one after that the next nearest.
  auto s0 = table.Acquire("w4", 3, 10);
  ASSERT_TRUE(s0);
  EXPECT_TRUE(s0->stolen);
  EXPECT_EQ(s0->chunk, g0->chunk);
  auto s1 = table.Acquire("w5", 3, 10);
  ASSERT_TRUE(s1);
  EXPECT_EQ(s1->chunk, g1->chunk);
  auto s2 = table.Acquire("w6", 3, 10);
  ASSERT_TRUE(s2);
  EXPECT_EQ(s2->chunk, g2->chunk);
  // Two active leases per chunk is the cap.
  EXPECT_FALSE(table.Acquire("w7", 3, 10).has_value());
}

TEST(ServiceLease, NeverStealsOwnChunkAndRespectsCap) {
  service::LeaseTable table(4, 4);  // one chunk
  ASSERT_TRUE(table.Acquire("w1", 0, 10).has_value());
  // w1 already holds the only chunk — no second lease to itself.
  EXPECT_FALSE(table.Acquire("w1", 1, 10).has_value());
  auto steal = table.Acquire("w2", 1, 10);
  ASSERT_TRUE(steal.has_value());
  EXPECT_TRUE(steal->stolen);
  EXPECT_FALSE(table.Acquire("w3", 2, 10).has_value());
}

TEST(ServiceLease, ExpiryReturnsChunkToPending) {
  service::LeaseTable table(4, 2);
  auto g = table.Acquire("w1", 0, 10);
  ASSERT_TRUE(g);
  EXPECT_EQ(table.StateOfChunk(g->chunk), service::ChunkState::kLeased);
  EXPECT_DOUBLE_EQ(table.NextDeadline(), 10.0);

  EXPECT_EQ(table.ExpireLeases(/*now=*/9.9), 0u);
  EXPECT_EQ(table.ExpireLeases(10.1), 1u);
  EXPECT_EQ(table.StateOfChunk(g->chunk), service::ChunkState::kPending);
  EXPECT_TRUE(table.ActiveLeases().empty());

  // The re-issued grant is the same chunk with the same unit ids.
  auto again = table.Acquire("w2", 11, 10);
  ASSERT_TRUE(again);
  EXPECT_EQ(again->chunk, g->chunk);
  EXPECT_EQ(again->unit_ids, g->unit_ids);
}

TEST(ServiceLease, MarkUnitDoneRetiresChunksAndFiltersGrants) {
  service::LeaseTable table(4, 4);
  table.MarkUnitDone(1);
  table.MarkUnitDone(1);  // idempotent
  EXPECT_EQ(table.units_done(), 1u);

  auto g = table.Acquire("w1", 0, 10);
  ASSERT_TRUE(g);
  EXPECT_EQ(g->unit_ids, (std::vector<uint64_t>{0, 2, 3}));

  table.MarkUnitDone(0);
  table.MarkUnitDone(2);
  table.MarkUnitDone(3);
  EXPECT_TRUE(table.AllDone());
  // Retiring the chunk dropped its active lease.
  EXPECT_TRUE(table.ActiveLeases().empty());
  EXPECT_EQ(table.StateOfChunk(0), service::ChunkState::kDone);
  EXPECT_FALSE(table.Acquire("w2", 1, 10).has_value());
}

// -------------------------------------------------- payload / merge --

TEST(ServicePayload, PlansResolveAllThreePayloads) {
  auto quick = service::PlanForPreset("quick");
  auto pattern = service::PlanForPreset("pattern_quick");
  auto character = service::PlanForPreset("characterization_quick");
  ASSERT_TRUE(quick.ok() && pattern.ok() && character.ok());
  EXPECT_EQ(quick->kind, service::PayloadKind::kScreening);
  EXPECT_EQ(pattern->kind, service::PayloadKind::kPattern);
  EXPECT_EQ(character->kind, service::PayloadKind::kCharacterization);
  EXPECT_EQ(quick->total_units, 62u);
  EXPECT_EQ(pattern->total_units, 4u);
  EXPECT_GT(character->total_units, 0u);
  // Screening's singleton (the reference) is simulated, not enumerated.
  EXPECT_TRUE(quick->suite_record.empty());
  EXPECT_FALSE(pattern->suite_record.empty());
  EXPECT_NE(quick->fingerprint, pattern->fingerprint);
  EXPECT_FALSE(service::PlanForPreset("no_such_preset").ok());
}

TEST(ServiceMerge, StreamingFoldIsIdempotentAndRefusesTampering) {
  auto plan = service::PlanForPreset("pattern_quick");
  ASSERT_TRUE(plan.ok());
  auto records = service::EvaluateChunk(*plan, {0, 1, 2, 3}, /*threads=*/2);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 5u);  // suite + 4 units

  campaign::StreamingMerge merge(plan->total_units);
  uint64_t new_units = 0;
  for (const std::string& record : *records) {
    auto fold = merge.Fold(record);
    ASSERT_TRUE(fold.ok()) << fold.status().ToString();
    if (fold->new_unit) ++new_units;
    EXPECT_FALSE(fold->duplicate);
  }
  EXPECT_EQ(new_units, 4u);
  EXPECT_TRUE(merge.complete());
  EXPECT_GT(merge.LiveCoverage(), 0.0);
  EXPECT_LE(merge.LiveCoverage(), 1.0);

  // Bit-identical re-delivery: accepted, flagged duplicate, not counted.
  for (const std::string& record : *records) {
    auto fold = merge.Fold(record);
    ASSERT_TRUE(fold.ok());
    EXPECT_TRUE(fold->duplicate);
    EXPECT_FALSE(fold->new_unit);
  }
  EXPECT_EQ(merge.units_done(), 4u);

  // A duplicate that is NOT bit-identical is cross-host drift: refused.
  std::string tampered = records->back();
  tampered.back() ^= 1;
  EXPECT_FALSE(merge.Fold(tampered).ok());

  // A foreign payload kind is refused outright.
  auto screening = service::PlanForPreset("quick");
  ASSERT_TRUE(screening.ok());
  auto other = service::EvaluateChunk(*screening, {0}, 1);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(merge.Fold(other->front()).ok());
}

// ------------------------------------------------------ durable queue --

TEST(ServiceQueue, SubmitRecoverAndPriorityOrder) {
  const std::string dir = TempPath("queue_dir");
  std::system(("rm -rf " + dir).c_str());

  {
    auto queue = service::CampaignQueue::Open(dir, /*default_chunk_units=*/8,
                                              /*fsync_batch=*/1);
    ASSERT_TRUE(queue.ok()) << queue.status().ToString();
    auto low = queue->Submit("pattern_quick", /*priority=*/0,
                             /*chunk_units=*/2);
    auto high = queue->Submit("quick", /*priority=*/5, /*chunk_units=*/0);
    ASSERT_TRUE(low.ok() && high.ok());
    EXPECT_EQ(*low, 1u);
    EXPECT_EQ(*high, 2u);

    // Higher priority first, FIFO within priority.
    auto ordered = queue->Ordered();
    ASSERT_EQ(ordered.size(), 2u);
    EXPECT_EQ(ordered[0]->spec().id, 2u);
    EXPECT_EQ(ordered[1]->spec().id, 1u);
    EXPECT_EQ(ordered[1]->spec().chunk_units, 2u);
    EXPECT_EQ(ordered[0]->spec().chunk_units, 8u);  // default applied
    EXPECT_FALSE(queue->AllComplete());
  }

  // An orphan store without its submission json is a crashed half-submit:
  // ignored on recovery.
  {
    std::ofstream orphan(dir + "/campaign_99.campaign", std::ios::binary);
    orphan << "not a real store";
  }

  auto reopened = service::CampaignQueue::Open(dir, 8, 1);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->size(), 2u);
  ASSERT_NE(reopened->Find(1), nullptr);
  EXPECT_EQ(reopened->Find(1)->spec().preset, "pattern_quick");
  EXPECT_EQ(reopened->Find(99), nullptr);

  // The next submission id never collides with a recovered campaign.
  auto next = reopened->Submit("pattern_quick", 0, 0);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3u);
  std::system(("rm -rf " + dir).c_str());
}

TEST(ServiceQueue, FoldedBatchesRecoverAfterReopen) {
  const std::string dir = TempPath("queue_fold_dir");
  std::system(("rm -rf " + dir).c_str());
  auto plan = service::PlanForPreset("pattern_quick");
  ASSERT_TRUE(plan.ok());
  auto records = service::EvaluateChunk(*plan, {0, 1}, 1);
  ASSERT_TRUE(records.ok());

  {
    auto queue = service::CampaignQueue::Open(dir, 2, 1);
    ASSERT_TRUE(queue.ok());
    ASSERT_TRUE(queue->Submit("pattern_quick", 0, 2).ok());
    service::Campaign* c = queue->Find(1);
    ASSERT_NE(c, nullptr);
    auto stats = c->FoldRecords(*records);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->new_units, 2u);
    EXPECT_EQ(stats->duplicates, 0u);

    // Idempotency under re-delivery (a stolen lease finishing twice):
    // every record dedups, the sender sees success.
    auto again = c->FoldRecords(*records);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->new_units, 0u);
    EXPECT_EQ(again->duplicates, records->size());
  }

  // Reopen: the folded units must come back from the durable store.
  auto queue = service::CampaignQueue::Open(dir, 2, 1);
  ASSERT_TRUE(queue.ok()) << queue.status().ToString();
  service::Campaign* c = queue->Find(1);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->recovered_units(), 2u);
  EXPECT_EQ(c->merge().units_done(), 2u);
  EXPECT_FALSE(c->complete());
  EXPECT_FALSE(c->leases().AllDone());
  std::system(("rm -rf " + dir).c_str());
}

// ----------------------------------------- child-process e2e drills --

#if defined(SCHEDULER_BIN) && defined(WORKER_BIN) && \
    defined(CAMPAIGN_RUN_BIN) && defined(CAMPAIGN_MERGE_BIN)

int RunChild(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void RunInBackground(const std::string& cmd) {
  ASSERT_NE(std::system((cmd + " >/dev/null 2>&1 &").c_str()), -1);
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

uint16_t PortFromFile(const std::string& ports_path, const char* key) {
  auto doc = report::ReadJsonFile(ports_path);
  if (!doc.ok()) return 0;
  return static_cast<uint16_t>(doc->GetNumber(key, 0));
}

/// Poll until the scheduler's worker port stops accepting (idle exit),
/// bounded by a wall-clock budget.
void AwaitSchedulerExit(const std::string& ports_path, double budget_s) {
  const double start = util::MonotonicSeconds();
  while (util::MonotonicSeconds() - start < budget_s) {
    const uint16_t port = PortFromFile(ports_path, "worker_port");
    if (port != 0) {
      auto fd = util::TcpConnect("127.0.0.1", port);
      if (!fd.ok()) return;
      util::CloseFd(*fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  FAIL() << "scheduler did not exit within " << budget_s << "s";
}

// The satellite drill: scheduler + 3 workers, one SIGKILL'd the moment it
// receives its first lease. The chunk must be re-issued, no unit may be
// double-counted in the durable store, and the merged report must be
// byte-identical to an uninterrupted monolithic campaign_run.
TEST(ServiceEndToEnd, KilledWorkerLeaseIsReassignedDeterministically) {
  const std::string dir = TempPath("e2e_kill");
  std::system(("rm -rf " + dir).c_str());
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  const std::string ports = dir + "/ports.json";

  // Monolithic reference, merged to a report.
  ASSERT_EQ(RunChild(std::string(CAMPAIGN_RUN_BIN) + " --store " + dir +
                     "/mono.campaign --preset pattern_quick"),
            0);
  ASSERT_EQ(RunChild(std::string(CAMPAIGN_MERGE_BIN) + " --coverage-report " +
                     dir + "/mono.json " + dir + "/mono.campaign"),
            0);

  RunInBackground(std::string(SCHEDULER_BIN) + " --state-dir " + dir +
                  "/state --port-file " + ports +
                  " --submit pattern_quick --chunk-units 1"
                  " --lease-seconds 2 --idle-exit");

  // The victim runs ALONE so it is guaranteed to receive the first grant;
  // --abort-on-grant 1 SIGKILLs it mid-lease with its records unsent.
  ASSERT_EQ(RunChild(std::string(WORKER_BIN) + " --port-file " + ports +
                     " --name victim --abort-on-grant 1 --give-up-ms 60000"),
            137);

  // Three healthy workers drain the queue (two in the background, one
  // synchronously so the test blocks on real completion).
  // Background workers get a short give-up budget: one that misses the
  // idle notification (scheduler already exited) must die quickly instead
  // of keeping the test runner's process group alive for a minute.
  const std::string healthy = std::string(WORKER_BIN) + " --port-file " +
                              ports +
                              " --exit-when-idle --give-up-ms 5000 --name ";
  RunInBackground(healthy + "w1");
  RunInBackground(healthy + "w2");
  ASSERT_EQ(RunChild(healthy + "w3"), 0);
  AwaitSchedulerExit(ports, 60);

  // No unit double-counted: the durable store holds exactly one suite
  // record and each unit id exactly once, despite the reclaimed lease.
  auto scan = campaign::ScanStore(dir + "/state/campaign_1.campaign");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->torn_tail);
  std::map<uint64_t, int> unit_seen;
  int suites = 0;
  for (const std::string& record : scan->records) {
    auto decoded = campaign::DecodePatternRecord(record);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    if (decoded->type == campaign::RecordType::kPatternSuite) {
      ++suites;
    } else {
      ++unit_seen[decoded->unit_id];
    }
  }
  EXPECT_EQ(suites, 1);
  ASSERT_EQ(unit_seen.size(), 4u);
  for (const auto& [id, count] : unit_seen) {
    EXPECT_EQ(count, 1) << "unit " << id << " double-counted";
  }

  // Byte-identical merged report.
  ASSERT_EQ(RunChild(std::string(CAMPAIGN_MERGE_BIN) + " --coverage-report " +
                     dir + "/svc.json " + dir + "/state/campaign_1.campaign"),
            0);
  const std::string mono = ReadWholeFile(dir + "/mono.json");
  ASSERT_FALSE(mono.empty());
  EXPECT_EQ(ReadWholeFile(dir + "/svc.json"), mono);
  std::system(("rm -rf " + dir).c_str());
}

/// Issue one HTTP/1.1 request and return the response body ("" on any
/// connection failure — the caller is polling).
std::string HttpGet(uint16_t port, const std::string& path) {
  auto fd = util::TcpConnect("127.0.0.1", port);
  if (!fd.ok()) return "";
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (!util::WriteAll(*fd, request.data(), request.size()).ok()) {
    util::CloseFd(*fd);
    return "";
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(*fd, buf, sizeof buf)) > 0) response.append(buf, n);
  util::CloseFd(*fd);
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

/// SIGKILLs a pid on scope exit so a failing assertion cannot leak a
/// scheduler child into the test runner.
struct ChildReaper {
  pid_t pid = 0;
  ~ChildReaper() {
    if (pid > 0) ::kill(pid, SIGKILL);
  }
};

// The status API drill: GET /campaigns/<id> live coverage must be
// monotone over the campaign's life and converge to exactly the value the
// final merged store yields.
TEST(ServiceEndToEnd, HttpLiveCoverageConvergesToMergedValue) {
  const std::string dir = TempPath("e2e_http");
  std::system(("rm -rf " + dir).c_str());
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  const std::string ports = dir + "/ports.json";

  // No --idle-exit: the scheduler must keep serving status requests after
  // the campaign completes. The reaper kills it at scope exit.
  ASSERT_NE(std::system((std::string(SCHEDULER_BIN) + " --state-dir " + dir +
                         "/state --port-file " + ports +
                         " --submit pattern_quick --chunk-units 2"
                         " --lease-seconds 10 >/dev/null 2>&1 & echo $! > " +
                         dir + "/sched.pid")
                            .c_str()),
            -1);
  RunInBackground(std::string(WORKER_BIN) + " --port-file " + ports +
                  " --exit-when-idle --give-up-ms 5000 --name poller-w");

  ChildReaper reaper;
  double last_coverage = -1;
  bool complete = false;
  const double start = util::MonotonicSeconds();
  while (util::MonotonicSeconds() - start < 60) {
    if (reaper.pid == 0) {
      reaper.pid = static_cast<pid_t>(
          std::atol(ReadWholeFile(dir + "/sched.pid").c_str()));
    }
    const uint16_t http = PortFromFile(ports, "http_port");
    if (http != 0) {
      const std::string body = HttpGet(http, "/campaigns/1");
      if (!body.empty()) {
        auto doc = report::Json::Parse(body);
        ASSERT_TRUE(doc.ok()) << body;
        const double coverage = doc->GetNumber("live_coverage", -1);
        ASSERT_GE(coverage, last_coverage)
            << "live coverage must be monotone while units only accumulate";
        last_coverage = coverage;
        const report::Json* flag = doc->Find("complete");
        if (flag != nullptr && flag->AsBool()) {
          complete = true;
          break;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(complete) << "campaign did not complete within 60s";

  // Fold the durable store ourselves: the API's final value must equal
  // the streaming merge's, exactly.
  auto scan = campaign::ScanStore(dir + "/state/campaign_1.campaign");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  campaign::StreamingMerge merge(4);
  for (const std::string& record : scan->records) {
    ASSERT_TRUE(merge.Fold(record).ok());
  }
  EXPECT_TRUE(merge.complete());
  EXPECT_DOUBLE_EQ(last_coverage, merge.LiveCoverage());
  std::system(("rm -rf " + dir + "/state").c_str());
}

/// Sends `request` as is and reads the reply until the scheduler closes
/// the connection (`closed`) or 10 s pass without a byte.
struct RawReply {
  std::string text;
  bool closed = false;
};
RawReply HttpRaw(uint16_t port, const std::string& request) {
  RawReply reply;
  auto fd = util::TcpConnect("127.0.0.1", port);
  if (!fd.ok()) return reply;
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  if (util::WriteAll(*fd, request.data(), request.size()).ok()) {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(*fd, buf, sizeof buf)) > 0) reply.text.append(buf, n);
    reply.closed = n == 0;
  }
  util::CloseFd(*fd);
  return reply;
}

// The HTTP reader is bounded: a header past 16 KiB (even one that never
// ends) is answered 431, a content-length past 1 MiB 413 before any body
// is buffered, and one that is not a number 400 — each followed by the
// close. A well-formed request is still served afterwards.
TEST(ServiceEndToEnd, HttpRequestsAreSizeBounded) {
  const std::string dir = TempPath("e2e_http_bounds");
  std::system(("rm -rf " + dir).c_str());
  ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
  const std::string ports = dir + "/ports.json";
  ASSERT_NE(std::system((std::string(SCHEDULER_BIN) + " --state-dir " + dir +
                         "/state --port-file " + ports +
                         " >/dev/null 2>&1 & echo $! > " + dir + "/sched.pid")
                            .c_str()),
            -1);
  ChildReaper reaper;
  uint16_t http = 0;
  const double start = util::MonotonicSeconds();
  while (http == 0 && util::MonotonicSeconds() - start < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    reaper.pid = static_cast<pid_t>(
        std::atol(ReadWholeFile(dir + "/sched.pid").c_str()));
    http = PortFromFile(ports, "http_port");
  }
  ASSERT_NE(http, 0) << "scheduler did not publish its ports";

  auto expect_refused = [&](const std::string& request, const char* status) {
    const RawReply reply = HttpRaw(http, request);
    EXPECT_EQ(reply.text.rfind(std::string("HTTP/1.1 ") + status, 0), 0u)
        << reply.text.substr(0, 80);
    EXPECT_TRUE(reply.closed) << status;
  };
  expect_refused("GET /campaigns HTTP/1.1\r\nX-Pad: " +
                     std::string(17 * 1024, 'a'),
                 "431");
  expect_refused("POST /campaigns HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
                 "413");
  expect_refused("POST /campaigns HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n",
                 "400");
  expect_refused("POST /campaigns HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
                 "400");
  const RawReply ok = HttpRaw(http, "GET /campaigns HTTP/1.1\r\n\r\n");
  EXPECT_EQ(ok.text.rfind("HTTP/1.1 200", 0), 0u) << ok.text;
  EXPECT_TRUE(ok.closed);
  std::system(("rm -rf " + dir).c_str());
}

#endif  // SCHEDULER_BIN && WORKER_BIN && ...

}  // namespace
}  // namespace cmldft
