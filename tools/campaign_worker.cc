// Campaign worker: connects to the scheduler, pulls chunk leases, runs
// the simulation work, streams record batches back (docs/campaign.md,
// "Distributed service").
//
//   campaign_worker (--connect HOST:PORT | --port-file <path.json>)
//                   [--threads N] [--name S] [--poll-ms N]
//                   [--give-up-ms N] [--exit-when-idle]
//                   [--abort-on-grant K]
//
// The worker is stateless: it holds nothing but the lease it is currently
// evaluating, so kill -9 at any instant loses at most one chunk of work —
// the scheduler re-issues the lease and the streaming merge dedups any
// records that did land. Before simulating a grant the worker re-derives
// the preset's plan locally and refuses a fingerprint mismatch: a worker
// built from drifted sources drops out instead of contributing records
// the merge would reject.
//
// A broken connection (scheduler restart, network partition) is retried
// with --poll-ms backoff until --give-up-ms of consecutive failure, so a
// scheduler kill -9 plus restart is invisible to workers. --abort-on-grant
// SIGKILLs this process the moment the K-th lease is granted — the
// kill-a-worker-mid-lease drill. --exit-when-idle exits 0 when the
// scheduler reports the whole queue complete (and treats a scheduler that
// stays unreachable past the give-up budget as having idle-exited).
//
// Exit codes: 0 = idle exit, 1 = evaluation/protocol failure,
// 2 = usage error, 3 = scheduler unreachable (without --exit-when-idle),
// 4 = scheduler rejected a record batch.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unistd.h>

#include "campaign/payload.h"
#include "campaign/runner.h"
#include "report/json.h"
#include "service/protocol.h"
#include "util/clock.h"
#include "util/net.h"

using namespace cmldft;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--connect HOST:PORT | --port-file <path.json>)\n"
      "          [--threads N] [--name S] [--poll-ms N] [--give-up-ms N]\n"
      "          [--exit-when-idle] [--abort-on-grant K]\n",
      argv0);
  return 2;
}

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_spec;
  std::string port_file;
  std::string name = "worker-" + std::to_string(::getpid());
  int threads = 0;
  int poll_ms = 100;
  int give_up_ms = 30000;
  bool exit_when_idle = false;
  long abort_on_grant = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--connect") {
      connect_spec = next("--connect");
    } else if (arg == "--port-file") {
      port_file = next("--port-file");
    } else if (arg == "--threads") {
      threads = std::atoi(next("--threads"));
    } else if (arg == "--name") {
      name = next("--name");
    } else if (arg == "--poll-ms") {
      poll_ms = std::atoi(next("--poll-ms"));
    } else if (arg == "--give-up-ms") {
      give_up_ms = std::atoi(next("--give-up-ms"));
    } else if (arg == "--exit-when-idle") {
      exit_when_idle = true;
    } else if (arg == "--abort-on-grant") {
      abort_on_grant = std::atol(next("--abort-on-grant"));
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (connect_spec.empty() == port_file.empty()) {
    std::fprintf(stderr, "%s: exactly one of --connect / --port-file\n",
                 argv[0]);
    return Usage(argv[0]);
  }
  if (poll_ms < 1) poll_ms = 1;

  std::string host = "127.0.0.1";
  uint16_t port = 0;
  if (!connect_spec.empty()) {
    const size_t colon = connect_spec.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "%s: --connect wants HOST:PORT\n", argv[0]);
      return 2;
    }
    host = connect_spec.substr(0, colon);
    port = static_cast<uint16_t>(std::atoi(connect_spec.c_str() + colon + 1));
  }

  long grants_received = 0;
  double unreachable_since = -1;  // monotonic; <0 = currently reachable

  while (true) {
    // --port-file: the scheduler may not have published yet; re-read every
    // attempt so a restarted scheduler's fresh ports are picked up.
    if (!port_file.empty()) {
      auto doc = report::ReadJsonFile(port_file);
      if (doc.ok()) {
        port = static_cast<uint16_t>(doc->GetNumber("worker_port", 0));
      } else {
        port = 0;
      }
    }

    auto fd = port == 0 ? util::StatusOr<int>(util::Status::FailedPrecondition(
                              "scheduler port not yet published"))
                        : util::TcpConnect(host, port);
    if (!fd.ok()) {
      const double now = util::MonotonicSeconds();
      if (unreachable_since < 0) unreachable_since = now;
      if ((now - unreachable_since) * 1000.0 > give_up_ms) {
        if (exit_when_idle) {
          std::fprintf(stderr, "[%s] scheduler gone; assuming idle exit\n",
                       name.c_str());
          return 0;
        }
        std::fprintf(stderr, "[%s] scheduler unreachable for %d ms\n",
                     name.c_str(), give_up_ms);
        return 3;
      }
      SleepMs(poll_ms);
      continue;
    }

    // Session: hello, then request/evaluate/stream until the connection
    // breaks (reconnect) or the scheduler says idle (maybe exit).
    service::Message hello;
    hello.type = service::MessageType::kHello;
    hello.protocol_version = service::kProtocolVersion;
    hello.worker = name;
    bool session_ok = service::SendMessageBlocking(*fd, hello).ok();
    if (session_ok) {
      auto ack = service::ReceiveMessageBlocking(*fd);
      session_ok = ack.ok() && ack->type == service::MessageType::kHelloAck &&
                   ack->protocol_version == service::kProtocolVersion;
      if (ack.ok() && ack->type == service::MessageType::kHelloAck &&
          ack->protocol_version != service::kProtocolVersion) {
        std::fprintf(stderr, "[%s] protocol version mismatch (ours %u, "
                     "scheduler %u)\n",
                     name.c_str(), service::kProtocolVersion,
                     ack->protocol_version);
        util::CloseFd(*fd);
        return 1;
      }
    }

    while (session_ok) {
      unreachable_since = -1;
      service::Message req;
      req.type = service::MessageType::kWorkRequest;
      if (!service::SendMessageBlocking(*fd, req).ok()) break;
      auto reply = service::ReceiveMessageBlocking(*fd);
      if (!reply.ok()) break;

      if (reply->type == service::MessageType::kWait) {
        SleepMs(reply->retry_ms > 0 ? static_cast<int>(reply->retry_ms)
                                    : poll_ms);
        continue;
      }
      if (reply->type == service::MessageType::kIdle) {
        if (exit_when_idle) {
          std::fprintf(stderr, "[%s] queue idle; exiting\n", name.c_str());
          util::CloseFd(*fd);
          return 0;
        }
        SleepMs(poll_ms);
        continue;
      }
      if (reply->type != service::MessageType::kGrant) break;

      ++grants_received;
      if (abort_on_grant > 0 && grants_received == abort_on_grant) {
        // Crash injection: die holding the lease, records unsent.
        std::raise(SIGKILL);
      }

      auto plan = campaign::PlanForPreset(reply->preset);
      if (!plan.ok()) {
        std::fprintf(stderr, "[%s] unknown preset '%s': %s\n", name.c_str(),
                     reply->preset.c_str(),
                     plan.status().ToString().c_str());
        util::CloseFd(*fd);
        return 1;
      }
      if ((*plan)->fingerprint() != reply->fingerprint) {
        std::fprintf(stderr,
                     "[%s] fingerprint mismatch for preset '%s' — this "
                     "worker's engine drifted from the scheduler's; "
                     "refusing the lease\n",
                     name.c_str(), reply->preset.c_str());
        util::CloseFd(*fd);
        return 1;
      }

      auto records = campaign::EvaluateUnits(**plan, reply->unit_ids, threads);
      if (!records.ok()) {
        std::fprintf(stderr, "[%s] chunk evaluation failed: %s\n",
                     name.c_str(), records.status().ToString().c_str());
        util::CloseFd(*fd);
        return 1;
      }

      service::Message batch;
      batch.type = service::MessageType::kRecords;
      batch.campaign_id = reply->campaign_id;
      batch.lease_id = reply->lease_id;
      batch.records = std::move(*records);
      if (!service::SendMessageBlocking(*fd, batch).ok()) break;
      auto ack = service::ReceiveMessageBlocking(*fd);
      if (!ack.ok()) break;
      if (ack->type != service::MessageType::kAck || !ack->accepted) {
        std::fprintf(stderr, "[%s] scheduler rejected records: %s\n",
                     name.c_str(), ack->error.c_str());
        util::CloseFd(*fd);
        return 4;
      }
      std::fprintf(stderr,
                   "[%s] campaign %llu lease %llu: %zu unit(s) delivered%s\n",
                   name.c_str(),
                   static_cast<unsigned long long>(reply->campaign_id),
                   static_cast<unsigned long long>(reply->lease_id),
                   reply->unit_ids.size(),
                   ack->campaign_complete ? " (campaign complete)" : "");
    }

    util::CloseFd(*fd);
    if (unreachable_since < 0) unreachable_since = util::MonotonicSeconds();
    SleepMs(poll_ms);
  }
}
