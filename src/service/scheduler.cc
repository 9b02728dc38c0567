#include "service/scheduler.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cctype>
#include <cstring>
#include <limits>

#include "report/json.h"
#include "util/clock.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace cmldft::service {

namespace {

// docs/observability.md "service.*": the distributed campaign service.
struct ServiceMetrics {
  util::telemetry::Counter leases_granted =
      util::telemetry::GetCounter("service.leases_granted");
  util::telemetry::Counter leases_stolen =
      util::telemetry::GetCounter("service.leases_stolen");
  util::telemetry::Counter leases_expired =
      util::telemetry::GetCounter("service.leases_expired");
  util::telemetry::Counter records_streamed =
      util::telemetry::GetCounter("service.records_streamed");
  util::telemetry::Counter merge_folds =
      util::telemetry::GetCounter("service.merge_folds");
  util::telemetry::Counter duplicate_records =
      util::telemetry::GetCounter("service.duplicate_records");
  util::telemetry::Counter campaigns_submitted =
      util::telemetry::GetCounter("service.campaigns_submitted");
  util::telemetry::Counter campaigns_completed =
      util::telemetry::GetCounter("service.campaigns_completed");
  util::telemetry::Counter worker_connections =
      util::telemetry::GetCounter("service.worker_connections");
  util::telemetry::Counter http_requests =
      util::telemetry::GetCounter("service.http_requests");
};

const ServiceMetrics& Metrics() {
  static const ServiceMetrics m;
  return m;
}

[[maybe_unused]] const ServiceMetrics& kEagerRegistration = Metrics();

// An API request is a request line, a few headers and a small JSON body.
// The header counts through its blank line.
constexpr size_t kMaxHttpHeaderBytes = 16 * 1024;
constexpr size_t kMaxHttpBodyBytes = 1024 * 1024;

// A content-length value: decimal digits between optional blanks. Values
// past kMaxHttpBodyBytes saturate rather than overflow.
bool ParseContentLength(std::string_view v, size_t* out) {
  v = util::StripWhitespace(v);
  if (v.empty()) return false;
  size_t n = 0;
  for (char ch : v) {
    if (ch < '0' || ch > '9') return false;
    if (n <= kMaxHttpBodyBytes) n = n * 10 + static_cast<size_t>(ch - '0');
  }
  *out = n;
  return true;
}

const char* HttpStatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    default: return "Internal Server Error";
  }
}

report::Json CampaignSummaryJson(const Campaign& c) {
  report::Json obj = report::Json::Object();
  obj.Set("id", report::Json::Int(static_cast<long long>(c.spec().id)));
  obj.Set("preset", report::Json::Str(c.spec().preset));
  obj.Set("priority", report::Json::Int(c.spec().priority));
  obj.Set("payload", report::Json::Str(std::string(c.plan().payload().name)));
  obj.Set("total_units",
          report::Json::Int(static_cast<long long>(c.merge().total_units())));
  obj.Set("units_done",
          report::Json::Int(static_cast<long long>(c.merge().units_done())));
  obj.Set("complete", report::Json::Bool(c.complete()));
  obj.Set("live_coverage", report::Json::Number(c.merge().LiveCoverage()));
  return obj;
}

report::Json CampaignDetailJson(const Campaign& c, double now) {
  report::Json obj = CampaignSummaryJson(c);
  obj.Set("chunk_units",
          report::Json::Int(static_cast<long long>(c.spec().chunk_units)));
  obj.Set("store", report::Json::Str(c.store_path()));
  obj.Set("recovered_units",
          report::Json::Int(static_cast<long long>(c.recovered_units())));

  uint64_t pending = 0, leased = 0, done = 0;
  for (uint64_t chunk = 0; chunk < c.leases().chunk_count(); ++chunk) {
    switch (c.leases().StateOfChunk(chunk)) {
      case ChunkState::kPending: ++pending; break;
      case ChunkState::kLeased: ++leased; break;
      case ChunkState::kDone: ++done; break;
    }
  }
  report::Json chunks = report::Json::Object();
  chunks.Set("pending", report::Json::Int(static_cast<long long>(pending)));
  chunks.Set("leased", report::Json::Int(static_cast<long long>(leased)));
  chunks.Set("done", report::Json::Int(static_cast<long long>(done)));
  obj.Set("chunks", std::move(chunks));

  report::Json leases = report::Json::Array();
  for (const LeaseInfo& l : c.leases().ActiveLeases()) {
    report::Json lease = report::Json::Object();
    lease.Set("lease_id", report::Json::Int(static_cast<long long>(l.lease_id)));
    lease.Set("chunk", report::Json::Int(static_cast<long long>(l.chunk)));
    lease.Set("worker", report::Json::Str(l.worker));
    lease.Set("stolen", report::Json::Bool(l.stolen));
    lease.Set("seconds_left", report::Json::Number(l.deadline - now));
    leases.Append(std::move(lease));
  }
  obj.Set("leases", std::move(leases));
  return obj;
}

}  // namespace

util::StatusOr<std::unique_ptr<Scheduler>> Scheduler::Create(
    const SchedulerOptions& options) {
  if (options.state_dir.empty()) {
    return util::Status::InvalidArgument("scheduler needs a state dir");
  }
  auto queue = CampaignQueue::Open(options.state_dir, options.chunk_units,
                                   options.fsync_batch);
  if (!queue.ok()) return queue.status();
  if (options.abort_at_bytes != 0) {
    queue->SetKillAtSize(options.abort_at_bytes);
  }
  auto worker_listener = util::TcpListener::Listen(options.worker_port);
  if (!worker_listener.ok()) return worker_listener.status();
  auto http_listener = util::TcpListener::Listen(options.http_port);
  if (!http_listener.ok()) return http_listener.status();
  // Non-blocking listeners: the poll loop drains every pending accept per
  // wakeup without risking a block on a spurious readiness.
  CMLDFT_RETURN_IF_ERROR(util::SetNonBlocking(worker_listener->fd()));
  CMLDFT_RETURN_IF_ERROR(util::SetNonBlocking(http_listener->fd()));
  return std::unique_ptr<Scheduler>(
      new Scheduler(options, std::move(queue).value(),
                    std::move(worker_listener).value(),
                    std::move(http_listener).value()));
}

util::StatusOr<uint64_t> Scheduler::Submit(std::string_view preset,
                                           int priority,
                                           uint64_t chunk_units) {
  auto id = queue_.Submit(preset, priority, chunk_units);
  if (id.ok()) Metrics().campaigns_submitted.Increment();
  return id;
}

void Scheduler::DropWorkerLeases(const std::string& worker) {
  if (worker.empty()) return;
  for (Campaign* c : queue_.Ordered()) {
    for (const LeaseInfo& l : c->leases().ActiveLeases()) {
      if (l.worker == worker) c->leases().Release(l.lease_id);
    }
  }
}

void Scheduler::ExpireDueLeases(double now) {
  for (Campaign* c : queue_.Ordered()) {
    const uint64_t expired = c->leases().ExpireLeases(now);
    if (expired > 0) Metrics().leases_expired.Add(expired);
  }
}

int Scheduler::PollTimeoutMs(double now) {
  double next = std::numeric_limits<double>::infinity();
  for (Campaign* c : queue_.Ordered()) {
    next = std::min(next, c->leases().NextDeadline());
  }
  if (!std::isfinite(next)) return 500;
  const double ms = (next - now) * 1000.0;
  return static_cast<int>(std::clamp(ms, 20.0, 1000.0));
}

bool Scheduler::WorkerConnectionsOpen() const {
  for (const auto& conn : conns_) {
    if (!conn->is_http) return true;
  }
  return false;
}

void Scheduler::AcceptFrom(util::TcpListener& listener, bool is_http) {
  while (true) {
    auto fd = listener.Accept();
    if (!fd.ok()) return;  // EAGAIN or transient accept failure
    if (!util::SetNonBlocking(*fd).ok()) {
      util::CloseFd(*fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = *fd;
    conn->is_http = is_http;
    conns_.push_back(std::move(conn));
  }
}

void Scheduler::SendToWorker(Conn& conn, const Message& msg) {
  conn.out += Frame(EncodeMessage(msg));
}

void Scheduler::QueueHttpResponse(Conn& conn, int status_code,
                                  const std::string& body) {
  char head[160];
  std::snprintf(head, sizeof head,
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                status_code, HttpStatusText(status_code), body.size());
  conn.out += head;
  conn.out += body;
  conn.close_after_write = true;
}

void Scheduler::TrySend(Conn& conn) {
  while (!conn.out.empty()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    conn.close_after_write = true;  // peer gone; reap below
    conn.out.clear();
    return;
  }
}

void Scheduler::HandleWorkerMessage(Conn& conn, const Message& msg,
                                    double now) {
  switch (msg.type) {
    case MessageType::kHello: {
      conn.worker = msg.worker;
      conn.hello_done = true;
      Metrics().worker_connections.Increment();
      Message ack;
      ack.type = MessageType::kHelloAck;
      ack.protocol_version = kProtocolVersion;
      SendToWorker(conn, ack);
      return;
    }
    case MessageType::kWorkRequest: {
      if (!conn.hello_done) {
        conn.close_after_write = true;
        return;
      }
      for (Campaign* c : queue_.Ordered()) {
        if (c->complete()) continue;
        auto grant =
            c->leases().Acquire(conn.worker, now, options_.lease_seconds);
        if (!grant.has_value()) continue;
        Metrics().leases_granted.Increment();
        if (grant->stolen) Metrics().leases_stolen.Increment();
        Message reply;
        reply.type = MessageType::kGrant;
        reply.campaign_id = c->spec().id;
        reply.lease_id = grant->lease_id;
        reply.preset = c->spec().preset;
        reply.fingerprint = c->plan().fingerprint();
        reply.lease_seconds = options_.lease_seconds;
        reply.unit_ids = std::move(grant->unit_ids);
        SendToWorker(conn, reply);
        return;
      }
      Message reply;
      if (queue_.AllComplete()) {
        reply.type = MessageType::kIdle;
      } else {
        reply.type = MessageType::kWait;
        reply.retry_ms = options_.retry_ms;
      }
      SendToWorker(conn, reply);
      return;
    }
    case MessageType::kRecords: {
      Message ack;
      ack.type = MessageType::kAck;
      ack.campaign_id = msg.campaign_id;
      Metrics().records_streamed.Add(msg.records.size());
      Campaign* c = queue_.Find(msg.campaign_id);
      if (c == nullptr) {
        ack.accepted = false;
        ack.error = "unknown campaign id";
        SendToWorker(conn, ack);
        return;
      }
      auto folded = c->FoldRecords(msg.records);
      c->leases().Release(msg.lease_id);
      if (!folded.ok()) {
        ack.accepted = false;
        ack.error = folded.status().ToString();
        SendToWorker(conn, ack);
        return;
      }
      Metrics().merge_folds.Add(folded->new_units);
      Metrics().duplicate_records.Add(folded->duplicates);
      ack.accepted = true;
      ack.campaign_complete = c->complete();
      if (c->complete()) {
        const util::Status fin = c->Finish();
        if (!fin.ok()) {
          ack.accepted = false;
          ack.error = fin.ToString();
        } else {
          Metrics().campaigns_completed.Increment();
          std::fprintf(stderr,
                       "[scheduler] campaign %llu complete: %llu units, "
                       "coverage %.6f\n",
                       static_cast<unsigned long long>(c->spec().id),
                       static_cast<unsigned long long>(c->merge().units_done()),
                       c->merge().LiveCoverage());
        }
      }
      SendToWorker(conn, ack);
      return;
    }
    default:
      // A scheduler never receives grant/ack/wait/idle; drop the peer.
      conn.close_after_write = true;
      return;
  }
}

bool Scheduler::ProcessWorkerFrames(Conn& conn, double now) {
  while (true) {
    std::string payload;
    auto got = ExtractFrame(conn.in, &payload);
    if (!got.ok()) return false;  // corrupt stream
    if (!*got) return true;
    auto msg = DecodeMessage(payload);
    if (!msg.ok()) return false;
    HandleWorkerMessage(conn, *msg, now);
  }
}

void Scheduler::ProcessHttpRequest(Conn& conn) {
  // One request per connection: once answered, later bytes are dropped.
  if (conn.close_after_write) {
    conn.in.clear();
    return;
  }
  auto refuse = [&](int status_code, const char* body) {
    conn.in.clear();
    QueueHttpResponse(conn, status_code, body);
  };
  const size_t header_end = conn.in.find("\r\n\r\n");
  // Without its blank line yet, the header is at least one byte longer.
  const size_t header_bytes = header_end == std::string::npos
                                  ? conn.in.size() + 1
                                  : header_end + 4;
  if (header_bytes > kMaxHttpHeaderBytes) {
    refuse(431, "{\"error\":\"request header too large\"}");
    return;
  }
  if (header_end == std::string::npos) return;  // need more bytes
  const std::string head = conn.in.substr(0, header_end);

  size_t content_length = 0;
  size_t line_start = 0;
  while (line_start < head.size()) {
    size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string::npos) line_end = head.size();
    std::string line = head.substr(line_start, line_end - line_start);
    for (char& ch : line) ch = static_cast<char>(std::tolower(ch));
    if (line.rfind("content-length:", 0) == 0 &&
        !ParseContentLength(std::string_view(line).substr(15),
                            &content_length)) {
      refuse(400, "{\"error\":\"malformed content-length\"}");
      return;
    }
    line_start = line_end + 2;
  }
  if (content_length > kMaxHttpBodyBytes) {
    refuse(413, "{\"error\":\"request body too large\"}");
    return;
  }
  if (conn.in.size() < header_end + 4 + content_length) return;
  const std::string body = conn.in.substr(header_end + 4, content_length);
  conn.in.clear();  // Connection: close — one request per connection

  const size_t sp1 = head.find(' ');
  const size_t sp2 = head.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    QueueHttpResponse(conn, 400, "{\"error\":\"malformed request line\"}");
    return;
  }
  const std::string method = head.substr(0, sp1);
  const std::string path = head.substr(sp1 + 1, sp2 - sp1 - 1);
  Metrics().http_requests.Increment();

  const double now = util::MonotonicSeconds();
  if (path == "/campaigns") {
    if (method == "GET") {
      report::Json arr = report::Json::Array();
      for (Campaign* c : queue_.Ordered()) {
        arr.Append(CampaignSummaryJson(*c));
      }
      QueueHttpResponse(conn, 200, arr.Dump(0));
      return;
    }
    if (method == "POST") {
      auto doc = report::Json::Parse(body);
      if (!doc.ok() || !doc->is_object()) {
        QueueHttpResponse(conn, 400, "{\"error\":\"body must be a JSON object\"}");
        return;
      }
      const std::string preset = doc->GetString("preset");
      if (preset.empty()) {
        QueueHttpResponse(conn, 400, "{\"error\":\"missing preset\"}");
        return;
      }
      const int priority = static_cast<int>(doc->GetNumber("priority", 0));
      const uint64_t chunk_units =
          static_cast<uint64_t>(doc->GetNumber("chunk_units", 0));
      auto id = Submit(preset, priority, chunk_units);
      if (!id.ok()) {
        report::Json err = report::Json::Object();
        err.Set("error", report::Json::Str(id.status().ToString()));
        QueueHttpResponse(conn, 400, err.Dump(0));
        return;
      }
      report::Json out = report::Json::Object();
      out.Set("id", report::Json::Int(static_cast<long long>(*id)));
      QueueHttpResponse(conn, 200, out.Dump(0));
      return;
    }
    QueueHttpResponse(conn, 405, "{\"error\":\"method not allowed\"}");
    return;
  }
  if (path.rfind("/campaigns/", 0) == 0 && method == "GET") {
    const std::string digits = path.substr(11);
    uint64_t id = 0;
    bool numeric = !digits.empty();
    for (char ch : digits) {
      if (ch < '0' || ch > '9') {
        numeric = false;
        break;
      }
      id = id * 10 + static_cast<uint64_t>(ch - '0');
    }
    Campaign* c = numeric ? queue_.Find(id) : nullptr;
    if (c == nullptr) {
      QueueHttpResponse(conn, 404, "{\"error\":\"no such campaign\"}");
      return;
    }
    QueueHttpResponse(conn, 200, CampaignDetailJson(*c, now).Dump(0));
    return;
  }
  QueueHttpResponse(conn, 404, "{\"error\":\"no such endpoint\"}");
}

bool Scheduler::ReadConn(Conn& conn, double now) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
      // Past the largest request allowed, stop buffering: what is
      // buffered already decides whether the request is served or refused.
      if (conn.is_http &&
          conn.in.size() > kMaxHttpHeaderBytes + kMaxHttpBodyBytes) {
        break;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: serve whatever is buffered, then drop.
    if (conn.is_http) ProcessHttpRequest(conn);
    return false;
  }
  if (conn.is_http) {
    ProcessHttpRequest(conn);
    return true;
  }
  return ProcessWorkerFrames(conn, now);
}

util::Status Scheduler::Run() {
  std::fprintf(stderr,
               "[scheduler] state dir %s, worker port %u, http port %u, "
               "%zu campaign(s) recovered\n",
               options_.state_dir.c_str(), worker_port(), http_port(),
               queue_.size());

  while (true) {
    double now = util::MonotonicSeconds();
    ExpireDueLeases(now);
    if (options_.idle_exit && queue_.AllComplete() &&
        !WorkerConnectionsOpen()) {
      break;
    }

    std::vector<pollfd> fds;
    fds.push_back({worker_listener_.fd(), POLLIN, 0});
    fds.push_back({http_listener_.fd(), POLLIN, 0});
    for (const auto& conn : conns_) {
      short events = POLLIN;
      if (!conn->out.empty()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }

    const int rc = ::poll(fds.data(), fds.size(), PollTimeoutMs(now));
    if (rc < 0 && errno != EINTR) {
      return util::Status::Internal(std::string("poll: ") +
                                    std::strerror(errno));
    }
    now = util::MonotonicSeconds();
    ExpireDueLeases(now);

    if (fds[0].revents & POLLIN) AcceptFrom(worker_listener_, false);
    if (fds[1].revents & POLLIN) AcceptFrom(http_listener_, true);

    // fds beyond the listeners map 1:1 onto the conns_ that existed at
    // poll time; connections accepted above sit past n_polled and are
    // simply served next iteration.
    const size_t n_polled = fds.size() - 2;
    std::vector<Conn*> doomed;
    for (size_t i = 0; i < n_polled && i < conns_.size(); ++i) {
      Conn& conn = *conns_[i];
      const short revents = fds[i + 2].revents;
      bool alive = true;
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        alive = ReadConn(conn, now);
      }
      TrySend(conn);
      if (!alive || (conn.close_after_write && conn.out.empty())) {
        doomed.push_back(&conn);
      }
    }
    for (Conn* dead : doomed) {
      DropWorkerLeases(dead->worker);
      util::CloseFd(dead->fd);
      conns_.erase(std::find_if(conns_.begin(), conns_.end(),
                                [dead](const std::unique_ptr<Conn>& c) {
                                  return c.get() == dead;
                                }));
    }
  }
  std::fprintf(stderr, "[scheduler] idle — exiting\n");
  return util::Status::Ok();
}

}  // namespace cmldft::service
