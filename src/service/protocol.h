// Wire protocol between the campaign scheduler and its workers.
//
// Every frame is the `.campaign` store's own record frame
// (AppendFrame/ParseFrame in campaign/bytes.h), so the two layers share
// one integrity story and one piece of code:
//
//   payload_len u32 | payload crc32 u32 | payload bytes
//
// little-endian, CRC over the payload only, a length of 1..kMaxFrameBytes.
// A frame that fails the CRC or declares a length outside that range is a
// protocol error and the connection is dropped — the lease machinery
// makes reconnect-and-retry safe, so the transport never needs to limp
// along on a corrupt stream.
//
// The payload is a self-describing message (first byte = MessageType)
// in the campaign byte format (campaign/bytes.h): each message type lists
// its fields once, in one field function that both EncodeMessage and
// DecodeMessage walk. Every field round-trips bit-identically across
// hosts — the same property the store records rely on, and what lets a
// worker-computed record batch be appended to the scheduler's store
// verbatim.
//
// Conversation (worker side drives):
//
//   -> Hello {version, worker name}        <- HelloAck {version}
//   -> WorkRequest {}                      <- Grant | Wait | Idle
//   -> Records {campaign, lease, batch}    <- Ack {accepted, complete}
//
// Grant leases a chunk of unit ids; Wait says "work exists but none is
// grantable right now, retry"; Idle says "every queued campaign is
// complete". Records streams the chunk's encoded store records back; the
// scheduler acknowledges after folding them into the store and the live
// merge.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cmldft::service {

inline constexpr uint32_t kProtocolVersion = 1;
/// Upper bound on one wire frame's payload; larger is corruption (the
/// biggest legitimate frame is a record batch for one lease chunk).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

enum class MessageType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kWorkRequest = 3,
  kGrant = 4,
  kWait = 5,
  kIdle = 6,
  kRecords = 7,
  kAck = 8,
};

/// One decoded message; `type` says which fields are live.
struct Message {
  MessageType type = MessageType::kWorkRequest;

  // kHello / kHelloAck
  uint32_t protocol_version = kProtocolVersion;
  std::string worker;  ///< kHello only: worker display name

  // kGrant
  uint64_t campaign_id = 0;  ///< also kRecords / kAck
  uint64_t lease_id = 0;     ///< also kRecords
  std::string preset;        ///< campaign preset the worker must load
  uint64_t fingerprint = 0;  ///< universe fingerprint the worker must match
  double lease_seconds = 0;  ///< grant validity; expired leases are re-issued
  std::vector<uint64_t> unit_ids;  ///< units to evaluate, planner order

  // kWait
  uint32_t retry_ms = 0;

  // kRecords
  std::vector<std::string> records;  ///< encoded store record payloads

  // kAck
  bool accepted = false;
  bool campaign_complete = false;
  std::string error;  ///< non-empty when accepted is false
};

std::string EncodeMessage(const Message& msg);
/// Rejects truncated payloads, trailing garbage, and unknown types.
util::StatusOr<Message> DecodeMessage(std::string_view payload);

// ---- Framing ----

/// Wrap a payload in the length+crc frame.
std::string Frame(std::string_view payload);

/// Incremental extraction for a non-blocking receive buffer: when `buffer`
/// starts with a complete, CRC-valid frame, moves its payload into
/// `*payload`, consumes it from `buffer`, and returns true. Returns false
/// when more bytes are needed. A bad CRC, or a length of 0 or over
/// kMaxFrameBytes, is an error (drop the connection).
util::StatusOr<bool> ExtractFrame(std::string& buffer, std::string* payload);

/// Blocking read of exactly one frame (worker client, tests). A clean EOF
/// before any byte is FailedPrecondition("connection closed").
util::StatusOr<std::string> ReadFrameBlocking(int fd);

/// Blocking write of one framed payload.
util::Status WriteFrameBlocking(int fd, std::string_view payload);

/// Convenience: WriteFrameBlocking(EncodeMessage(msg)).
util::Status SendMessageBlocking(int fd, const Message& msg);
/// Convenience: DecodeMessage(ReadFrameBlocking(fd)).
util::StatusOr<Message> ReceiveMessageBlocking(int fd);

}  // namespace cmldft::service
