#include "service/protocol.h"

#include "campaign/bytes.h"
#include "util/net.h"

namespace cmldft::service {

using campaign::ByteReader;
using campaign::ByteWriter;
using campaign::kFrameHeaderBytes;

namespace {

/// Each message type's fields, in wire order after its type byte. False,
/// before any field, for an unknown type.
template <typename Io, typename M>
bool MessageFields(Io& io, M& m) {
  switch (m.type) {
    case MessageType::kHello:
      io.U32(m.protocol_version);
      io.Str(m.worker);
      return true;
    case MessageType::kHelloAck:
      io.U32(m.protocol_version);
      return true;
    case MessageType::kWorkRequest:
    case MessageType::kIdle:
      return true;
    case MessageType::kGrant:
      io.U64(m.campaign_id);
      io.U64(m.lease_id);
      io.Str(m.preset);
      io.U64(m.fingerprint);
      io.F64(m.lease_seconds);
      io.Vec(m.unit_ids);
      return true;
    case MessageType::kWait:
      io.U32(m.retry_ms);
      return true;
    case MessageType::kRecords:
      io.U64(m.campaign_id);
      io.U64(m.lease_id);
      io.Vec(m.records);
      return true;
    case MessageType::kAck:
      io.U64(m.campaign_id);
      io.Bool(m.accepted);
      io.Bool(m.campaign_complete);
      io.Str(m.error);
      return true;
  }
  return false;
}

}  // namespace

std::string EncodeMessage(const Message& msg) {
  ByteWriter w;
  w.Enum(msg.type);
  MessageFields(w, msg);
  return w.Take();
}

util::StatusOr<Message> DecodeMessage(std::string_view payload) {
  ByteReader r(payload);
  Message msg;
  r.Enum(msg.type);
  if (!MessageFields(r, msg)) {
    return util::Status::ParseError(
        "unknown service message type " +
        std::to_string(static_cast<unsigned>(msg.type)));
  }
  CMLDFT_RETURN_IF_ERROR(r.Finish("service message"));
  return msg;
}

// ------------------------------------------------------- framing --

std::string Frame(std::string_view payload) {
  std::string out;
  campaign::AppendFrame(out, payload);
  return out;
}

util::StatusOr<bool> ExtractFrame(std::string& buffer, std::string* payload) {
  auto frame = campaign::ParseFrame(buffer, kMaxFrameBytes);
  if (!frame.ok()) return frame.status();
  if (frame->payload.empty()) return false;
  payload->assign(frame->payload);
  buffer.erase(0, frame->size);
  return true;
}

util::StatusOr<std::string> ReadFrameBlocking(int fd) {
  std::string bytes(kFrameHeaderBytes, '\0');
  CMLDFT_RETURN_IF_ERROR(util::ReadAll(fd, bytes.data(), bytes.size()));
  // The header alone sizes the frame, or refuses its length.
  auto frame = campaign::ParseFrame(bytes, kMaxFrameBytes);
  if (!frame.ok()) return frame.status();
  bytes.resize(frame->size);
  CMLDFT_RETURN_IF_ERROR(util::ReadAll(fd, bytes.data() + kFrameHeaderBytes,
                                       frame->size - kFrameHeaderBytes));
  frame = campaign::ParseFrame(bytes, kMaxFrameBytes);
  if (!frame.ok()) return frame.status();
  bytes.erase(0, kFrameHeaderBytes);  // what remains is the checked payload
  return bytes;
}

util::Status WriteFrameBlocking(int fd, std::string_view payload) {
  const std::string framed = Frame(payload);
  return util::WriteAll(fd, framed.data(), framed.size());
}

util::Status SendMessageBlocking(int fd, const Message& msg) {
  return WriteFrameBlocking(fd, EncodeMessage(msg));
}

util::StatusOr<Message> ReceiveMessageBlocking(int fd) {
  auto payload = ReadFrameBlocking(fd);
  if (!payload.ok()) return payload.status();
  return DecodeMessage(*payload);
}

}  // namespace cmldft::service
