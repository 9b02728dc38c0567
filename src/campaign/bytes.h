// The one byte format of the `.campaign` stores and the scheduler–worker
// wire: explicit little-endian fields, and one length+CRC frame around
// every store record and every wire message.
//
// A record or message lists its fields once, in one field function:
//
//   template <typename Io, typename T>
//   void XFields(Io& io, T& t) {
//     io.U32(t.count);
//     io.F64Vec(t.values);
//   }
//
// ByteWriter walks it over a const T and writes each field by value;
// ByteReader walks it over a T and fills each field by reference;
// util::ContentHasher walks it to fingerprint a configuration in record
// order. The forms are U32, U64, I32, F64, Bool and Enum (one byte each),
// Str (u32 length, bytes), F64Vec (u32 count, doubles) and Vec (u32 count,
// then each std::string, int32_t or uint64_t element in its own form).
// Fixed-width integers and IEEE-754 bit patterns keep the format
// independent of host struct layout and endianness: a record written
// anywhere decodes bit-identically everywhere, which is what lets merge
// promise byte-identical recombination.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc32.h"
#include "util/status.h"

namespace cmldft::campaign {

class ByteWriter {
 public:
  void U32(uint32_t v) { Le(v, 4); }
  void U64(uint64_t v) { Le(v, 8); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Bool(bool v) { Le(v ? 1 : 0, 1); }
  template <typename E>
  void Enum(E v) {
    Le(static_cast<uint8_t>(v), 1);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s);
  }
  void F64Vec(const std::vector<double>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (double d : v) F64(d);
  }
  template <typename E>
  void Vec(const std::vector<E>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (const E& e : v) Element(e);
  }
  /// Bytes as they are, with no length (a magic string).
  void Raw(std::string_view bytes) { out_.append(bytes); }

  /// The bytes written so far.
  std::string_view bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Le(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out_.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
  void Element(std::string_view s) { Str(s); }
  void Element(int32_t v) { I32(v); }
  void Element(uint64_t v) { U64(v); }

  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  /// Ok when the whole of `what` was read and nothing is left over.
  util::Status Finish(std::string_view what) const {
    if (!ok_) {
      return util::Status::ParseError("truncated " + std::string(what));
    }
    if (pos_ != data_.size()) {
      return util::Status::ParseError("trailing bytes in " +
                                      std::string(what));
    }
    return util::Status::Ok();
  }

  // Each form fills its field, or leaves it zero and marks the reader
  // failed when the bytes run out.
  void U32(uint32_t& v) { v = static_cast<uint32_t>(Le(4)); }
  void U64(uint64_t& v) { v = Le(8); }
  void I32(int32_t& v) { v = static_cast<int32_t>(Le(4)); }
  void F64(double& v) {
    const uint64_t bits = Le(8);
    std::memcpy(&v, &bits, sizeof v);
  }
  void Bool(bool& v) { v = Le(1) != 0; }
  template <typename E>
  void Enum(E& v) {
    v = static_cast<E>(Le(1));
  }
  void Str(std::string& s) {
    uint32_t n = 0;
    U32(n);
    s.clear();
    if (!Need(n)) return;
    s.assign(data_.substr(pos_, n));
    pos_ += n;
  }
  void F64Vec(std::vector<double>& v) {
    uint32_t n = 0;
    U32(n);
    v.clear();
    // Size the vector only once the bytes of all n doubles are present.
    if (!Need(static_cast<size_t>(n) * 8)) return;
    v.resize(n);
    for (double& d : v) F64(d);
  }
  template <typename E>
  void Vec(std::vector<E>& v) {
    uint32_t n = 0;
    U32(n);
    v.clear();
    // No reserve: an element is kept only once its bytes were read, so a
    // corrupt count cannot allocate past what the input holds.
    for (uint32_t i = 0; i < n && ok_; ++i) {
      E e{};
      Element(e);
      if (ok_) v.push_back(std::move(e));
    }
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  uint64_t Le(int width) {
    if (!Need(width)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_++]))
           << (8 * i);
    }
    return v;
  }
  void Element(std::string& s) { Str(s); }
  void Element(int32_t& v) { I32(v); }
  void Element(uint64_t& v) { U64(v); }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- The frame ----
//
// Every store record and every wire message travels in one frame:
//
//   payload_len u32 | payload crc32 u32 | payload bytes
//
// The rule is a length of 1..bound and a CRC-32 over the payload. Each
// caller passes its own bound: a store record's (store.h) or a wire
// frame's (service/protocol.h).

inline constexpr size_t kFrameHeaderBytes = 8;

/// Append `payload` to `out` in its frame.
inline void AppendFrame(std::string& out, std::string_view payload) {
  out.reserve(out.size() + kFrameHeaderBytes + payload.size());
  ByteWriter head;
  head.U32(static_cast<uint32_t>(payload.size()));
  head.U32(util::Crc32(payload.data(), payload.size()));
  out += head.bytes();
  out += payload;
}

/// The frame at the front of some bytes, as far as they hold it.
struct FrameView {
  /// The whole frame's size, header included: known once the header is
  /// present, 0 before.
  size_t size = 0;
  /// The CRC-checked payload, set once all `size` bytes are present (never
  /// empty then, as a frame's length is at least 1).
  std::string_view payload;
};

/// Parse the frame at the front of `bytes`. Refuses a length outside
/// 1..max_len as soon as the header is present, before any payload byte is
/// needed, and a payload that fails its CRC once it is whole.
inline util::StatusOr<FrameView> ParseFrame(std::string_view bytes,
                                           uint32_t max_len) {
  FrameView frame;
  if (bytes.size() < kFrameHeaderBytes) return frame;
  ByteReader head(bytes.substr(0, kFrameHeaderBytes));
  uint32_t len = 0;
  uint32_t crc = 0;
  head.U32(len);
  head.U32(crc);
  if (len == 0 || len > max_len) {
    return util::Status::ParseError(
        "frame declares " + std::to_string(len) + " bytes, outside 1.." +
        std::to_string(max_len) + " — corrupt stream");
  }
  frame.size = kFrameHeaderBytes + len;
  if (bytes.size() < frame.size) return frame;
  const std::string_view payload = bytes.substr(kFrameHeaderBytes, len);
  if (util::Crc32(payload.data(), payload.size()) != crc) {
    return util::Status::ParseError("frame payload fails its CRC");
  }
  frame.payload = payload;
  return frame;
}

}  // namespace cmldft::campaign
