// FNV-1a 64-bit content hashing for campaign fingerprints: a stable,
// platform-independent digest of "what was being screened" (options +
// defect universe) that a result store records in its header so a resume
// or merge against a *different* circuit or configuration is refused
// instead of producing a silently wrong report. Not cryptographic — it
// guards against drift and operator error, not adversaries.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace cmldft::util {

/// Incremental FNV-1a 64. Feed typed values; the encoding is explicit
/// (little-endian fixed-width integers, IEEE-754 bits for doubles,
/// length-prefixed strings) so the digest is stable across platforms and
/// insensitive to accidental field concatenation ambiguity.
class ContentHasher {
 public:
  ContentHasher& Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      state_ ^= p[i];
      state_ *= 0x100000001B3ull;
    }
    return *this;
  }
  ContentHasher& U64(uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    return Bytes(b, sizeof b);
  }
  ContentHasher& I64(int64_t v) { return U64(static_cast<uint64_t>(v)); }
  ContentHasher& Bool(bool v) { return U64(v ? 1 : 0); }
  ContentHasher& F64(double v) {
    uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return U64(bits);
  }
  ContentHasher& Str(std::string_view s) {
    U64(s.size());
    return Bytes(s.data(), s.size());
  }

  // Widening forms, so a fingerprint can walk a record's field function
  // (campaign/bytes.h) and hash its fields in record order: every integer
  // and enum hashes as 64 bits, and so does a vector's count.
  ContentHasher& U32(uint32_t v) { return U64(v); }
  ContentHasher& I32(int32_t v) { return I64(v); }
  template <typename E>
  ContentHasher& Enum(E v) {
    return I64(static_cast<int64_t>(v));
  }
  ContentHasher& F64Vec(const std::vector<double>& v) {
    U64(v.size());
    for (double d : v) F64(d);
    return *this;
  }

  uint64_t Digest() const { return state_; }

 private:
  uint64_t state_ = 0xCBF29CE484222325ull;  // FNV-1a 64 offset basis
};

}  // namespace cmldft::util
