// Explicit little-endian byte writer/reader shared by the `.campaign`
// record codecs (codec.cc and the payload files). memcpy through
// fixed-width integers keeps the format independent of host struct
// layout; the byte-order loop keeps it independent of host endianness —
// a record written anywhere decodes bit-identically everywhere, which is
// what lets merge promise byte-identical recombination.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cmldft::campaign {

class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  void F64Vec(const std::vector<double>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (double d : v) F64(d);
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// Ok when the whole `what` record was read and nothing is left over.
  util::Status Finish(std::string_view what) const {
    if (!ok_) {
      return util::Status::ParseError("truncated " + std::string(what) +
                                      " record");
    }
    if (!AtEnd()) {
      return util::Status::ParseError("trailing bytes in " +
                                      std::string(what) + " record");
    }
    return util::Status::Ok();
  }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_++]))
           << (8 * i);
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_++]))
           << (8 * i);
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool Bool() { return U8() != 0; }
  std::string Str() {
    const uint32_t n = U32();
    if (!Need(n)) return {};
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  std::vector<double> F64Vec() {
    const uint32_t n = U32();
    if (!Need(static_cast<size_t>(n) * 8)) return {};
    std::vector<double> v;
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i) v.push_back(F64());
    return v;
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace cmldft::campaign
