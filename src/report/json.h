// Minimal JSON value, serializer and parser for the reproduction-report
// pipeline (bench --json output, committed golden snapshots, and the
// golden_check driver). Self-contained on purpose: the toolchain image
// carries no JSON dependency, and the subset we need is small — objects
// keep insertion order so serialized reports diff cleanly in review.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace cmldft::report {

/// A JSON document node: null, bool, number, string, array or object.
/// Objects preserve insertion order (reports are written for humans too).
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double v);
  static Json Int(long long v);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }

  // --- array ------------------------------------------------------------
  size_t size() const { return array_.size(); }
  const Json& at(size_t i) const;
  Json& Append(Json v);

  // --- object -----------------------------------------------------------
  size_t num_members() const { return members_.size(); }
  const std::pair<std::string, Json>& member(size_t i) const {
    return members_[i];
  }
  /// nullptr when absent.
  const Json* Find(std::string_view key) const;
  Json& Set(std::string key, Json v);

  /// Convenience typed lookups with defaults (missing/mistyped -> fallback).
  std::string GetString(std::string_view key, std::string fallback = "") const;
  double GetNumber(std::string_view key, double fallback = 0.0) const;

  /// Serialize. `indent` = 0 gives compact one-line output; otherwise
  /// pretty-printed with that many spaces per level. Numbers round-trip
  /// via %.17g; non-finite numbers serialize as null (JSON has no NaN).
  std::string Dump(int indent = 2) const;

  /// Parse a complete JSON document (trailing non-whitespace is an error).
  /// Arrays and objects nested more than 64 levels deep are a ParseError.
  static util::StatusOr<Json> Parse(std::string_view text);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Read/write whole files (report snapshots are small).
util::StatusOr<Json> ReadJsonFile(const std::string& path);
util::Status WriteJsonFile(const std::string& path, const Json& value);

}  // namespace cmldft::report
