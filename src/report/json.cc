#include "report/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/file_io.h"
#include "util/strings.h"

namespace cmldft::report {

namespace {
const Json kNullJson;

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += util::StrPrintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  // Integral values print without an exponent or trailing ".0" so counts
  // stay readable in committed snapshots.
  if (std::fabs(v) < 1e15 && v == static_cast<long long>(v)) {
    return util::StrPrintf("%lld", static_cast<long long>(v));
  }
  return util::StrPrintf("%.17g", v);
}

/// Deepest array/object nesting Parse accepts. Each level is one
/// recursive call, so an unbounded depth lets a hostile document (an HTTP
/// body of a million '[') overflow the stack; committed JSON nests at most
/// 6 levels.
constexpr int kMaxNestingDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  util::StatusOr<Json> ParseDocument() {
    auto v = ParseValue();
    if (!v.ok()) return v;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return v;
  }

 private:
  util::Status Error(const std::string& what) const {
    size_t line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') { ++line; col = 1; } else { ++col; }
    }
    return util::Status::ParseError(
        util::StrPrintf("json: %s at line %zu col %zu", what.c_str(), line, col));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  util::StatusOr<Json> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxNestingDepth) {
        return Error(util::StrPrintf("nesting deeper than %d levels",
                                     kMaxNestingDepth));
      }
      ++depth_;
      auto nested = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return nested;
    }
    if (c == '"') {
      auto s = ParseString();
      if (!s.ok()) return s.status();
      return Json::Str(std::move(s).value());
    }
    if (ConsumeWord("true")) return Json::Bool(true);
    if (ConsumeWord("false")) return Json::Bool(false);
    if (ConsumeWord("null")) return Json::Null();
    // Non-standard tokens google-benchmark emits for non-finite rates
    // (e.g. items_per_second when cpu_time rounds to zero under load).
    // Dump() serializes non-finite numbers as null, so these round-trip
    // to null — exactly how the golden comparators treat them.
    if (ConsumeWord("Infinity") || ConsumeWord("-Infinity") ||
        ConsumeWord("NaN")) {
      return Json::Null();
    }
    return ParseNumber();
  }

  util::StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return Error("bad hex digit in \\u escape");
            }
            // UTF-8 encode (no surrogate-pair handling; reports are ASCII).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("unknown escape character");
        }
      } else {
        out += c;
      }
    }
    return Error("unterminated string");
  }

  util::StatusOr<Json> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("malformed number");
    return Json::Number(v);
  }

  util::StatusOr<Json> ParseArray() {
    Consume('[');
    Json arr = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      auto v = ParseValue();
      if (!v.ok()) return v;
      arr.Append(std::move(v).value());
      SkipWhitespace();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  util::StatusOr<Json> ParseObject() {
    Consume('{');
    Json obj = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      auto v = ParseValue();
      if (!v.ok()) return v;
      obj.Set(std::move(key).value(), std::move(v).value());
      SkipWhitespace();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open at pos_
};

}  // namespace

Json Json::Bool(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

Json Json::Int(long long v) { return Number(static_cast<double>(v)); }

Json Json::Str(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

const Json& Json::at(size_t i) const {
  return i < array_.size() ? array_[i] : kNullJson;
}

Json& Json::Append(Json v) {
  array_.push_back(std::move(v));
  return *this;
}

const Json* Json::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::Set(std::string key, Json v) {
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
  return *this;
}

std::string Json::GetString(std::string_view key, std::string fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString() : fallback;
}

double Json::GetNumber(std::string_view key, double fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsNumber() : fallback;
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  const std::string pad(indent > 0 ? static_cast<size_t>(indent * (depth + 1)) : 0, ' ');
  const std::string close_pad(indent > 0 ? static_cast<size_t>(indent * depth) : 0, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += FormatNumber(number_); break;
    case Kind::kString: AppendEscaped(out, string_); break;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      // Arrays of scalars stay on one line (table rows read naturally).
      bool scalar_only = true;
      for (const Json& v : array_) {
        if (v.is_array() || v.is_object()) scalar_only = false;
      }
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        if (!scalar_only) {
          out += nl;
          out += pad;
        } else if (i) {
          out += ' ';
        }
        array_[i].DumpTo(out, scalar_only ? 0 : indent, depth + 1);
      }
      if (!scalar_only) {
        out += nl;
        out += close_pad;
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        out += nl;
        out += pad;
        AppendEscaped(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      out += nl;
      out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

util::StatusOr<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

util::StatusOr<Json> ReadJsonFile(const std::string& path) {
  // ReadFileBytes stats first: a directory or unreadable path fails with
  // the OS error instead of ifstream's silent empty read turning into a
  // baffling "unexpected end of input" parse error.
  auto bytes = util::ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  auto parsed = Json::Parse(*bytes);
  if (!parsed.ok()) {
    return util::Status(parsed.status().code(),
                        path + ": " + parsed.status().message());
  }
  return parsed;
}

util::Status WriteJsonFile(const std::string& path, const Json& value) {
  std::ofstream out(path);
  if (!out) {
    return util::Status::InvalidArgument("cannot write " + path);
  }
  out << value.Dump();
  out.flush();
  if (!out) {
    return util::Status::Internal("short write to " + path);
  }
  return util::Status::Ok();
}

}  // namespace cmldft::report
