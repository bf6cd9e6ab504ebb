#include "obs/json.h"

#include <cctype>
#include <cstdint>
#include <cstdlib>

#include "common/string_util.h"

namespace lsg {
namespace obs {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (v->kind == Kind::kNumber) return v->num;
  if (v->kind == Kind::kBool) return v->b ? 1.0 : 0.0;
  return fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string_view fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->kind == Kind::kString ? v->str
                                                  : std::string(fallback);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    auto v = ParseValue();
    if (!v.ok()) return v;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const char* what) const {
    return Status::InvalidArgument(
        StrFormat("%s at offset %zu", what, pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ >= kJsonMaxDepth) return Error("nesting too deep");
      ++depth_;
      auto v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue out;
    out.kind = JsonValue::Kind::kObject;
    if (Eat('}')) return out;
    while (true) {
      SkipSpace();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      if (!Eat(':')) return Error("expected ':' in object");
      auto val = ParseValue();
      if (!val.ok()) return val;
      out.object.emplace(std::move(key->str), std::move(*val));
      if (Eat(',')) continue;
      if (Eat('}')) return out;
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue out;
    out.kind = JsonValue::Kind::kArray;
    if (Eat(']')) return out;
    while (true) {
      auto val = ParseValue();
      if (!val.ok()) return val;
      out.array.push_back(std::move(*val));
      if (Eat(',')) continue;
      if (Eat(']')) return out;
      return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<JsonValue> ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    JsonValue out;
    out.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("dangling escape");
        char e = text_[pos_++];
        switch (e) {
          case 'n': out.str += '\n'; break;
          case 't': out.str += '\t'; break;
          case 'r': out.str += '\r'; break;
          case 'b': out.str += '\b'; break;
          case 'f': out.str += '\f'; break;
          case '"': out.str += '"'; break;
          case '\\': out.str += '\\'; break;
          case '/': out.str += '/'; break;
          case 'u': {
            uint32_t cp = 0;
            if (!ParseHex4(&cp)) return Error("malformed \\u escape");
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must be followed by \uDC00..\uDFFF.
              uint32_t lo = 0;
              if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Error("unpaired high surrogate");
              }
              pos_ += 2;
              if (!ParseHex4(&lo) || lo < 0xDC00 || lo > 0xDFFF) {
                return Error("unpaired high surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return Error("unpaired low surrogate");
            }
            AppendUtf8(cp, &out.str);
            break;
          }
          default: return Error("unsupported escape");
        }
      } else {
        out.str += c;
      }
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  bool ParseHex4(uint32_t* out_cp) {
    if (pos_ + 4 > text_.size()) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_ + i];
      v <<= 4;
      if (h >= '0' && h <= '9') {
        v |= static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        v |= static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        v |= static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return false;
      }
    }
    pos_ += 4;
    *out_cp = v;
    return true;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  StatusOr<JsonValue> ParseBool() {
    JsonValue out;
    out.kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      out.b = true;
      pos_ += 4;
      return out;
    }
    if (text_.substr(pos_, 5) == "false") {
      out.b = false;
      pos_ += 5;
      return out;
    }
    return Error("expected boolean");
  }

  StatusOr<JsonValue> ParseNull() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return JsonValue{};
    }
    return Error("expected null");
  }

  StatusOr<JsonValue> ParseNumber() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected number");
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    std::string digits(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.num = std::strtod(digits.c_str(), &end);
    if (end != digits.c_str() + digits.size()) {
      return Error("malformed number");
    }
    return out;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

void JsonEscapeTo(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", static_cast<unsigned char>(c));
        } else {
          *out += c;
        }
    }
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  JsonEscapeTo(s, &out);
  return out;
}

StatusOr<JsonValue> JsonParse(std::string_view text) {
  return Parser(text).Parse();
}

StatusOr<std::map<std::string, double>> JsonFlatNumbers(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("expected a JSON object");
  }
  std::map<std::string, double> out;
  for (const auto& [key, val] : v.object) {
    if (val.kind == JsonValue::Kind::kNumber) out[key] = val.num;
    if (val.kind == JsonValue::Kind::kBool) out[key] = val.b ? 1.0 : 0.0;
  }
  return out;
}

}  // namespace obs
}  // namespace lsg
