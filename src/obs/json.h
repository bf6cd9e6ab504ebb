#ifndef LEARNEDSQLGEN_OBS_JSON_H_
#define LEARNEDSQLGEN_OBS_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace lsg {
namespace obs {

/// Minimal JSON document model shared by the observability tooling and the
/// network protocol: enough to read back the artifacts this subsystem
/// writes (flat metric snapshots, JSONL episode rows, Chrome trace_event
/// files) and to parse untrusted request frames. Numbers are doubles.
/// Strings support the full escape set including \uXXXX (with surrogate
/// pairs, decoded to UTF-8); nesting is bounded (kJsonMaxDepth) so
/// adversarial input cannot overflow the parser's recursion.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  /// Member's number, or `fallback` when absent / not numeric.
  double NumberOr(std::string_view key, double fallback) const;
  /// Member's string, or `fallback` when absent / not a string.
  std::string StringOr(std::string_view key, std::string_view fallback) const;
};

/// Maximum object/array nesting JsonParse accepts before reporting an
/// InvalidArgument (guards recursion depth on untrusted input).
inline constexpr int kJsonMaxDepth = 128;

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// is an error).
StatusOr<JsonValue> JsonParse(std::string_view text);

/// The one JSON string escaper: appends `s` to `out` as the body of a JSON
/// string — quotes and backslashes escaped, \n \r \t by name and the
/// other control bytes as \u00XX — so any byte sequence stays one
/// parseable string (and one JSONL line).
void JsonEscapeTo(std::string_view s, std::string* out);
/// JsonEscapeTo into a fresh string.
std::string JsonEscape(std::string_view s);

/// Flattens a parsed object's top-level numeric members (bools count as
/// 0/1). Non-numeric members are skipped. Error when `v` is not an object.
StatusOr<std::map<std::string, double>> JsonFlatNumbers(const JsonValue& v);

}  // namespace obs
}  // namespace lsg

#endif  // LEARNEDSQLGEN_OBS_JSON_H_
