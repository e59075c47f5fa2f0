// The JSON text layer: a minimal recursive-descent reader plus the
// writing primitives every exporter builds its documents from.
//
// The reader takes the full JSON grammar (objects, arrays, strings with
// escapes, numbers, bool, null); numbers are held as double, which is
// exact for every id the tracer emits (< 2^53). It backs every file the
// repo reads: fault plans, fleet configs, BenchReports, timelines, traces
// and the supervisor manifest.
//
// The writers are primitives, not a document builder: each exporter keeps
// its own layout (pretty snapshot and BenchReport, compact timeline, trace
// and manifest) and calls these for every string and number it emits, so
// escaping and number formatting are the same in every file.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"

namespace ys::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
};

/// Deepest array/object nesting parse() accepts. Far above anything the
/// repo writes (its documents nest a handful of levels); it bounds the
/// reader's recursion so hostile input fails instead of overflowing the
/// stack.
inline constexpr int kMaxDepth = 512;

/// Parse a complete JSON document. std::nullopt on any syntax error,
/// trailing garbage or nesting deeper than kMaxDepth.
std::optional<Value> parse(std::string_view text);

/// Append `s` as a quoted JSON string: `"`, `\`, newline, carriage return
/// and tab get their short escapes, every other byte below 0x20 becomes
/// \u00XX, and all other bytes (UTF-8 included) pass through unchanged.
void append_string(std::string& out, std::string_view s);
std::string quote(std::string_view s);

/// Append `v` in the canonical number format: integral values below 1e15
/// in plain integer form, everything else as %.17g (round-trips exactly),
/// and NaN/inf as null, which JSON consumers can detect.
void append_number(std::string& out, double v);
std::string number(double v);

void append_int(std::string& out, i64 v);
void append_uint(std::string& out, u64 v);

}  // namespace ys::json
