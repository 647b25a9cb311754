// A small self-contained JSON value type with serializer and parser — the
// export/import glue for experiment artifacts (trial logs, tuning results).
// Deliberately minimal: UTF-8 pass-through, doubles + int64 numbers,
// insertion-ordered objects (stable, diff-able output).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace hypertune {

class Json;

/// Room WriteJsonDouble needs: sign, 17 digits, point, exponent.
inline constexpr std::size_t kJsonDoubleMaxChars = 32;

/// The one rule by which a double is written as JSON, shared by Json::Dump
/// and the lease journal's typed record encoder (src/service/server.cc): an
/// integral value with |d| < 1e15 prints as that integer plus ".0" (so it
/// reads back as a double; -0.0 prints "0.0"), any other finite value as
/// printf's "%.17g", a NaN or infinity as null. Writes at most
/// kJsonDoubleMaxChars chars at `out` and returns one past the last.
char* WriteJsonDouble(char* out, double value);

using JsonArray = std::vector<Json>;
/// Insertion-ordered key/value list (keys assumed unique by construction).
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  /// Null by default.
  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool value) : value_(value) {}
  Json(double value) : value_(value) {}
  Json(int value) : value_(static_cast<std::int64_t>(value)) {}
  Json(std::int64_t value) : value_(value) {}
  Json(std::uint64_t value) : value_(static_cast<std::int64_t>(value)) {}
  Json(const char* value) : value_(std::string(value)) {}
  Json(std::string value) : value_(std::move(value)) {}
  Json(JsonArray value) : value_(std::move(value)) {}
  Json(JsonObject value) : value_(std::move(value)) {}

  bool IsNull() const { return std::holds_alternative<std::monostate>(value_); }
  bool IsBool() const { return std::holds_alternative<bool>(value_); }
  bool IsNumber() const {
    return std::holds_alternative<double>(value_) ||
           std::holds_alternative<std::int64_t>(value_);
  }
  /// True for numbers stored integrally (parsed without '.'/exponent).
  bool IsInt() const { return std::holds_alternative<std::int64_t>(value_); }
  bool IsString() const { return std::holds_alternative<std::string>(value_); }
  bool IsArray() const { return std::holds_alternative<JsonArray>(value_); }
  bool IsObject() const { return std::holds_alternative<JsonObject>(value_); }

  /// Typed accessors; throw CheckError on type mismatch. AsDouble widens
  /// integers; AsInt requires an integral value (or an exactly-integral
  /// double).
  bool AsBool() const;
  double AsDouble() const;
  std::int64_t AsInt() const;
  const std::string& AsString() const;
  const JsonArray& AsArray() const;
  const JsonObject& AsObject() const;

  /// Object field lookup; throws CheckError when absent or not an object.
  const Json& at(std::string_view key) const;
  bool Has(std::string_view key) const;

  /// Array element; throws CheckError when out of range or not an array.
  const Json& at(std::size_t index) const;
  std::size_t size() const;

  /// Appends to an array (value must be an array or null; null becomes []).
  void PushBack(Json value);
  /// Sets an object field (value must be an object or null; null becomes {}).
  void Set(std::string key, Json value);

  /// Serializes; indent < 0 = compact single line, otherwise pretty-printed
  /// with the given indent width.
  std::string Dump(int indent = -1) const;

  /// Parses a complete JSON document; throws CheckError with position info
  /// on malformed input.
  static Json Parse(std::string_view text);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  std::variant<std::monostate, bool, double, std::int64_t, std::string,
               JsonArray, JsonObject>
      value_;
};

}  // namespace hypertune
