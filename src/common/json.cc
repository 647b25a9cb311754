#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/check.h"

namespace hypertune {

bool Json::AsBool() const {
  const auto* b = std::get_if<bool>(&value_);
  HT_CHECK_MSG(b != nullptr, "JSON value is not a bool");
  return *b;
}

double Json::AsDouble() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  throw CheckError("JSON value is not a number");
}

std::int64_t Json::AsInt() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* d = std::get_if<double>(&value_)) {
    HT_CHECK_MSG(std::floor(*d) == *d, "JSON number " << *d
                                                      << " is not integral");
    return static_cast<std::int64_t>(*d);
  }
  throw CheckError("JSON value is not a number");
}

const std::string& Json::AsString() const {
  const auto* s = std::get_if<std::string>(&value_);
  HT_CHECK_MSG(s != nullptr, "JSON value is not a string");
  return *s;
}

const JsonArray& Json::AsArray() const {
  const auto* a = std::get_if<JsonArray>(&value_);
  HT_CHECK_MSG(a != nullptr, "JSON value is not an array");
  return *a;
}

const JsonObject& Json::AsObject() const {
  const auto* o = std::get_if<JsonObject>(&value_);
  HT_CHECK_MSG(o != nullptr, "JSON value is not an object");
  return *o;
}

const Json& Json::at(std::string_view key) const {
  for (const auto& [k, v] : AsObject()) {
    if (k == key) return v;
  }
  throw CheckError("JSON object has no key '" + std::string(key) + "'");
}

bool Json::Has(std::string_view key) const {
  if (!IsObject()) return false;
  for (const auto& [k, v] : AsObject()) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(std::size_t index) const {
  const auto& array = AsArray();
  HT_CHECK_MSG(index < array.size(), "JSON array index " << index
                                                         << " out of range");
  return array[index];
}

std::size_t Json::size() const {
  if (IsArray()) return AsArray().size();
  if (IsObject()) return AsObject().size();
  throw CheckError("JSON value has no size");
}

void Json::PushBack(Json value) {
  if (IsNull()) value_ = JsonArray{};
  auto* array = std::get_if<JsonArray>(&value_);
  HT_CHECK_MSG(array != nullptr, "PushBack on non-array JSON value");
  array->push_back(std::move(value));
}

void Json::Set(std::string key, Json value) {
  if (IsNull()) value_ = JsonObject{};
  auto* object = std::get_if<JsonObject>(&value_);
  HT_CHECK_MSG(object != nullptr, "Set on non-object JSON value");
  for (auto& [k, v] : *object) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object->emplace_back(std::move(key), std::move(value));
}

namespace {

void EscapeInto(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << raw;
        }
    }
  }
  os << '"';
}

}  // namespace

char* WriteJsonDouble(char* out, double value) {
  char* const last = out + kJsonDoubleMaxChars;
  if (!std::isfinite(value)) {
    // JSON has no NaN/Inf; export as null.
    std::memcpy(out, "null", 4);
    return out + 4;
  }
  // Doubles keep a fractional/exponent marker so the int/double
  // distinction survives a round-trip.
  if (std::floor(value) == value && std::abs(value) < 1e15) {
    out = std::to_chars(out, last, static_cast<std::int64_t>(value)).ptr;
    std::memcpy(out, ".0", 2);
    return out + 2;
  }
  // Formats exactly as printf's "%.17g".
  return std::to_chars(out, last, value, std::chars_format::general, 17).ptr;
}

namespace {

struct DumpContext {
  int indent;
  void NewlineIndent(std::ostringstream& os, int depth) const {
    if (indent < 0) return;
    os << '\n' << std::string(static_cast<std::size_t>(indent * depth), ' ');
  }
};

void DumpValue(const Json& value, std::ostringstream& os,
               const DumpContext& ctx, int depth);

void DumpArray(const JsonArray& array, std::ostringstream& os,
               const DumpContext& ctx, int depth) {
  if (array.empty()) {
    os << "[]";
    return;
  }
  os << '[';
  bool first = true;
  for (const auto& element : array) {
    if (!first) os << ',';
    first = false;
    ctx.NewlineIndent(os, depth + 1);
    DumpValue(element, os, ctx, depth + 1);
  }
  ctx.NewlineIndent(os, depth);
  os << ']';
}

void DumpObject(const JsonObject& object, std::ostringstream& os,
                const DumpContext& ctx, int depth) {
  if (object.empty()) {
    os << "{}";
    return;
  }
  os << '{';
  bool first = true;
  for (const auto& [key, element] : object) {
    if (!first) os << ',';
    first = false;
    ctx.NewlineIndent(os, depth + 1);
    EscapeInto(os, key);
    os << (ctx.indent < 0 ? ":" : ": ");
    DumpValue(element, os, ctx, depth + 1);
  }
  ctx.NewlineIndent(os, depth);
  os << '}';
}

void DumpValue(const Json& value, std::ostringstream& os,
               const DumpContext& ctx, int depth) {
  if (value.IsNull()) {
    os << "null";
  } else if (value.IsBool()) {
    os << (value.AsBool() ? "true" : "false");
  } else if (value.IsInt()) {
    os << value.AsInt();
  } else if (value.IsNumber()) {
    char buf[kJsonDoubleMaxChars];
    os.write(buf, WriteJsonDouble(buf, value.AsDouble()) - buf);
  } else if (value.IsString()) {
    EscapeInto(os, value.AsString());
  } else if (value.IsArray()) {
    DumpArray(value.AsArray(), os, ctx, depth);
  } else {
    DumpObject(value.AsObject(), os, ctx, depth);
  }
}

}  // namespace

std::string Json::Dump(int indent) const {
  std::ostringstream os;
  DumpValue(*this, os, DumpContext{indent}, 0);
  return os.str();
}

// ---------------------------------------------------------------- parsing

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json ParseDocument() {
    Json value = ParseValue();
    SkipWhitespace();
    Require(pos_ == text_.size(), "trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& message) const {
    throw CheckError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + message);
  }

  void Require(bool condition, const char* message) const {
    if (!condition) Fail(message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    Require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Expect(char c) {
    Require(pos_ < text_.size() && text_[pos_] == c, "unexpected character");
    ++pos_;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json ParseValue() {
    SkipWhitespace();
    const char c = Peek();
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return Json(ParseString());
    if (ConsumeLiteral("null")) return Json();
    if (ConsumeLiteral("true")) return Json(true);
    if (ConsumeLiteral("false")) return Json(false);
    return ParseNumber();
  }

  Json ParseObject() {
    Expect('{');
    JsonObject object;
    SkipWhitespace();
    if (Consume('}')) return Json(std::move(object));
    for (;;) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      object.emplace_back(std::move(key), ParseValue());
      SkipWhitespace();
      if (Consume(',')) continue;
      Expect('}');
      return Json(std::move(object));
    }
  }

  Json ParseArray() {
    Expect('[');
    JsonArray array;
    SkipWhitespace();
    if (Consume(']')) return Json(std::move(array));
    for (;;) {
      array.push_back(ParseValue());
      SkipWhitespace();
      if (Consume(',')) continue;
      Expect(']');
      return Json(std::move(array));
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    for (;;) {
      Require(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      Require(pos_ < text_.size(), "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          Require(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else Fail("invalid \\u escape");
          }
          // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
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
          Fail("invalid escape character");
      }
    }
  }

  Json ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    Require(pos_ > start, "expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    const bool integral =
        token.find_first_of(".eE") == std::string::npos;
    try {
      if (integral) return Json(static_cast<std::int64_t>(std::stoll(token)));
      return Json(std::stod(token));
    } catch (const std::exception&) {
      Fail("malformed number '" + token + "'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace hypertune
