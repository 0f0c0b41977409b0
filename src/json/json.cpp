#include "json/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <system_error>

#include "common/strings.h"
#include "common/transient_error.h"

namespace pim::json {

namespace {
[[noreturn]] void type_error(const char* want, Type got) {
  static const char* names[] = {"null", "bool", "int", "double", "string", "array", "object"};
  throw Error(std::string("json: expected ") + want + ", got " + names[static_cast<int>(got)]);
}
}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

int64_t Value::as_int() const {
  if (type_ == Type::Int) return int_;
  if (type_ == Type::Double) {
    if (std::nearbyint(double_) != double_) throw Error("json: non-integral number where int expected");
    return static_cast<int64_t>(double_);
  }
  type_error("int", type_);
}

double Value::as_double() const {
  if (!is_number()) type_error("number", type_);
  return double_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return string_;
}

const Array& Value::as_array() const {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

const Object& Value::as_object() const {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

Array& Value::as_array() {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

Object& Value::as_object() {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

const Value& Value::at(std::string_view key) const {
  const Object& obj = as_object();
  auto it = obj.find(std::string(key));
  if (it == obj.end()) throw Error("json: missing key '" + std::string(key) + "'");
  return it->second;
}

bool Value::contains(std::string_view key) const {
  return type_ == Type::Object && object_.count(std::string(key)) > 0;
}

bool Value::get_or(std::string_view key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}
int64_t Value::get_or(std::string_view key, int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}
double Value::get_or(std::string_view key, double fallback) const {
  return contains(key) ? at(key).as_double() : fallback;
}
std::string Value::get_or(std::string_view key, const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

Value& Value::operator[](const std::string& key) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) type_error("object", type_);
  return object_[key];
}

const Value& Value::at(size_t index) const {
  const Array& arr = as_array();
  if (index >= arr.size()) throw Error("json: array index out of range");
  return arr[index];
}

size_t Value::size() const {
  if (type_ == Type::Array) return array_.size();
  if (type_ == Type::Object) return object_.size();
  type_error("array or object", type_);
}

bool Value::operator==(const Value& other) const {
  if (is_number() && other.is_number()) return as_double() == other.as_double();
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Int: return int_ == other.int_;
    case Type::Double: return double_ == other.double_;
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: return object_ == other.object_;
  }
  return false;
}

// ---------------------------------------------------------------- serializer

namespace {
void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<size_t>(indent) * depth, ' ');
}
}  // namespace

void Value::dump_impl(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Int: out += std::to_string(int_); break;
    case Type::Double: {
      if (std::isfinite(double_)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", double_);
        out += buf;
      } else {
        out += "null";  // JSON has no inf/nan
      }
      break;
    }
    case Type::String: dump_string(out, string_); break;
    case Type::Array: {
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        newline_indent(out, indent, depth + 1);
        array_[i].dump_impl(out, indent, depth + 1);
      }
      if (!array_.empty()) newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::Object: {
      out += '{';
      size_t i = 0;
      for (const auto& [k, v] : object_) {
        if (i++) out += ',';
        newline_indent(out, indent, depth + 1);
        dump_string(out, k);
        out += indent < 0 ? ":" : ": ";
        v.dump_impl(out, indent, depth + 1);
      }
      if (!object_.empty()) newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

// ------------------------------------------------------------------- parser

namespace {
class Parser {
 public:
  /// Containers may nest at most this deep. The recursive-descent parser
  /// spends one host stack frame per level, so an unbounded document (the
  /// parser also reads socket input — see pim::serve) could overflow the
  /// stack; 256 is far beyond any real config while keeping worst-case stack
  /// use trivial.
  static constexpr int kMaxDepth = 256;

  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    size_t line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error("json parse error at line " + std::to_string(line) + ", col " +
                std::to_string(col) + ": " + msg);
  }

  char peek() { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char get() { return pos_ < text_.size() ? text_[pos_++] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (get() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Value parse_value(int depth) {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{':
      case '[':
        if (depth >= kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        return c == '{' ? parse_object(depth) : parse_array(depth);
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      get();
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (peek() == '}') {  // trailing comma
        get();
        return Value(std::move(obj));
      }
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value(depth + 1);
      skip_ws();
      char c = get();
      if (c == '}') return Value(std::move(obj));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array(int depth) {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      get();
      return Value(std::move(arr));
    }
    while (true) {
      skip_ws();
      if (peek() == ']') {  // trailing comma
        get();
        return Value(std::move(arr));
      }
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      char c = get();
      if (c == ']') return Value(std::move(arr));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    skip_ws();
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = get();
      if (c == '"') return out;
      if (c == '\\') {
        char esc = get();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = parse_hex4();
            // Surrogates are only meaningful as a \uD8xx\uDCxx pair naming an
            // astral code point; a lone half is not a code point at all, and
            // encoding it would emit invalid UTF-8 (the original sin this
            // replaces). Reject unpaired halves with a precise message.
            if (code >= 0xDC00 && code <= 0xDFFF) {
              fail("unpaired low surrogate in \\u escape");
            }
            if (code >= 0xD800 && code <= 0xDBFF) {
              if (get() != '\\' || get() != 'u') {
                fail("high surrogate must be followed by a \\u low surrogate");
              }
              const unsigned lo = parse_hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) {
                fail("high surrogate must be followed by a low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
            }
            // Encode the code point as UTF-8 (1-4 bytes).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else if (code < 0x10000) {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xF0 | (code >> 18));
              out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = get();
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("bad \\u escape");
    }
    return code;
  }

  Value parse_number() {
    skip_ws();
    size_t start = pos_;
    if (peek() == '-' || peek() == '+') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    try {
      if (!is_double) return Value(static_cast<int64_t>(std::stoll(token)));
      return Value(std::stod(token));
    } catch (const std::exception&) {
      fail("invalid number '" + token + "'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};
}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  // stdio, not a stream: POSIX sets errno when fopen fails.
  auto close = [](std::FILE* file) { std::fclose(file); };
  std::unique_ptr<std::FILE, decltype(close)> f(std::fopen(path.c_str(), "rb"), close);
  if (f == nullptr) {
    const int err = errno;
    const std::string what =
        "json: cannot open file '" + path + "': " + std::generic_category().message(err);
    if (retryable_errno(err)) throw TransientError(what, err);
    throw Error(what);
  }
  std::string text;
  char buf[1 << 16];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, f.get())) > 0;) text.append(buf, n);
  if (std::ferror(f.get())) throw Error("json: cannot read file '" + path + "'");
  return parse(text);
}

void write_file(const std::string& path, const Value& value, int indent) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("json: cannot write file '" + path + "'");
  out << value.dump(indent) << '\n';
}

}  // namespace pim::json
