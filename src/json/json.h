// Minimal, zero-dependency JSON value / parser / writer.
//
// Used for the architecture configuration file, the network description file
// (our ONNX-equivalent container), and report dumps. Supports the full JSON
// grammar plus two conveniences commonly needed in hand-written configs:
//   * `//` line comments
//   * trailing commas in arrays and objects
//
// Numbers are stored as double plus an exact int64 when representable, so
// `v.as_int()` round-trips integer configuration values exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pim::json {

class Value;
using Array = std::vector<Value>;
/// std::map keeps keys ordered -> deterministic serialization.
using Object = std::map<std::string, Value>;

/// Error thrown on parse failures and type mismatches.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

enum class Type { Null, Bool, Int, Double, String, Array, Object };

/// A JSON document node. Value-semantic; cheap to move.
class Value {
 public:
  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(int i) : type_(Type::Int), int_(i), double_(static_cast<double>(i)) {}
  Value(int64_t i) : type_(Type::Int), int_(i), double_(static_cast<double>(i)) {}
  Value(uint64_t i) : Value(static_cast<int64_t>(i)) {}
  Value(uint32_t i) : Value(static_cast<int64_t>(i)) {}
  Value(uint16_t i) : Value(static_cast<int64_t>(i)) {}
  Value(uint8_t i) : Value(static_cast<int64_t>(i)) {}
  Value(double d) : type_(Type::Double), double_(d) {}
  Value(const char* s) : type_(Type::String), string_(s) {}
  Value(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Value(Array a) : type_(Type::Array), array_(std::move(a)) {}
  Value(Object o) : type_(Type::Object), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Int || type_ == Type::Double; }
  bool is_int() const { return type_ == Type::Int; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const;
  int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object member access; throws Error if not an object / key missing.
  const Value& at(std::string_view key) const;
  /// True if this is an object containing `key`.
  bool contains(std::string_view key) const;

  /// Object member access with default for missing keys.
  bool get_or(std::string_view key, bool fallback) const;
  int64_t get_or(std::string_view key, int64_t fallback) const;
  int64_t get_or(std::string_view key, int fallback) const { return get_or(key, static_cast<int64_t>(fallback)); }
  uint32_t get_or(std::string_view key, uint32_t fallback) const {
    return static_cast<uint32_t>(get_or(key, static_cast<int64_t>(fallback)));
  }
  uint64_t get_or(std::string_view key, uint64_t fallback) const {
    return static_cast<uint64_t>(get_or(key, static_cast<int64_t>(fallback)));
  }
  double get_or(std::string_view key, double fallback) const;
  std::string get_or(std::string_view key, const std::string& fallback) const;
  std::string get_or(std::string_view key, const char* fallback) const { return get_or(key, std::string(fallback)); }

  /// Mutable object insertion: v["key"] = ...; converts Null -> Object.
  Value& operator[](const std::string& key);

  /// Array element access; throws Error on type/bounds violation.
  const Value& at(size_t index) const;
  size_t size() const;

  /// Serialize. indent < 0 -> compact single line.
  std::string dump(int indent = -1) const;

  bool operator==(const Value& other) const;

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parse a JSON document; throws Error with line/column info on failure.
Value parse(std::string_view text);

/// Parse the file at `path`; throws Error on parse and I/O failures, except
/// an open that failed with a retryable errno (pim::retryable_errno: a
/// vanished file, an NFS blip), which throws pim::TransientError.
Value parse_file(const std::string& path);

/// Write `value` to `path` (pretty-printed); throws Error on I/O failure.
void write_file(const std::string& path, const Value& value, int indent = 2);

}  // namespace pim::json
