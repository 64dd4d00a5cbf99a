#ifndef MTDB_COMMON_VALUE_H_
#define MTDB_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace mtdb {

/// A dynamically-typed SQL value. NULL is represented by type() ==
/// the declared column type with is_null() true (or TypeId::kNull for an
/// untyped NULL literal).
class Value {
 public:
  /// Untyped SQL NULL.
  Value() : type_(TypeId::kNull), null_(true) {}

  static Value Null(TypeId type = TypeId::kNull) {
    Value v;
    v.type_ = type;
    return v;
  }
  static Value Bool(bool b) { return Value(TypeId::kBool, int64_t{b}); }
  static Value Int32(int32_t i) { return Value(TypeId::kInt32, int64_t{i}); }
  static Value Int64(int64_t i) { return Value(TypeId::kInt64, i); }
  static Value Double(double d) { return Value(TypeId::kDouble, d); }
  /// DATE as days since 1970-01-01.
  static Value Date(int32_t days) { return Value(TypeId::kDate, int64_t{days}); }
  static Value String(std::string s) { return Value(TypeId::kString, std::move(s)); }

  TypeId type() const { return type_; }
  bool is_null() const { return null_; }

  bool AsBool() const { return std::get<int64_t>(data_) != 0; }
  int32_t AsInt32() const { return static_cast<int32_t>(std::get<int64_t>(data_)); }
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDouble() const {
    if (std::holds_alternative<double>(data_)) return std::get<double>(data_);
    return static_cast<double>(std::get<int64_t>(data_));
  }
  int32_t AsDate() const { return static_cast<int32_t>(std::get<int64_t>(data_)); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// SQL literal rendering ('quoted' strings, NULL, etc.); a DOUBLE
  /// renders so that it parses back to exactly the same value.
  std::string ToSqlLiteral() const;
  /// Unquoted display rendering.
  std::string ToString() const;

  /// Casts this value to `target`, converting representations (e.g. the
  /// paper's generic VARCHAR data columns require string<->native casts).
  Result<Value> CastTo(TypeId target) const;

  /// Three-way comparison. NULLs sort first; values of numeric types
  /// compare numerically across int/double. Comparing a string with a
  /// number compares the string form.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }

  size_t Hash() const;

 private:
  Value(TypeId t, int64_t i) : type_(t), null_(false), data_(i) {}
  Value(TypeId t, double d) : type_(t), null_(false), data_(d) {}
  Value(TypeId t, std::string s) : type_(t), null_(false), data_(std::move(s)) {}

  TypeId type_;
  bool null_;
  std::variant<int64_t, double, std::string> data_{int64_t{0}};
};

using Row = std::vector<Value>;

/// Renders a row as "(v1, v2, ...)" for debugging and examples.
std::string RowToString(const Row& row);

}  // namespace mtdb

#endif  // MTDB_COMMON_VALUE_H_
