#include "common/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace mtdb {

namespace {

bool IsNumeric(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt32 || t == TypeId::kInt64 ||
         t == TypeId::kDouble || t == TypeId::kDate;
}

std::string DateToString(int32_t days) {
  // Civil-from-days algorithm (Howard Hinnant), valid for all int32 days.
  int64_t z = days + 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  int64_t doe = z - era * 146097;
  int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = yoe + era * 400;
  int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  int64_t mp = (5 * doy + 2) / 153;
  int64_t d = doy - (153 * mp + 2) / 5 + 1;
  int64_t m = mp < 10 ? mp + 3 : mp - 9;
  if (m <= 2) y += 1;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04lld-%02lld-%02lld",
                static_cast<long long>(y), static_cast<long long>(m),
                static_cast<long long>(d));
  return buf;
}

int32_t DaysFromCivil(int64_t y, int64_t m, int64_t d) {
  // Inverse of DateToString's civil-from-days (Howard Hinnant).
  y -= m <= 2;
  int64_t era = (y >= 0 ? y : y - 399) / 400;
  int64_t yoe = y - era * 400;
  int64_t doy = (153 * (m > 2 ? m - 3 : m + 9) + 2) / 5 + d - 1;
  int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int32_t>(era * 146097 + doe - 719468);
}

}  // namespace

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return AsBool() ? "true" : "false";
    case TypeId::kInt32:
    case TypeId::kInt64:
      return std::to_string(AsInt64());
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case TypeId::kDate:
      return DateToString(AsDate());
    case TypeId::kString:
      return AsString();
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  if (null_) return "NULL";
  if (type_ == TypeId::kString || type_ == TypeId::kDate) {
    std::string out = "'";
    for (char c : ToString()) {
      if (c == '\'') out += "''";
      else out += c;
    }
    out += "'";
    return out;
  }
  if (type_ == TypeId::kDouble && std::isfinite(AsDouble())) {
    // The shortest fixed-point text that parses back to the same double:
    // printed statements (EXPLAIN MAPPING) run again as written, and the
    // lexer reads no exponent. A trailing ".0" keeps an integral value a
    // DOUBLE literal (and out of the integer parser's range limits).
    char buf[400];  // the longest fixed-point double is ~330 characters
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), AsDouble(),
                                   std::chars_format::fixed);
    if (ec == std::errc()) {
      std::string out(buf, end);
      if (out.find('.') == std::string::npos) out += ".0";
      return out;
    }
  }
  return ToString();
}

Result<Value> Value::CastTo(TypeId target) const {
  if (null_) return Value::Null(target);
  if (type_ == target) return *this;
  switch (target) {
    case TypeId::kBool:
      if (IsNumeric(type_)) return Value::Bool(AsDouble() != 0.0);
      if (type_ == TypeId::kString) {
        // Inverse of ToString's "true"/"false"; digits also accepted.
        const std::string& s = AsString();
        if (s == "true" || s == "1") return Value::Bool(true);
        if (s == "false" || s == "0") return Value::Bool(false);
      }
      break;
    case TypeId::kInt32:
      if (IsNumeric(type_)) return Value::Int32(static_cast<int32_t>(
          std::holds_alternative<double>(data_) ? AsDouble() : AsInt64()));
      if (type_ == TypeId::kString) {
        return Value::Int32(static_cast<int32_t>(std::atoll(AsString().c_str())));
      }
      break;
    case TypeId::kInt64:
      if (IsNumeric(type_)) return Value::Int64(
          std::holds_alternative<double>(data_)
              ? static_cast<int64_t>(AsDouble())
              : AsInt64());
      if (type_ == TypeId::kString) {
        return Value::Int64(std::atoll(AsString().c_str()));
      }
      break;
    case TypeId::kDouble:
      if (IsNumeric(type_)) return Value::Double(AsDouble());
      if (type_ == TypeId::kString) {
        return Value::Double(std::atof(AsString().c_str()));
      }
      break;
    case TypeId::kDate:
      if (IsNumeric(type_)) return Value::Date(static_cast<int32_t>(AsInt64()));
      if (type_ == TypeId::kString) {
        // The generic VARCHAR slots store dates in ToString's
        // "YYYY-MM-DD" form; a bare integer is taken as a day count.
        int y = 0, m = 0, d = 0;
        if (std::sscanf(AsString().c_str(), "%d-%d-%d", &y, &m, &d) == 3 &&
            m >= 1 && m <= 12 && d >= 1 && d <= 31) {
          return Value::Date(DaysFromCivil(y, m, d));
        }
        char* end = nullptr;
        long long days = std::strtoll(AsString().c_str(), &end, 10);
        if (end != AsString().c_str() && *end == '\0') {
          return Value::Date(static_cast<int32_t>(days));
        }
      }
      break;
    case TypeId::kString:
      if (type_ == TypeId::kDouble) {
        // A DOUBLE stored in a VARCHAR slot (Universal, Chunk Table) must
        // read back bit for bit, so store the shortest text that the
        // atof above parses back to the same double (exponents
        // included). ToString's %g keeps six digits: display only.
        char buf[32];
        auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), AsDouble());
        if (ec == std::errc()) return Value::String(std::string(buf, end));
      }
      return Value::String(ToString());
    case TypeId::kNull:
      break;
  }
  return Status::TypeMismatch(std::string("cannot cast ") + TypeName(type_) +
                              " to " + TypeName(target));
}

int Value::Compare(const Value& other) const {
  if (null_ || other.null_) {
    if (null_ && other.null_) return 0;
    return null_ ? -1 : 1;
  }
  const bool lnum = IsNumeric(type_);
  const bool rnum = IsNumeric(other.type_);
  if (lnum && rnum) {
    const bool ld = std::holds_alternative<double>(data_);
    const bool rd = std::holds_alternative<double>(other.data_);
    if (!ld && !rd) {
      int64_t a = AsInt64(), b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble(), b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  // At least one side is a string: compare textual forms.
  const std::string a = lnum ? ToString() : AsString();
  const std::string b = rnum ? other.ToString() : other.AsString();
  return a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
}

size_t Value::Hash() const {
  if (null_) return 0x9e3779b97f4a7c15ULL;
  if (std::holds_alternative<std::string>(data_)) {
    return std::hash<std::string>{}(std::get<std::string>(data_));
  }
  if (std::holds_alternative<double>(data_)) {
    double d = std::get<double>(data_);
    // Hash integral doubles like the equivalent int64 so numeric
    // cross-type equality keeps hash consistency.
    if (d == static_cast<double>(static_cast<int64_t>(d))) {
      return std::hash<int64_t>{}(static_cast<int64_t>(d));
    }
    return std::hash<double>{}(d);
  }
  return std::hash<int64_t>{}(std::get<int64_t>(data_));
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace mtdb
