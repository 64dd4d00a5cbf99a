#include "common/key_encoding.h"

#include <cstring>

namespace mtdb {

namespace {

constexpr char kTagNull = 0x01;
constexpr char kTagNumeric = 0x02;
constexpr char kTagString = 0x03;

void AppendBigEndian64(uint64_t bits, std::string* out) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((bits >> shift) & 0xFF));
  }
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  // Total order on doubles: flip sign bit for positives, all bits for
  // negatives.
  if (bits & (1ULL << 63)) return ~bits;
  return bits | (1ULL << 63);
}

}  // namespace

void KeyEncoder::Encode(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->push_back(kTagNull);
    return;
  }
  switch (v.type()) {
    case TypeId::kBool:
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate: {
      out->push_back(kTagNumeric);
      uint64_t bits = static_cast<uint64_t>(v.AsInt64()) ^ (1ULL << 63);
      AppendBigEndian64(bits, out);
      return;
    }
    case TypeId::kDouble: {
      out->push_back(kTagNumeric);
      // Integral doubles must encode identically to equal integers so
      // mixed-type equality predicates hit the same index entries.
      double d = v.AsDouble();
      int64_t as_int = static_cast<int64_t>(d);
      if (d == static_cast<double>(as_int)) {
        AppendBigEndian64(static_cast<uint64_t>(as_int) ^ (1ULL << 63), out);
      } else {
        // Non-integral doubles use a distinct total-order encoding; they
        // interleave correctly with integers only within double range,
        // which suffices for the engine's index predicates.
        AppendBigEndian64(DoubleBits(d), out);
      }
      return;
    }
    case TypeId::kString: {
      out->push_back(kTagString);
      for (char c : v.AsString()) {
        if (c == '\0') {
          out->push_back('\0');
          out->push_back('\xFF');
        } else {
          out->push_back(c);
        }
      }
      out->push_back('\0');
      out->push_back('\0');
      return;
    }
    case TypeId::kNull:
      out->push_back(kTagNull);
      return;
  }
}

std::string KeyEncoder::EncodeKey(const std::vector<Value>& values) {
  std::string out;
  out.reserve(values.size() * 10);
  for (const Value& v : values) Encode(v, &out);
  return out;
}

void KeyEncoder::EncodePrefixRange(const std::vector<Value>& prefix,
                                   std::string* lo, std::string* hi) {
  *lo = EncodeKey(prefix);
  *hi = PrefixUpperBound(*lo);
}

std::string KeyEncoder::PrefixUpperBound(const std::string& lo) {
  // The prefix followed by the maximal byte suffix. Since no encoded
  // component starts with 0xFF (tags are 0x01..0x03), appending 0xFF
  // yields a string greater than every extension of the prefix.
  std::string hi = lo;
  hi.push_back('\xFF');
  return hi;
}

}  // namespace mtdb
