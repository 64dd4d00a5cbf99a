#ifndef MTDB_COMMON_KEY_ENCODING_H_
#define MTDB_COMMON_KEY_ENCODING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace mtdb {

/// Order-preserving ("memcomparable") encoding for composite B+Tree keys.
///
/// Each value is encoded with a one-byte tag (NULL sorts lowest) followed
/// by a payload whose raw byte order matches the value order:
///   * integers/dates: big-endian with the sign bit flipped,
///   * doubles: IEEE bits, sign-flipped for negatives,
///   * strings: bytes with 0x00 escaped as 0x00 0xFF, terminated 0x00 0x00,
///     so that prefixes sort before extensions and components never bleed
///     into one another.
///
/// A composite key is simply the concatenation of its encoded components,
/// which is what makes the (Tenant, Table, Chunk, Row) indexes of the
/// paper behave as partitioned B-Trees: the leading components partition
/// the key space into contiguous runs.
class KeyEncoder {
 public:
  /// Appends the encoding of `v` to `out`.
  static void Encode(const Value& v, std::string* out);

  /// Encodes a full composite key.
  static std::string EncodeKey(const std::vector<Value>& values);

  /// Encodes a key prefix and returns [lo, hi) bounds such that every
  /// composite key starting with this prefix satisfies lo <= key < hi.
  static void EncodePrefixRange(const std::vector<Value>& prefix,
                                std::string* lo, std::string* hi);

  /// The exclusive upper bound `hi` of EncodePrefixRange for an already
  /// encoded prefix `lo`.
  static std::string PrefixUpperBound(const std::string& lo);
};

}  // namespace mtdb

#endif  // MTDB_COMMON_KEY_ENCODING_H_
