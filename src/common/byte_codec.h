#ifndef MTDB_COMMON_BYTE_CODEC_H_
#define MTDB_COMMON_BYTE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace mtdb {

// Fixed-width host-order encoders and a bounds-checked decoder, shared by
// every binary record the engine writes: WAL groups, checkpoint meta,
// catalog snapshots and transaction undo records. Integrity is the
// carrier's business (frame and meta checksums), not the codec's.

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
inline void PutU16(std::string* out, uint16_t v) {
  out->append(reinterpret_cast<const char*>(&v), 2);
}
inline void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
inline void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}
inline void PutI32(std::string* out, int32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
/// `s` prefixed with its u32 length.
inline void PutBytes(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Reads what the Put* helpers wrote. Every read returns false, and
/// consumes nothing, when the bytes left are too few.
class ByteCursor {
 public:
  ByteCursor(const char* data, size_t len) : data_(data), len_(len) {}
  explicit ByteCursor(std::string_view s) : ByteCursor(s.data(), s.size()) {}

  bool U8(uint8_t* v) { return Raw(v, 1); }
  bool U16(uint16_t* v) { return Raw(v, 2); }
  bool U32(uint32_t* v) { return Raw(v, 4); }
  bool U64(uint64_t* v) { return Raw(v, 8); }
  bool I32(int32_t* v) { return Raw(v, 4); }
  /// A PutBytes field, as a view into the decoded buffer or as a copy.
  bool Bytes(std::string_view* out) {
    const size_t at = pos_;
    uint32_t n = 0;
    if (U32(&n) && Take(out, n)) return true;
    pos_ = at;
    return false;
  }
  bool Bytes(std::string* out) {
    std::string_view view;
    if (!Bytes(&view)) return false;
    out->assign(view);
    return true;
  }
  /// Exactly `n` bytes, as a view or as a copy (for fields whose length
  /// is stored elsewhere or wider than u32).
  bool Take(std::string_view* out, size_t n) {
    if (len_ - pos_ < n) return false;
    *out = std::string_view(data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool Take(std::string* out, size_t n) {
    std::string_view view;
    if (!Take(&view, n)) return false;
    out->assign(view);
    return true;
  }
  bool AtEnd() const { return pos_ == len_; }

 private:
  bool Raw(void* v, size_t n) {
    if (len_ - pos_ < n) return false;
    std::memcpy(v, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const char* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace mtdb

#endif  // MTDB_COMMON_BYTE_CODEC_H_
