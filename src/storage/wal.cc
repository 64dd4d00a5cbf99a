#include "storage/wal.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace mtdb {

namespace fs = std::filesystem;

namespace {

// Frame layout: magic u32 | lsn u64 | type u8 | pad u8[3] | payload_len
// u32 | checksum u64, followed by payload_len payload bytes. The
// checksum covers the header (with the checksum field zeroed) plus the
// payload, so a tear anywhere in the frame is detected. The magic is the
// format version: "MWL2" frames carry delta groups; "MWAL" frames (full
// page images, checksummed from a mistyped FNV basis) are only
// recognised so recovery can refuse them.
constexpr uint32_t kFrameMagic = 0x4D574C32u;        // "MWL2"
constexpr uint32_t kLegacyFrameMagic = 0x4D57414Cu;  // "MWAL"
constexpr uint64_t kLegacyChecksumSeed = 1469598103934665603ull;
constexpr size_t kFrameHeaderSize = kWalFrameHeaderSize;
constexpr size_t kChecksumOffset = 4 + 8 + 1 + 3 + 4;

constexpr uint64_t kFnvPrime = 1099511628211ull;

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}
void PutI32(std::string* out, int32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutBytes(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked little cursor over a decoded payload.
class Cursor {
 public:
  explicit Cursor(const std::string& data) : data_(data) {}

  bool ReadU32(uint32_t* v) { return ReadRaw(v, 4); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, 8); }
  bool ReadI32(int32_t* v) { return ReadRaw(v, 4); }
  bool ReadU8(uint8_t* v) { return ReadRaw(v, 1); }
  bool ReadBytes(std::string* s) {
    uint32_t len;
    if (!ReadU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool ReadRaw(void* out, size_t n) {
    if (pos_ + n > data_.size()) return false;
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const std::string& data_;
  size_t pos_ = 0;
};

/// The frame header for `payload`, checksum filled in. Appends write it
/// and the payload back to back, so the payload is never copied.
std::array<char, kFrameHeaderSize> FrameHeader(uint64_t lsn,
                                               WalRecordType type,
                                               const std::string& payload) {
  std::array<char, kFrameHeaderSize> header{};
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(header.data(), &kFrameMagic, 4);
  std::memcpy(header.data() + 4, &lsn, 8);
  header[12] = static_cast<char>(type);
  std::memcpy(header.data() + 16, &len, 4);
  uint64_t sum = WalChecksum(header.data(), header.size(), kFnv1aBasis);
  sum = WalChecksum(payload.data(), payload.size(), sum);
  std::memcpy(header.data() + kChecksumOffset, &sum, 8);
  return header;
}

Status StatusFromErrno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Strictly matches the writer's "seg-%08u.wal" names. sscanf alone
/// returns 1 without checking the suffix, which would let stray files
/// ("seg-00000001.wal.tmp", editor droppings) be read, truncated, or
/// deleted as segments.
bool ParseSegmentName(const std::string& name, uint32_t* index) {
  constexpr size_t kSegmentNameLen = 16;  // strlen("seg-00000000.wal")
  unsigned idx = 0;
  int consumed = -1;
  if (name.size() != kSegmentNameLen ||
      std::sscanf(name.c_str(), "seg-%8u.wal%n", &idx, &consumed) != 1 ||
      static_cast<size_t>(consumed) != name.size()) {
    return false;
  }
  *index = idx;
  return true;
}

}  // namespace

uint64_t WalChecksum(const char* data, size_t len, uint64_t seed) {
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * kFnvPrime;
  }
  return h;
}

// ---------------------------------------------------------- page deltas

namespace {

enum class DeltaOp : uint8_t { kSet = 1, kMove = 2 };

/// Equal bytes that end a changed span: a set op costs 5 bytes of
/// framing, so shorter equal gaps are cheaper to re-send than to split.
constexpr size_t kDeltaGap = 16;
/// A move op (7 bytes) replaces a run of at least this many set bytes.
constexpr size_t kMinMoveRun = 24;
/// Largest shift searched for: a few B-tree entries (12 bytes each).
constexpr size_t kMaxShift = 64;

void PutU16(std::string* out, size_t v) {
  const uint16_t u = static_cast<uint16_t>(v);
  out->append(reinterpret_cast<const char*>(&u), 2);
}

/// Builds EncodePageDelta's op list. Moves read the before-image, so the
/// encoder keeps each move's source inside a window no other op writes
/// before it runs: a span's source window stops at the neighbouring
/// spans, and a move found inside a span is emitted before the ops that
/// rewrite the rest of that span, whose window excludes the move's
/// destination.
class DeltaEncoder {
 public:
  DeltaEncoder(const char* before, const char* after)
      : before_(before), after_(after) {}

  /// Encodes every difference in [lo, hi); moves may read [win_lo, win_hi).
  void Encode(size_t lo, size_t hi, size_t win_lo, size_t win_hi) {
    std::vector<std::pair<size_t, size_t>> spans;
    for (size_t pos = FirstDiff(lo, hi); pos < hi;) {
      size_t end = pos + 1;
      for (size_t next = FirstDiff(end, std::min(hi, end + kDeltaGap));
           next < std::min(hi, end + kDeltaGap);
           next = FirstDiff(end, std::min(hi, end + kDeltaGap))) {
        end = next + 1;
      }
      spans.emplace_back(pos, end);
      pos = FirstDiff(end, hi);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const size_t wl = i == 0 ? win_lo : spans[i - 1].second;
      const size_t wh = i + 1 == spans.size() ? win_hi : spans[i + 1].first;
      EncodeSpan(spans[i].first, spans[i].second, wl, wh);
    }
  }

  std::string Finish() { return moves_ + sets_; }

 private:
  size_t FirstDiff(size_t from, size_t to) const {
    while (from + 8 <= to) {
      uint64_t a, b;
      std::memcpy(&a, before_ + from, 8);
      std::memcpy(&b, after_ + from, 8);
      if (a != b) break;
      from += 8;
    }
    while (from < to && before_[from] == after_[from]) ++from;
    return from;
  }

  void EncodeSpan(size_t lo, size_t hi, size_t win_lo, size_t win_hi) {
    size_t best_run = 0, best_shift = 0;
    bool best_right = false;
    if (hi - lo >= kMinMoveRun) {
      for (size_t d = 1; d <= kMaxShift; ++d) {
        // Right shift (bytes opened up): after[x] == before[x - d],
        // anchored at the span's end.
        size_t x = hi;
        while (x > lo && x - 1 >= win_lo + d &&
               after_[x - 1] == before_[x - 1 - d]) {
          --x;
        }
        if (hi - x > best_run) {
          best_run = hi - x;
          best_shift = d;
          best_right = true;
        }
        // Left shift (bytes closed up): after[x] == before[x + d],
        // anchored at the span's start.
        x = lo;
        while (x < hi && x + d < win_hi && after_[x] == before_[x + d]) ++x;
        if (x - lo > best_run) {
          best_run = x - lo;
          best_shift = d;
          best_right = false;
        }
      }
    }
    if (best_run < kMinMoveRun) {
      sets_.push_back(static_cast<char>(DeltaOp::kSet));
      PutU16(&sets_, lo);
      PutU16(&sets_, hi - lo);
      sets_.append(after_ + lo, hi - lo);
      return;
    }
    const size_t dst = best_right ? hi - best_run : lo;
    const size_t src = best_right ? dst - best_shift : dst + best_shift;
    moves_.push_back(static_cast<char>(DeltaOp::kMove));
    PutU16(&moves_, dst);
    PutU16(&moves_, src);
    PutU16(&moves_, best_run);
    if (best_right) {
      Encode(lo, dst, win_lo, dst);
    } else {
      Encode(dst + best_run, hi, dst + best_run, win_hi);
    }
  }

  const char* before_;
  const char* after_;
  std::string moves_;
  std::string sets_;
};

}  // namespace

std::string EncodePageDelta(const char* before, const char* after,
                            size_t page_size) {
  DeltaEncoder encoder(before, after);
  encoder.Encode(0, page_size, 0, page_size);
  return encoder.Finish();
}

Status ApplyPageDelta(const std::string& ops, char* page, size_t page_size) {
  size_t pos = 0;
  auto read_u16 = [&](size_t* v) {
    if (ops.size() - pos < 2) return false;
    uint16_t u;
    std::memcpy(&u, ops.data() + pos, 2);
    pos += 2;
    *v = u;
    return true;
  };
  while (pos < ops.size()) {
    const auto op = static_cast<DeltaOp>(ops[pos++]);
    size_t dst = 0, len = 0, src = 0;
    if (op == DeltaOp::kSet) {
      if (!read_u16(&dst) || !read_u16(&len) || ops.size() - pos < len ||
          dst + len > page_size) {
        return Status::DataLoss("wal delta: malformed set");
      }
      std::memcpy(page + dst, ops.data() + pos, len);
      pos += len;
    } else if (op == DeltaOp::kMove) {
      if (!read_u16(&dst) || !read_u16(&src) || !read_u16(&len) ||
          dst + len > page_size || src + len > page_size) {
        return Status::DataLoss("wal delta: malformed move");
      }
      std::memmove(page + dst, page + src, len);
    } else {
      return Status::DataLoss("wal delta: unknown op");
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------- payloads

std::string EncodeWalGroup(const WalGroup& group) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(group.ops.size()));
  for (const WalPageOp& op : group.ops) {
    PutU8(&out, static_cast<uint8_t>(op.kind));
    PutI32(&out, op.page);
    PutU8(&out, static_cast<uint8_t>(op.type));
    PutU64(&out, op.seq);
  }
  PutU32(&out, static_cast<uint32_t>(group.images.size()));
  for (const WalPageImage& img : group.images) {
    PutI32(&out, img.page);
    PutU8(&out, static_cast<uint8_t>(img.type));
    PutBytes(&out, img.image);
  }
  PutU32(&out, static_cast<uint32_t>(group.deltas.size()));
  for (const WalPageDelta& delta : group.deltas) {
    PutI32(&out, delta.page);
    PutBytes(&out, delta.ops);
  }
  PutU32(&out, static_cast<uint32_t>(group.table_meta.size()));
  for (const WalTableMeta& meta : group.table_meta) {
    PutI32(&out, meta.table_id);
    PutI32(&out, meta.first_page);
    PutU32(&out, static_cast<uint32_t>(meta.index_roots.size()));
    for (const auto& [index_id, root] : meta.index_roots) {
      PutI32(&out, index_id);
      PutI32(&out, root);
    }
  }
  PutU8(&out, group.has_catalog_blob ? 1 : 0);
  if (group.has_catalog_blob) PutBytes(&out, group.catalog_blob);
  return out;
}

Result<WalGroup> DecodeWalGroup(const std::string& payload) {
  WalGroup group;
  Cursor cur(payload);
  uint32_t n_ops;
  if (!cur.ReadU32(&n_ops)) return Status::DataLoss("wal group: ops count");
  group.ops.reserve(n_ops);
  for (uint32_t i = 0; i < n_ops; ++i) {
    WalPageOp op;
    uint8_t kind, type;
    if (!cur.ReadU8(&kind) || !cur.ReadI32(&op.page) || !cur.ReadU8(&type) ||
        !cur.ReadU64(&op.seq)) {
      return Status::DataLoss("wal group: truncated op");
    }
    op.kind = static_cast<WalPageOp::Kind>(kind);
    op.type = static_cast<PageType>(type);
    group.ops.push_back(op);
  }
  uint32_t n_images;
  if (!cur.ReadU32(&n_images)) {
    return Status::DataLoss("wal group: image count");
  }
  group.images.reserve(n_images);
  for (uint32_t i = 0; i < n_images; ++i) {
    WalPageImage img;
    uint8_t type;
    if (!cur.ReadI32(&img.page) || !cur.ReadU8(&type) ||
        !cur.ReadBytes(&img.image)) {
      return Status::DataLoss("wal group: truncated image");
    }
    img.type = static_cast<PageType>(type);
    group.images.push_back(std::move(img));
  }
  uint32_t n_deltas;
  if (!cur.ReadU32(&n_deltas)) {
    return Status::DataLoss("wal group: delta count");
  }
  group.deltas.reserve(n_deltas);
  for (uint32_t i = 0; i < n_deltas; ++i) {
    WalPageDelta delta;
    if (!cur.ReadI32(&delta.page) || !cur.ReadBytes(&delta.ops)) {
      return Status::DataLoss("wal group: truncated delta");
    }
    group.deltas.push_back(std::move(delta));
  }
  uint32_t n_meta;
  if (!cur.ReadU32(&n_meta)) return Status::DataLoss("wal group: meta count");
  group.table_meta.reserve(n_meta);
  for (uint32_t i = 0; i < n_meta; ++i) {
    WalTableMeta meta;
    uint32_t n_roots;
    if (!cur.ReadI32(&meta.table_id) || !cur.ReadI32(&meta.first_page) ||
        !cur.ReadU32(&n_roots)) {
      return Status::DataLoss("wal group: truncated meta");
    }
    for (uint32_t r = 0; r < n_roots; ++r) {
      int32_t index_id;
      PageId root;
      if (!cur.ReadI32(&index_id) || !cur.ReadI32(&root)) {
        return Status::DataLoss("wal group: truncated index root");
      }
      meta.index_roots.emplace_back(index_id, root);
    }
    group.table_meta.push_back(std::move(meta));
  }
  uint8_t has_blob;
  if (!cur.ReadU8(&has_blob)) return Status::DataLoss("wal group: blob flag");
  group.has_catalog_blob = has_blob != 0;
  if (group.has_catalog_blob && !cur.ReadBytes(&group.catalog_blob)) {
    return Status::DataLoss("wal group: truncated catalog blob");
  }
  if (!cur.AtEnd()) return Status::DataLoss("wal group: trailing bytes");
  return group;
}

std::string EncodeWalTxn(const WalTxnRecord& rec) {
  std::string out;
  PutU64(&out, rec.txn_id);
  PutBytes(&out, rec.sql);
  return out;
}

Result<WalTxnRecord> DecodeWalTxn(const std::string& payload) {
  WalTxnRecord rec;
  Cursor cur(payload);
  if (!cur.ReadU64(&rec.txn_id) || !cur.ReadBytes(&rec.sql) || !cur.AtEnd()) {
    return Status::DataLoss("wal txn record: truncated");
  }
  return rec;
}

// -------------------------------------------------------------- writer

WalWriter::WalWriter(std::string dir, uint64_t segment_bytes)
    : dir_(std::move(dir)), segment_bytes_(segment_bytes) {}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

std::string WalWriter::SegmentPath(uint32_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08u.wal", index);
  return dir_ + "/" + name;
}

Status WalWriter::Open() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return Status::IOError("mkdir " + dir_ + ": " + ec.message());
  uint32_t next = 0;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint32_t idx;
    if (ParseSegmentName(entry.path().filename().string(), &idx)) {
      if (idx + 1 > next) next = idx + 1;
    }
  }
  return OpenSegment(next);
}

Status WalWriter::OpenSegment(uint32_t index) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  const std::string path = SegmentPath(index);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return StatusFromErrno("open " + path);
  segment_index_ = index;
  segment_written_ = 0;
  return Status::OK();
}

Status WalWriter::RotateIfNeeded(size_t next_frame_bytes) {
  if (segment_written_ == 0 ||
      segment_written_ + next_frame_bytes <= segment_bytes_) {
    return Status::OK();
  }
  return OpenSegment(segment_index_ + 1);
}

Status WalWriter::Append(uint64_t lsn, WalRecordType type,
                         const std::string& payload) {
  const auto header = FrameHeader(lsn, type, payload);
  const size_t frame_bytes = header.size() + payload.size();
  MTDB_RETURN_IF_ERROR(RotateIfNeeded(frame_bytes));
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    return StatusFromErrno("wal append");
  }
  if (std::fflush(file_) != 0) return StatusFromErrno("wal flush");
  segment_written_ += frame_bytes;
  appended_bytes_ += frame_bytes;
  return Status::OK();
}

Status WalWriter::AppendTorn(uint64_t lsn, WalRecordType type,
                             const std::string& payload) {
  const auto header = FrameHeader(lsn, type, payload);
  MTDB_RETURN_IF_ERROR(RotateIfNeeded(header.size() + payload.size()));
  const size_t half = payload.size() / 2;
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(payload.data(), 1, half, file_) != half) {
    return StatusFromErrno("wal torn append");
  }
  if (std::fflush(file_) != 0) return StatusFromErrno("wal flush");
  segment_written_ += header.size() + half;
  appended_bytes_ += header.size() + half;
  return Status::OK();
}

Status WalWriter::Truncate() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint32_t idx;
    if (ParseSegmentName(entry.path().filename().string(), &idx)) {
      fs::remove(entry.path(), ec);
      if (ec) {
        return Status::IOError("wal truncate: " + ec.message());
      }
    }
  }
  appended_bytes_ = 0;
  return OpenSegment(0);
}

// -------------------------------------------------------------- reader

Result<WalReader::ScanResult> WalReader::ReadAll() {
  ScanResult out;
  std::error_code ec;
  if (!fs::exists(dir_, ec)) return out;

  std::vector<std::pair<uint32_t, fs::path>> segments;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint32_t idx;
    if (ParseSegmentName(entry.path().filename().string(), &idx)) {
      segments.emplace_back(idx, entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());

  for (size_t s = 0; s < segments.size(); ++s) {
    const fs::path& path = segments[s].second;
    const uint64_t file_size = fs::file_size(path, ec);
    if (ec) {
      return Status::IOError("stat " + path.string() + ": " + ec.message());
    }
    std::FILE* f = std::fopen(path.string().c_str(), "rb");
    if (f == nullptr) return StatusFromErrno("open " + path.string());
    uint64_t offset = 0;
    bool torn = false;
    while (true) {
      char header[kFrameHeaderSize];
      size_t got = std::fread(header, 1, kFrameHeaderSize, f);
      if (got == 0) break;  // clean end of segment
      if (got < kFrameHeaderSize) {
        torn = true;
        break;
      }
      uint32_t magic, payload_len;
      uint64_t lsn, stored_sum;
      uint8_t type;
      std::memcpy(&magic, header, 4);
      std::memcpy(&lsn, header + 4, 8);
      type = static_cast<uint8_t>(header[12]);
      std::memcpy(&payload_len, header + 16, 4);
      std::memcpy(&stored_sum, header + kChecksumOffset, 8);
      const bool legacy = magic == kLegacyFrameMagic;
      if ((magic != kFrameMagic && !legacy) || type < 1 || type > 4) {
        torn = true;
        break;
      }
      // The length field is only protected by the checksum, which is
      // verified *after* reading the payload — bound it by the bytes
      // actually left in the segment so a corrupted header cannot demand
      // a multi-gigabyte allocation and abort recovery with bad_alloc.
      if (payload_len > file_size - offset - kFrameHeaderSize) {
        torn = true;
        break;
      }
      std::string payload(payload_len, '\0');
      if (payload_len > 0 &&
          std::fread(payload.data(), 1, payload_len, f) != payload_len) {
        torn = true;
        break;
      }
      // Re-derive the checksum with the stored field zeroed.
      char zeroed[kFrameHeaderSize];
      std::memcpy(zeroed, header, kFrameHeaderSize);
      std::memset(zeroed + kChecksumOffset, 0, 8);
      const uint64_t seed = legacy ? kLegacyChecksumSeed : kFnv1aBasis;
      uint64_t sum = WalChecksum(zeroed, kFrameHeaderSize, seed);
      sum = WalChecksum(payload.data(), payload.size(), sum);
      if (sum != stored_sum) {
        torn = true;
        break;
      }
      if (legacy) {
        // A whole, valid frame of the full-image format, not a tear:
        // truncating it would silently drop acknowledged statements.
        std::fclose(f);
        return Status::FailedPrecondition(
            "wal segment " + path.string() + " holds a frame at offset " +
            std::to_string(offset) +
            " in the older full-image format (magic MWAL); this build "
            "cannot replay it and left the log untouched");
      }
      WalRecord rec;
      rec.lsn = lsn;
      rec.type = static_cast<WalRecordType>(type);
      rec.payload = std::move(payload);
      out.records.push_back(std::move(rec));
      offset += kFrameHeaderSize + payload_len;
    }
    std::fclose(f);
    if (torn) {
      // Truncate the torn tail and drop every later segment: nothing
      // after a tear can be trusted (appends are strictly ordered).
      out.truncated_tails++;
      fs::resize_file(path, offset, ec);
      if (ec) {
        return Status::IOError("wal tail truncate: " + ec.message());
      }
      for (size_t later = s + 1; later < segments.size(); ++later) {
        fs::remove(segments[later].second, ec);
      }
      break;
    }
  }
  return out;
}

}  // namespace mtdb
