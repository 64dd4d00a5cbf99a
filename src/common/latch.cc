#include "common/latch.h"

#if MTDB_LOCKDEP
#include <execinfo.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#endif

namespace mtdb {

const char* LatchRankName(LatchRank rank) {
  switch (rank) {
    case LatchRank::kPageStore:
      return "PageStore";
    case LatchRank::kMetricsRegistry:
      return "MetricsRegistry";
    case LatchRank::kTenantBreaker:
      return "TenantBreaker";
    case LatchRank::kBufferShard:
      return "BufferShard";
    case LatchRank::kBufferCapacity:
      return "BufferCapacity";
    case LatchRank::kWal:
      return "Wal";
    case LatchRank::kCatalog:
      return "Catalog";
    case LatchRank::kTxnRegistry:
      return "TxnRegistry";
    case LatchRank::kPage:
      return "Page";
    case LatchRank::kTableIndex:
      return "TableIndex";
    case LatchRank::kDdl:
      return "Ddl";
    case LatchRank::kLockWaitGraph:
      return "LockWaitGraph";
    case LatchRank::kLockShard:
      return "LockShard";
    case LatchRank::kMappingTableNum:
      return "MappingTableNum";
    case LatchRank::kMappingCache:
      return "MappingCache";
    case LatchRank::kTenantRow:
      return "TenantRow";
    case LatchRank::kMappingLayer:
      return "MappingLayer";
    case LatchRank::kAdmission:
      return "Admission";
  }
  return "?";
}

namespace lockdep {

bool CompiledIn() {
#if MTDB_LOCKDEP
  return true;
#else
  return false;
#endif
}

#if MTDB_LOCKDEP

namespace {

constexpr int kAcquireBacktraceDepth = 6;
constexpr int kViolationBacktraceDepth = 16;
// backtrace() frames to drop so traces start at the latch call site
// rather than inside the validator itself.
constexpr int kSkipFrames = 2;

bool BacktracesEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("MTDB_LOCKDEP_BACKTRACE");
    return v == nullptr || std::strcmp(v, "0") != 0;
  }();
  return enabled;
}

std::string Symbolize(void* const* frames, int depth) {
  if (depth <= 0) return {};
  char** symbols = backtrace_symbols(frames, depth);
  if (symbols == nullptr) return {};
  std::string out;
  for (int i = 0; i < depth; ++i) {
    out += "    ";
    out += symbols[i];
    out += '\n';
  }
  std::free(symbols);
  return out;
}

struct HeldLatch {
  const LatchInfo* info;
  uint64_t key;  // order key sampled at acquisition
  bool shared;
  void* frames[kAcquireBacktraceDepth];
  int depth;
};

struct ThreadState;
void ReportThreadExit(const ThreadState& state);

struct ThreadState {
  std::vector<HeldLatch> held;
  /// Identity of the PageMutationCapture that absorbed this thread's
  /// most recent page mutation and has not been committed yet.
  const void* pending_capture = nullptr;
  ~ThreadState() {
    if (!held.empty()) ReportThreadExit(*this);
  }
};

ThreadState& Tls() {
  thread_local ThreadState state;
  return state;
}

/// Global validator state. Leaked singleton so violations recorded
/// during thread/static teardown stay safe.
struct Registry {
  std::mutex mu;
  // site-deduped violations, in first-seen order
  std::vector<Violation> violations;
  std::unordered_set<std::string> seen_sites;
  uint64_t total = 0;
  bool fatal;
  bool fatal_overridden = false;

  // Acquisition-order graph over same-rank, unordered-key latch pairs
  // (ranked pairs cannot form cycles). adjacency[a] holds every latch id
  // ever acquired while a was held.
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> adjacency;
  std::unordered_map<uint64_t, std::string> node_names;

  Registry() {
    const char* v = std::getenv("MTDB_LOCKDEP_FATAL");
    fatal = v != nullptr && std::strcmp(v, "0") != 0;
  }
};

Registry& Reg() {
  static Registry* reg = new Registry();
  return *reg;
}

std::string DescribeHeld(const HeldLatch& h) {
  std::ostringstream os;
  os << h.info->name << " (rank " << LatchRankName(h.info->rank);
  if (h.key != kLatchUnordered) os << ", key " << h.key;
  os << (h.shared ? ", shared" : ", exclusive") << ")";
  return os.str();
}

std::string DescribeInfo(const LatchInfo& info, uint64_t key) {
  std::ostringstream os;
  os << info.name << " (rank " << LatchRankName(info.rank);
  if (key != kLatchUnordered) os << ", key " << key;
  os << ")";
  return os.str();
}

/// Records one violation (site-deduped) and aborts in fatal mode. The
/// caller passes the acquisition backtrace of the conflicting held
/// latch when one is relevant.
void Record(const char* rule_id, std::string location, std::string message,
            const HeldLatch* conflicting) {
  std::string backtrace_text;
  if (BacktracesEnabled()) {
    void* frames[kViolationBacktraceDepth];
    int depth = backtrace(frames, kViolationBacktraceDepth);
    int skip = depth > kSkipFrames ? kSkipFrames : 0;
    backtrace_text = "  at:\n" + Symbolize(frames + skip, depth - skip);
    if (conflicting != nullptr && conflicting->depth > 0) {
      backtrace_text += "  conflicting latch acquired at:\n" +
                        Symbolize(conflicting->frames, conflicting->depth);
    }
  }

  Registry& reg = Reg();
  bool fatal;
  {
    std::lock_guard<std::mutex> guard(reg.mu);
    ++reg.total;
    fatal = reg.fatal;
    std::string site = std::string(rule_id) + "|" + location;
    if (reg.seen_sites.insert(std::move(site)).second) {
      reg.violations.push_back(Violation{rule_id, std::move(location),
                                         message, backtrace_text});
    }
  }
  if (fatal) {
    std::fprintf(stderr, "lockdep: fatal violation %s: %s\n%s", rule_id,
                 message.c_str(), backtrace_text.c_str());
    std::fflush(stderr);
    std::abort();
  }
}

void ReportThreadExit(const ThreadState& state) {
  std::ostringstream os;
  os << "thread exited holding " << state.held.size() << " latch(es):";
  for (const HeldLatch& h : state.held) os << " " << DescribeHeld(h);
  Record("C206", "thread-exit:" + std::string(state.held.back().info->name),
         os.str(), &state.held.back());
}

/// DFS reachability in the acquisition graph. Caller holds reg.mu.
bool Reachable(const Registry& reg, uint64_t from, uint64_t to) {
  std::vector<uint64_t> stack{from};
  std::unordered_set<uint64_t> visited;
  while (!stack.empty()) {
    uint64_t node = stack.back();
    stack.pop_back();
    if (node == to) return true;
    if (!visited.insert(node).second) continue;
    auto it = reg.adjacency.find(node);
    if (it == reg.adjacency.end()) continue;
    for (uint64_t next : it->second) stack.push_back(next);
  }
  return false;
}

/// Same-rank pair with no usable order keys: record held→new in the
/// acquisition graph; a pre-existing new→…→held path means some thread
/// acquires these in the opposite order — a potential ABBA deadlock.
void CheckGraphEdge(const HeldLatch& held, const LatchInfo& info,
                    uint64_t key) {
  Registry& reg = Reg();
  bool cycle = false;
  {
    std::lock_guard<std::mutex> guard(reg.mu);
    reg.node_names.emplace(held.info->id, DescribeHeld(held));
    reg.node_names.emplace(info.id, DescribeInfo(info, key));
    auto& out = reg.adjacency[held.info->id];
    if (out.insert(info.id).second) {
      cycle = Reachable(reg, info.id, held.info->id);
    }
  }
  if (cycle) {
    std::ostringstream os;
    os << "acquisition-order cycle: acquiring " << DescribeInfo(info, key)
       << " while holding " << DescribeHeld(held)
       << ", but another acquisition path orders them the other way"
       << " (potential cross-thread ABBA deadlock)";
    Record("C203",
           std::string("cycle:") + held.info->name + "<->" + info.name,
           os.str(), &held);
  }
}

bool IsOrderedRank(LatchRank rank) {
  return rank == LatchRank::kTableIndex || rank == LatchRank::kTenantRow;
}

}  // namespace

LatchInfo::LatchInfo(LatchRank r, const char* n) : id([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      rank(r),
      name(n) {}

void OnAcquire(const LatchInfo& info, bool shared) {
  ThreadState& state = Tls();
  const uint64_t key = info.key.load(std::memory_order_relaxed);

  for (const HeldLatch& h : state.held) {
    if (h.info == &info) {
      std::ostringstream os;
      os << "recursive acquisition of " << DescribeInfo(info, key)
         << " already held by this thread";
      Record("C204", std::string("recursive:") + info.name, os.str(), &h);
      break;
    }
    if (static_cast<uint8_t>(h.info->rank) < static_cast<uint8_t>(info.rank)) {
      std::ostringstream os;
      os << "rank inversion: acquiring " << DescribeInfo(info, key)
         << " while holding lower-ranked " << DescribeHeld(h)
         << " (acquisition must descend the rank order)";
      Record("C201",
             std::string("inversion:") + h.info->name + "<-" + info.name,
             os.str(), &h);
    } else if (h.info->rank == info.rank) {
      if (IsOrderedRank(info.rank) && key != kLatchUnordered &&
          h.key != kLatchUnordered) {
        if (key <= h.key) {
          std::ostringstream os;
          os << "same-rank order-key inversion: acquiring "
             << DescribeInfo(info, key) << " while holding "
             << DescribeHeld(h)
             << " (same-rank acquisition requires strictly ascending keys)";
          Record("C202",
                 std::string("key-inversion:") + h.info->name + "<-" +
                     info.name,
                 os.str(), &h);
        }
      } else {
        CheckGraphEdge(h, info, key);
      }
    }
  }

  HeldLatch entry;
  entry.info = &info;
  entry.key = key;
  entry.shared = shared;
  entry.depth = 0;
  if (BacktracesEnabled()) {
    void* frames[kAcquireBacktraceDepth + kSkipFrames];
    int depth = backtrace(frames, kAcquireBacktraceDepth + kSkipFrames);
    int skip = depth > kSkipFrames ? kSkipFrames : 0;
    entry.depth = depth - skip;
    std::memcpy(entry.frames, frames + skip,
                sizeof(void*) * static_cast<size_t>(entry.depth));
  }
  state.held.push_back(entry);
}

void OnRelease(const LatchInfo& info) {
  ThreadState& state = Tls();
  for (size_t i = state.held.size(); i-- > 0;) {
    if (state.held[i].info != &info) continue;
    // WAL-protocol C302: releasing an exclusive statement-level latch
    // (table/index or above) while this thread still has captured page
    // mutations that were never committed to the WAL. Lower-ranked
    // internal latches (catalog, pool shards) legitimately cycle while
    // a capture is open.
    if (!state.held[i].shared && state.pending_capture != nullptr &&
        static_cast<uint8_t>(info.rank) >=
            static_cast<uint8_t>(LatchRank::kTableIndex)) {
      std::ostringstream os;
      os << "capture leaked past latch release: exclusive "
         << DescribeHeld(state.held[i])
         << " released while captured page mutations are still pending"
         << " (redo group must be committed before latches drop)";
      Record("C302", std::string("capture-leak:") + info.name, os.str(),
             &state.held[i]);
      state.pending_capture = nullptr;  // one report per leaked capture
    }
    state.held.erase(state.held.begin() + static_cast<ptrdiff_t>(i));
    return;
  }
  std::ostringstream os;
  os << "release of " << DescribeInfo(info, info.key.load())
     << " which this thread does not hold";
  Record("C205", std::string("not-held:") + info.name, os.str(), nullptr);
}

void ReportUnloggedMutation(const char* op, uint64_t page_id) {
  std::ostringstream os;
  os << "page mutation (" << op << ", page " << page_id
     << ") on a durable engine outside any PageCaptureScope"
     << " (mutation would be invisible to the WAL)";
  Record("C301", std::string("unlogged:") + op, os.str(), nullptr);
}

void OnCapturedMutation(const void* capture, uint64_t page_id,
                        bool write_intent) {
  Tls().pending_capture = capture;
  if (write_intent) return;
  // C304: the capture has no before-image of this page, so the commit
  // cannot log the page as a delta of what the log already holds; a
  // mutation site skipped BufferPool::WillWrite.
  std::ostringstream os;
  os << "page " << page_id
     << " dirtied under a capture without a write intent"
     << " (BufferPool::WillWrite missing before the mutation)";
  Record("C304", "no-write-intent", os.str(), nullptr);
}

void OnCaptureCommit(const void* capture) {
  ThreadState& state = Tls();
  if (state.pending_capture != capture) return;  // empty/foreign capture
  state.pending_capture = nullptr;
  // C303: a redo group with real page mutations is being committed, but
  // this thread holds no exclusive statement-level latch — the WAL order
  // is no longer tied to the in-memory mutation order.
  for (const HeldLatch& h : state.held) {
    if (!h.shared && static_cast<uint8_t>(h.info->rank) >=
                         static_cast<uint8_t>(LatchRank::kTableIndex)) {
      return;
    }
  }
  Record("C303", "unlatched-commit",
         "WAL group commit of captured page mutations with no exclusive "
         "table/DDL latch held (commit must happen before latch release)",
         nullptr);
}

void SetFatal(bool fatal) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> guard(reg.mu);
  reg.fatal = fatal;
  reg.fatal_overridden = true;
}

std::vector<Violation> Drain() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> guard(reg.mu);
  std::vector<Violation> out;
  out.swap(reg.violations);
  reg.seen_sites.clear();
  return out;
}

uint64_t TotalViolations() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> guard(reg.mu);
  return reg.total;
}

#endif  // MTDB_LOCKDEP

}  // namespace lockdep
}  // namespace mtdb
