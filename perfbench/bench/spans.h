#ifndef PERFBENCH_BENCH_SPANS_H_
#define PERFBENCH_BENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One span the benchmark records around a call into one layer's public
/// functions. Spans of one logical statement share `request`; `parent`
/// indexes the same recorder (-1 for the statement's root span).
struct SpanRecord {
  const char* name = "";  // static string "<module>.<call>"
  uint64_t request = 0;
  int32_t parent = -1;
  uint64_t start_ns = 0;  // since the recorder's epoch
  uint64_t end_ns = 0;
};

/// In-memory span buffer of one client thread (not thread-safe). Spans
/// beyond `capacity` are not recorded, so a long traced run cannot grow
/// without bound.
class SpanRecorder {
 public:
  SpanRecorder(std::chrono::steady_clock::time_point epoch, size_t capacity)
      : epoch_(epoch), capacity_(capacity) {}

  /// Opens a span; returns its index, or -1 when the buffer is full.
  int32_t Begin(const char* name, uint64_t request, int32_t parent);
  void End(int32_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  uint64_t Now() const;

  std::chrono::steady_clock::time_point epoch_;
  size_t capacity_;
  std::vector<SpanRecord> spans_;
};

/// Self time in nanoseconds per module (the part of `name` before the
/// first '.'): each span's duration minus the durations of its children.
std::map<std::string, uint64_t> SelfTimeByModule(
    const std::vector<const SpanRecorder*>& recorders);

/// Writes every span as one tab-separated line
/// (client, request, index, parent, name, start_ns, end_ns).
bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_SPANS_H_
