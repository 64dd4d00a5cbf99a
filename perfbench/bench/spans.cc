#include "bench/spans.h"

#include <cstdio>

namespace perfbench {

uint64_t SpanRecorder::Now() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

int32_t SpanRecorder::Begin(const char* name, uint64_t request,
                            int32_t parent) {
  if (spans_.size() >= capacity_) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.request = request;
  rec.parent = parent;
  rec.start_ns = Now();
  spans_.push_back(rec);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t index) {
  if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = Now();
}

std::map<std::string, uint64_t> SelfTimeByModule(
    const std::vector<const SpanRecorder*>& recorders) {
  std::map<std::string, uint64_t> out;
  for (const SpanRecorder* rec : recorders) {
    const std::vector<SpanRecord>& spans = rec->spans();
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      self[i] = static_cast<int64_t>(spans[i].end_ns - spans[i].start_ns);
    }
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -=
            static_cast<int64_t>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      std::string name = spans[i].name;
      std::string module = name.substr(0, name.find('.'));
      if (self[i] > 0) out[module] += static_cast<uint64_t>(self[i]);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "client\trequest\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t c = 0; c < recorders.size(); ++c) {
    const std::vector<SpanRecord>& spans = recorders[c]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f, "%zu\t%llu\t%zu\t%d\t%s\t%llu\t%llu\n", c,
                   static_cast<unsigned long long>(s.request), i, s.parent,
                   s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
