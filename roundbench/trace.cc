#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace roundbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::Begin(const char* name, uint32_t parent, uint32_t round) {
  if (!enabled_) return kNoSpan;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.name = name;
  span.start_ns = now;
  span.end_ns = now;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.round = round;
  spans_.push_back(span);
  return span.id;
}

void Tracer::End(uint32_t id, uint64_t items) {
  if (id == kNoSpan) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord& span = spans_[id - 1];
  span.end_ns = now;
  span.items = items;
}

uint32_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                        uint32_t parent, uint32_t round, uint64_t items) {
  if (!enabled_) return kNoSpan;
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.round = round;
  span.items = items;
  spans_.push_back(span);
  return span.id;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteCsv(const std::string& path) const {
  const std::vector<SpanRecord> spans = Spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "name,id,parent,round,start_ns,end_ns,items\n");
  for (const SpanRecord& s : spans) {
    std::fprintf(file, "%s,%u,%u,%u,%lld,%lld,%llu\n", s.name, s.id, s.parent,
                 s.round, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.items));
  }
  return std::fclose(file) == 0;
}

double CoveredNs(int64_t start, int64_t end,
                 std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  int64_t cursor = start;
  for (auto [lo, hi] : intervals) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, end);
    if (hi <= lo) continue;
    covered += static_cast<double>(hi - lo);
    cursor = hi;
  }
  return covered;
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint32_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != kNoSpan) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = totals[s.name];
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    double self = duration;
    if (auto it = children.find(s.id); it != children.end()) {
      self -= CoveredNs(s.start_ns, s.end_ns, it->second);
    }
    ++t.count;
    t.total_ns += duration;
    t.self_ns += self;
    t.items += s.items;
    t.durations_ns.push_back(duration);
  }
  return totals;
}

}  // namespace roundbench
