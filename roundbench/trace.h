// In-memory span tracer of the round benchmark.
//
// Spans are recorded only around calls into the library's public API from
// the benchmark's own files (decorators, hooks and offline re-timing), so
// the library itself carries no benchmark instrumentation. Every span has
// a name whose prefix before the first '.' is its layer ("svc.sink"),
// start and end times, the span that caused it, the round (or epoch) it
// belongs to and the number of items it processed. Spans stay in memory
// until the run ends and are then written out in one file.
//
// A disabled tracer records nothing; the untraced run measures the
// end-to-end metrics with it.

#ifndef ROUNDBENCH_TRACE_H_
#define ROUNDBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace roundbench {

// Nanoseconds on the steady clock since an arbitrary fixed origin.
int64_t NowNs();

inline constexpr uint32_t kNoSpan = 0;

struct SpanRecord {
  const char* name = "";  // static storage: a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = kNoSpan;      // 1-based
  uint32_t parent = kNoSpan;  // kNoSpan for a root span
  uint32_t round = 0;
  uint64_t items = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span starting now; returns its id (kNoSpan when disabled).
  uint32_t Begin(const char* name, uint32_t parent, uint32_t round);
  // Closes span `id` now, recording `items`. No-op for kNoSpan.
  void End(uint32_t id, uint64_t items = 0);
  // Records a finished span; returns its id (kNoSpan when disabled).
  uint32_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint32_t parent, uint32_t round, uint64_t items = 0);

  // Copy of every recorded span, in id order.
  std::vector<SpanRecord> Spans() const;

  // Writes every span as CSV (name,id,parent,round,start_ns,end_ns,items).
  bool WriteCsv(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

// Scoped span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, uint32_t parent, uint32_t round)
      : tracer_(tracer), id_(tracer.Begin(name, parent, round)) {}
  ~Span() { tracer_.End(id_, items_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint32_t id() const { return id_; }
  void set_items(uint64_t items) { items_ = items; }

 private:
  Tracer& tracer_;
  const uint32_t id_;
  uint64_t items_ = 0;
};

// Per span name: how many spans, their summed duration, their summed self
// time (duration minus the part of the span's interval covered by the
// union of its direct children) and their summed items.
struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  uint64_t items = 0;
  std::vector<double> durations_ns;
};
std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans);

// Nanoseconds of [start, end) covered by the union of `intervals`.
double CoveredNs(int64_t start, int64_t end,
                 std::vector<std::pair<int64_t, int64_t>> intervals);

}  // namespace roundbench

#endif  // ROUNDBENCH_TRACE_H_
