#include "felip/obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "felip/common/check.h"

namespace felip::obs {

const std::vector<double>& LatencyBuckets() {
  static const std::vector<double>* buckets = [] {
    auto* b = new std::vector<double>;
    for (double decade = 1e-6; decade < 20.0; decade *= 10.0) {
      b->push_back(decade);
      b->push_back(decade * 2.5);
      b->push_back(decade * 5.0);
    }
    return b;
  }();
  return *buckets;
}

#ifndef FELIP_OBS_NOOP

namespace {

// Threads are assigned counter shards round-robin at first use; two
// threads may share a shard (totals stay exact), but increments from one
// thread never migrate between shards.
size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

int64_t ToNanoUnits(double value) {
  return static_cast<int64_t>(std::llround(value * 1e9));
}

void AppendDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out->append(buf);
}

void AppendU64(std::string* out, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out->append(buf);
}

// Minimal JSON string escaping (names are metric identifiers, but stay
// safe for arbitrary input).
void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

void Counter::Increment(uint64_t delta) {
  shards_[ThisThreadShard()].value.fetch_add(delta,
                                             std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

void Gauge::Set(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  bits_.store(bits, std::memory_order_relaxed);
}

void Gauge::Add(double delta) {
  uint64_t observed = bits_.load(std::memory_order_relaxed);
  for (;;) {
    double current = 0.0;
    std::memcpy(&current, &observed, sizeof(current));
    const double next = current + delta;
    uint64_t next_bits = 0;
    std::memcpy(&next_bits, &next, sizeof(next_bits));
    if (bits_.compare_exchange_weak(observed, next_bits,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

double Gauge::Value() const {
  const uint64_t bits = bits_.load(std::memory_order_relaxed);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  FELIP_CHECK_MSG(!bounds_.empty(), "histogram needs >= 1 bucket bound");
  for (size_t i = 1; i < bounds_.size(); ++i) {
    FELIP_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                    "histogram bounds must be strictly ascending");
  }
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound is >= value (Prometheus `le`).
  size_t bucket = bounds_.size();  // overflow by default
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nano_units_.fetch_add(ToNanoUnits(value), std::memory_order_relaxed);
}

uint64_t Histogram::Count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::Sum() const {
  return static_cast<double>(
             sum_nano_units_.load(std::memory_order_relaxed)) *
         1e-9;
}

double Histogram::Quantile(double q) const {
  FELIP_CHECK(q >= 0.0 && q <= 1.0);
  const uint64_t total = Count();
  if (total == 0) return 0.0;
  const auto rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) return bounds_[i];
  }
  return bounds_.back();  // rank falls in the overflow bucket
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nano_units_.store(0, std::memory_order_relaxed);
}

Registry& Registry::Default() {
  static Registry* registry = new Registry;
  return *registry;
}

Counter& Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  {
    // Look up first: building the default bounds costs an allocation,
    // and spans resolve their histogram this way on every close.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return *it->second;
  }
  return GetHistogram(name, LatencyBuckets());
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

void Registry::RecordSpan(std::string_view path, uint64_t nanos) {
  SpanCell* cell = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = spans_.find(path);
    if (it == spans_.end()) {
      it = spans_.emplace(std::string(path), std::make_unique<SpanCell>())
               .first;
    }
    cell = it->second.get();
  }
  cell->count.fetch_add(1, std::memory_order_relaxed);
  cell->total_nanos.fetch_add(nanos, std::memory_order_relaxed);
}

std::string Registry::RenderText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += "# TYPE " + name + " counter\n";
    out += name + " ";
    AppendU64(&out, counter->Value());
    out += "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " ";
    AppendDouble(&out, gauge->Value());
    out += "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out += "# TYPE " + name + " histogram\n";
    const std::vector<uint64_t> buckets = histogram->BucketCounts();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram->bounds().size(); ++i) {
      cumulative += buckets[i];
      out += name + "_bucket{le=\"";
      AppendDouble(&out, histogram->bounds()[i]);
      out += "\"} ";
      AppendU64(&out, cumulative);
      out += "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} ";
    AppendU64(&out, histogram->Count());
    out += "\n";
    out += name + "_sum ";
    AppendDouble(&out, histogram->Sum());
    out += "\n";
    out += name + "_count ";
    AppendU64(&out, histogram->Count());
    out += "\n";
  }
  if (!spans_.empty()) {
    out += "# TYPE felip_span_count_total counter\n";
    for (const auto& [path, cell] : spans_) {
      out += "felip_span_count_total{path=\"" + path + "\"} ";
      AppendU64(&out, cell->count.load(std::memory_order_relaxed));
      out += "\n";
    }
    out += "# TYPE felip_span_seconds_total counter\n";
    for (const auto& [path, cell] : spans_) {
      out += "felip_span_seconds_total{path=\"" + path + "\"} ";
      AppendDouble(&out, static_cast<double>(cell->total_nanos.load(
                             std::memory_order_relaxed)) *
                             1e-9);
      out += "\n";
    }
  }
  return out;
}

std::string Registry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(&out, name);
    out += ": ";
    AppendU64(&out, counter->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(&out, name);
    out += ": ";
    AppendDouble(&out, gauge->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(&out, name);
    out += ": {\"count\": ";
    AppendU64(&out, histogram->Count());
    out += ", \"sum\": ";
    AppendDouble(&out, histogram->Sum());
    out += ", \"p50\": ";
    AppendDouble(&out, histogram->Quantile(0.50));
    out += ", \"p95\": ";
    AppendDouble(&out, histogram->Quantile(0.95));
    out += ", \"p99\": ";
    AppendDouble(&out, histogram->Quantile(0.99));
    out += "}";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"spans\": {";
  first = true;
  for (const auto& [path, cell] : spans_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(&out, path);
    out += ": {\"count\": ";
    AppendU64(&out, cell->count.load(std::memory_order_relaxed));
    out += ", \"total_seconds\": ";
    AppendDouble(&out, static_cast<double>(cell->total_nanos.load(
                           std::memory_order_relaxed)) *
                           1e-9);
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

uint64_t Registry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Value();
}

double Registry::GaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second->Value();
}

uint64_t Registry::HistogramCount(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? 0 : it->second->Count();
}

SpanStats Registry::SpanStatsFor(std::string_view path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = spans_.find(path);
  if (it == spans_.end()) return {};
  return {it->second->count.load(std::memory_order_relaxed),
          static_cast<double>(
              it->second->total_nanos.load(std::memory_order_relaxed)) *
              1e-9};
}

std::vector<std::string> Registry::SpanPaths() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> paths;
  paths.reserve(spans_.size());
  for (const auto& [path, cell] : spans_) paths.push_back(path);
  return paths;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
  for (auto& [path, cell] : spans_) {
    cell->count.store(0, std::memory_order_relaxed);
    cell->total_nanos.store(0, std::memory_order_relaxed);
  }
}

#else  // FELIP_OBS_NOOP

Registry& Registry::Default() {
  static Registry* registry = new Registry;
  return *registry;
}

#endif  // FELIP_OBS_NOOP

}  // namespace felip::obs
