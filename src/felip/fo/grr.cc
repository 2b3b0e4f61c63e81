#include "felip/fo/grr.h"

#include <cmath>

#include "felip/common/check.h"
#include "felip/common/parallel.h"
#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/simd/dispatch.h"
#include "felip/simd/kernels.h"

namespace felip::fo {

namespace {

// Shared p/q computation. For domain == 1 the protocol is trivial (p = 1).
void ComputeGrrProbabilities(double epsilon, uint64_t domain, double* p,
                             double* q) {
  FELIP_CHECK(epsilon > 0.0);
  FELIP_CHECK(domain >= 1);
  if (domain == 1) {
    *p = 1.0;
    *q = 0.0;
    return;
  }
  const double e = std::exp(epsilon);
  *p = e / (e + static_cast<double>(domain) - 1.0);
  *q = 1.0 / (e + static_cast<double>(domain) - 1.0);
}

}  // namespace

GrrClient::GrrClient(double epsilon, uint64_t domain) : domain_(domain) {
  ComputeGrrProbabilities(epsilon, domain, &p_, &q_);
}

uint64_t GrrClient::Perturb(uint64_t value, Rng& rng) const {
  FELIP_CHECK(value < domain_);
  if (domain_ == 1) return value;
  if (rng.Bernoulli(p_)) return value;
  // Uniform over the other domain_ - 1 values.
  const uint64_t other = rng.UniformU64(domain_ - 1);
  return other >= value ? other + 1 : other;
}

GrrServer::GrrServer(double epsilon, uint64_t domain)
    : counts_(domain, 0) {
  ComputeGrrProbabilities(epsilon, domain, &p_, &q_);
}

void GrrServer::AggregateReports(std::span<const uint64_t> reports,
                                 unsigned thread_count) {
  if (reports.empty()) return;
  obs::ScopedTimer span("felip_fo_grr_aggregate");
  // Hot-path instruments are cached; GetCounter takes a registry lock.
  static obs::Counter& reports_total =
      obs::Registry::Default().GetCounter("felip_fo_grr_reports_total");
  static obs::Gauge& shard_gauge =
      obs::Registry::Default().GetGauge("felip_fo_grr_aggregate_shards");
  reports_total.Increment(reports.size());
  shard_gauge.Set(static_cast<double>(ReduceShardCount(reports.size())));
  const size_t domain = counts_.size();
  const simd::Level level = simd::ActiveLevel();
  const std::vector<uint64_t> merged = ParallelReduce(
      reports.size(),
      [domain] { return std::vector<uint64_t>(domain, 0); },
      [&](std::vector<uint64_t>& acc, size_t begin, size_t end) {
        // Validate first; the histogram kernel does not bounds-check.
        for (size_t i = begin; i < end; ++i) {
          FELIP_CHECK(reports[i] < acc.size());
        }
        simd::HistogramU64(level, reports.data() + begin, end - begin,
                           acc.data(), acc.size());
      },
      [level](std::vector<uint64_t>& into, std::vector<uint64_t>&& from) {
        simd::AddU64(level, into.data(), from.data(), into.size());
      },
      thread_count);
  simd::AddU64(level, counts_.data(), merged.data(), domain);
  num_reports_ += reports.size();
}

void GrrServer::RestoreState(std::vector<uint64_t> counts,
                             uint64_t num_reports) {
  FELIP_CHECK_MSG(counts.size() == counts_.size(),
                  "restored GRR counts do not match the domain");
  counts_ = std::move(counts);
  num_reports_ = num_reports;
}

std::vector<double> GrrServer::EstimateFrequencies() const {
  FELIP_CHECK_MSG(num_reports_ > 0, "no GRR reports collected");
  std::vector<double> freq(counts_.size());
  const double n = static_cast<double>(num_reports_);
  const double denom = p_ - q_;
  for (size_t v = 0; v < counts_.size(); ++v) {
    if (counts_.size() == 1) {
      freq[v] = 1.0;
    } else {
      freq[v] = (static_cast<double>(counts_[v]) / n - q_) / denom;
    }
  }
  return freq;
}

double GrrServer::EstimateValue(uint64_t value) const {
  FELIP_CHECK(value < counts_.size());
  FELIP_CHECK_MSG(num_reports_ > 0, "no GRR reports collected");
  if (counts_.size() == 1) return 1.0;
  const double n = static_cast<double>(num_reports_);
  return (static_cast<double>(counts_[value]) / n - q_) / (p_ - q_);
}

}  // namespace felip::fo
