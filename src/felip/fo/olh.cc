#include "felip/fo/olh.h"

#include <cmath>

#include "felip/common/check.h"
#include "felip/common/hash.h"
#include "felip/common/parallel.h"
#include "felip/fo/protocol.h"
#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/simd/dispatch.h"
#include "felip/simd/kernels.h"

namespace felip::fo {

namespace {

// Derives the i-th pool seed from the salt. Must agree between client and
// server, so it lives here rather than in either class.
inline uint64_t PoolSeed(uint64_t salt, uint32_t index) {
  return XxHash64(index, salt);
}

}  // namespace

OlhClient::OlhClient(double epsilon, uint64_t domain, OlhOptions options)
    : domain_(domain), options_(options), g_(OlhHashRange(epsilon)) {
  FELIP_CHECK(epsilon > 0.0);
  FELIP_CHECK(domain >= 1);
  const double e = std::exp(epsilon);
  p_ = e / (e + static_cast<double>(g_) - 1.0);
}

OlhReport OlhClient::Perturb(uint64_t value, Rng& rng) const {
  FELIP_CHECK(value < domain_);
  OlhReport report;
  if (options_.seed_pool_size > 0) {
    report.seed_index =
        static_cast<uint32_t>(rng.UniformU64(options_.seed_pool_size));
    report.seed = PoolSeed(options_.pool_salt, report.seed_index);
  } else {
    report.seed = rng.Next();
  }
  const uint32_t hashed = OlhHash(value, report.seed, g_);
  // GRR over the hashed domain [0, g).
  if (rng.Bernoulli(p_)) {
    report.hashed_report = hashed;
  } else {
    const uint64_t other = rng.UniformU64(g_ - 1);
    report.hashed_report =
        static_cast<uint32_t>(other >= hashed ? other + 1 : other);
  }
  return report;
}

OlhServer::OlhServer(double epsilon, uint64_t domain, OlhOptions options)
    : domain_(domain), options_(options), g_(OlhHashRange(epsilon)) {
  FELIP_CHECK(epsilon > 0.0);
  FELIP_CHECK(domain >= 1);
  const double e = std::exp(epsilon);
  p_ = e / (e + static_cast<double>(g_) - 1.0);
  if (options_.seed_pool_size > 0) {
    pool_counts_.assign(
        static_cast<size_t>(options_.seed_pool_size) * g_, 0);
    pool_seeds_.resize(options_.seed_pool_size);
    for (uint32_t i = 0; i < options_.seed_pool_size; ++i) {
      pool_seeds_[i] = PoolSeed(options_.pool_salt, i);
    }
  }
}

void OlhServer::AggregateReports(std::span<const OlhReport> reports,
                                 unsigned thread_count) {
  if (reports.empty()) return;
  obs::ScopedTimer span("felip_fo_olh_aggregate");
  static obs::Counter& reports_total =
      obs::Registry::Default().GetCounter("felip_fo_olh_reports_total");
  static obs::Gauge& shard_gauge =
      obs::Registry::Default().GetGauge("felip_fo_olh_aggregate_shards");
  reports_total.Increment(reports.size());
  shard_gauge.Set(static_cast<double>(ReduceShardCount(reports.size())));
  if (options_.seed_pool_size > 0) {
    const size_t bins = pool_counts_.size();
    const simd::Level level = simd::ActiveLevel();
    const std::vector<uint64_t> merged = ParallelReduce(
        reports.size(),
        [bins] { return std::vector<uint64_t>(bins, 0); },
        [&](std::vector<uint64_t>& acc, size_t begin, size_t end) {
          // Validate and flatten to histogram keys, then count via the
          // dispatched kernel (lane-split for small K * g histograms).
          std::vector<uint64_t> keys(end - begin);
          for (size_t i = begin; i < end; ++i) {
            const OlhReport& r = reports[i];
            FELIP_CHECK(r.hashed_report < g_);
            FELIP_CHECK_MSG(r.seed_index < options_.seed_pool_size,
                            "report missing pool index in pooled OLH mode");
            keys[i - begin] =
                static_cast<uint64_t>(r.seed_index) * g_ + r.hashed_report;
          }
          simd::HistogramU64(level, keys.data(), keys.size(), acc.data(),
                             acc.size());
        },
        [level](std::vector<uint64_t>& into, std::vector<uint64_t>&& from) {
          simd::AddU64(level, into.data(), from.data(), into.size());
        },
        thread_count);
    for (size_t b = 0; b < bins; ++b) {
      pool_counts_[b] += static_cast<uint32_t>(merged[b]);
    }
  } else {
    for (const OlhReport& r : reports) {
      FELIP_CHECK(r.hashed_report < g_);
    }
    reports_.insert(reports_.end(), reports.begin(), reports.end());
  }
  num_reports_ += reports.size();
}

void OlhServer::RestorePoolState(std::vector<uint32_t> pool_counts,
                                 uint64_t num_reports) {
  FELIP_CHECK_MSG(options_.seed_pool_size > 0,
                  "pool state restore on a per-user-mode OLH server");
  FELIP_CHECK_MSG(pool_counts.size() == pool_counts_.size(),
                  "restored OLH pool histogram does not match K * g");
  pool_counts_ = std::move(pool_counts);
  num_reports_ = num_reports;
}

void OlhServer::RestoreReports(std::vector<OlhReport> reports) {
  FELIP_CHECK_MSG(options_.seed_pool_size == 0,
                  "raw-report restore on a pool-mode OLH server");
  for (const OlhReport& r : reports) FELIP_CHECK(r.hashed_report < g_);
  num_reports_ = reports.size();
  reports_ = std::move(reports);
}

double OlhServer::SupportCount(uint64_t value) const {
  if (options_.seed_pool_size > 0) {
    const uint64_t support = simd::OlhPoolSupport(
        simd::ActiveLevel(), value, pool_seeds_.data(), pool_seeds_.size(),
        g_, pool_counts_.data());
    return static_cast<double>(support);
  }
  uint64_t support = 0;
  for (const OlhReport& r : reports_) {
    if (OlhHash(value, r.seed, g_) == r.hashed_report) ++support;
  }
  return static_cast<double>(support);
}

double OlhServer::Debias(double support) const {
  const double n = static_cast<double>(num_reports_);
  const double inv_g = 1.0 / static_cast<double>(g_);
  return (support - n * inv_g) / (n * (p_ - inv_g));
}

std::vector<double> OlhServer::EstimateFrequencies(
    unsigned thread_count) const {
  FELIP_CHECK_MSG(num_reports_ > 0, "no OLH reports collected");
  std::vector<double> freq(domain_);
  if (options_.seed_pool_size == 0) {
    // Per-user mode: shard the O(n * |D|) support count over the reports.
    // Integer shard supports reduce to thread-count-independent totals.
    const uint64_t domain = domain_;
    const simd::Level level = simd::ActiveLevel();
    const std::vector<uint64_t> support = ParallelReduce(
        reports_.size(),
        [domain] { return std::vector<uint64_t>(domain, 0); },
        [&](std::vector<uint64_t>& acc, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const OlhReport& r = reports_[i];
            simd::OlhSupportRange(level, r.seed, g_, r.hashed_report,
                                  /*first_value=*/0, domain, acc.data());
          }
        },
        [level](std::vector<uint64_t>& into, std::vector<uint64_t>&& from) {
          simd::AddU64(level, into.data(), from.data(), into.size());
        },
        thread_count);
    for (uint64_t v = 0; v < domain_; ++v) {
      freq[v] = Debias(static_cast<double>(support[v]));
    }
    return freq;
  }
  // Pool mode: each value's O(K) support is independent of the others.
  ParallelFor(
      domain_, [&](size_t v) { freq[v] = Debias(SupportCount(v)); },
      thread_count);
  return freq;
}

double OlhServer::EstimateValue(uint64_t value) const {
  FELIP_CHECK(value < domain_);
  FELIP_CHECK_MSG(num_reports_ > 0, "no OLH reports collected");
  return Debias(SupportCount(value));
}

}  // namespace felip::fo
