#include "felip/fo/olh.h"

#include <cmath>

#include "felip/common/check.h"
#include "felip/common/hash.h"
#include "felip/common/parallel.h"
#include "felip/fo/protocol.h"
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

std::vector<double> OlhServer::EstimateFrequencies() const {
  FELIP_CHECK_MSG(num_reports_ > 0, "no OLH reports collected");
  std::vector<double> freq(domain_);
  if (options_.seed_pool_size == 0) {
    // Per-user mode: shard the O(n * |D|) support count over the reports.
    // Integer shard supports reduce to core-count-independent totals.
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
        });
    for (uint64_t v = 0; v < domain_; ++v) {
      freq[v] = Debias(static_cast<double>(support[v]));
    }
    return freq;
  }
  // Pool mode: O(K) support per value, on the calling thread. A grid has
  // 16-64 values, too few to pay for thread starts (docs/aggregation.md).
  for (uint64_t v = 0; v < domain_; ++v) freq[v] = Debias(SupportCount(v));
  return freq;
}

double OlhServer::EstimateValue(uint64_t value) const {
  FELIP_CHECK(value < domain_);
  FELIP_CHECK_MSG(num_reports_ > 0, "no OLH reports collected");
  return Debias(SupportCount(value));
}

}  // namespace felip::fo
