#include "felip/fo/fldp.h"

#include <cmath>
#include <limits>

#include "felip/common/check.h"
#include "felip/common/hash.h"

namespace felip::fo {

namespace {

// Derives the seed of pool subset `index` from the salt; the same
// construction as OLH's pool seeds, under a distinct hash stream.
inline uint64_t SubsetSeed(uint64_t salt, uint32_t index) {
  return XxHash64(index, salt);
}

}  // namespace

uint32_t FldpSubsetSize(const FldpOptions& options, uint64_t domain) {
  FELIP_CHECK(options.report_bits >= 1);
  const uint64_t s = std::min<uint64_t>(options.report_bits, domain);
  return static_cast<uint32_t>(s);
}

std::vector<uint32_t> FldpSubset(uint64_t pool_salt, uint32_t index,
                                 uint64_t domain, uint32_t subset_size) {
  FELIP_CHECK(subset_size >= 1 && subset_size <= domain);
  // Bucket indices are uint32; a wider domain would silently truncate the
  // candidate draws below (biased, colliding subsets that never cover the
  // upper buckets) — the same explicit guard PGR puts on its point space.
  FELIP_CHECK_MSG(domain <= std::numeric_limits<uint32_t>::max(),
                  "FLDP bucket index does not fit uint32");
  std::vector<uint32_t> subset;
  subset.reserve(subset_size);
  if (subset_size == domain) {
    // Whole-domain subsets (s == d, the OUE limit) use identity order so
    // slot j always means bucket j.
    for (uint32_t b = 0; b < subset_size; ++b) subset.push_back(b);
    return subset;
  }
  // Rejection-sampled distinct draws from a subset-seeded generator. The
  // expected draw count is s * d / (d - s + 1), tiny for s << d; the
  // subset (including slot order) is a pure function of (salt, index).
  Rng rng(SubsetSeed(pool_salt, index));
  while (subset.size() < subset_size) {
    const uint32_t candidate = static_cast<uint32_t>(rng.UniformU64(domain));
    bool seen = false;
    for (const uint32_t b : subset) seen |= b == candidate;
    if (!seen) subset.push_back(candidate);
  }
  return subset;
}

FldpClient::FldpClient(double epsilon, uint64_t domain, FldpOptions options)
    : domain_(domain),
      options_(options),
      subset_size_(FldpSubsetSize(options, domain)) {
  FELIP_CHECK(epsilon > 0.0);
  FELIP_CHECK(domain >= 1);
  FELIP_CHECK_MSG(domain <= std::numeric_limits<uint32_t>::max(),
                  "FLDP bucket index does not fit uint32");
  FELIP_CHECK_MSG(options_.subset_pool_size >= 1,
                  "FLDP needs a non-empty subset pool");
  q_ = 1.0 / (std::exp(epsilon) + 1.0);
}

FldpReport FldpClient::Perturb(uint64_t value, Rng& rng) const {
  FELIP_CHECK(value < domain_);
  FldpReport report;
  report.subset_index =
      static_cast<uint32_t>(rng.UniformU64(options_.subset_pool_size));
  const std::vector<uint32_t> subset = FldpSubset(
      options_.pool_salt, report.subset_index, domain_, subset_size_);
  report.bits.resize(subset_size_);
  for (uint32_t j = 0; j < subset_size_; ++j) {
    const bool is_true_bucket = subset[j] == value;
    report.bits[j] = rng.Bernoulli(is_true_bucket ? 0.5 : q_) ? 1 : 0;
  }
  return report;
}

FldpServer::FldpServer(double epsilon, uint64_t domain, FldpOptions options)
    : domain_(domain),
      options_(options),
      subset_size_(FldpSubsetSize(options, domain)) {
  FELIP_CHECK(epsilon > 0.0);
  FELIP_CHECK(domain >= 1);
  FELIP_CHECK_MSG(domain <= std::numeric_limits<uint32_t>::max(),
                  "FLDP bucket index does not fit uint32");
  FELIP_CHECK_MSG(options_.subset_pool_size >= 1,
                  "FLDP needs a non-empty subset pool");
  q_ = 1.0 / (std::exp(epsilon) + 1.0);
  counts_.assign(
      static_cast<size_t>(options_.subset_pool_size) * subset_size_, 0);
  coverage_counts_.assign(options_.subset_pool_size, 0);
  subsets_.reserve(counts_.size());
  for (uint32_t k = 0; k < options_.subset_pool_size; ++k) {
    const std::vector<uint32_t> subset =
        FldpSubset(options_.pool_salt, k, domain_, subset_size_);
    subsets_.insert(subsets_.end(), subset.begin(), subset.end());
  }
}

void FldpServer::Add(const FldpReport& report) {
  FELIP_CHECK_MSG(report.subset_index < options_.subset_pool_size,
                  "FLDP subset index outside the pool");
  FELIP_CHECK_MSG(report.bits.size() == subset_size_,
                  "FLDP bit vector length != subset size");
  FELIP_CHECK_MSG(coverage_counts_[report.subset_index] <
                      std::numeric_limits<uint32_t>::max(),
                  "FLDP pool coverage overflows uint32");
  uint64_t* counts =
      counts_.data() + static_cast<size_t>(report.subset_index) * subset_size_;
  // Add first and check the bits after: a failed check aborts either way,
  // and the loop stays free of branches.
  const uint8_t* bits = report.bits.data();
  uint8_t set = 0;
  for (uint32_t j = 0; j < subset_size_; ++j) {
    set |= bits[j];
    counts[j] += bits[j];
  }
  FELIP_CHECK(set <= 1);
  ++coverage_counts_[report.subset_index];
  ++num_reports_;
}

void FldpServer::RestoreState(std::vector<uint64_t> counts,
                              std::vector<uint32_t> coverage_counts,
                              uint64_t num_reports) {
  FELIP_CHECK_MSG(counts.size() == counts_.size(),
                  "restored FLDP histogram does not match K * s");
  FELIP_CHECK_MSG(coverage_counts.size() == coverage_counts_.size(),
                  "restored FLDP coverage does not match the pool size");
  counts_ = std::move(counts);
  coverage_counts_ = std::move(coverage_counts);
  num_reports_ = num_reports;
}

double FldpServer::Debias(uint64_t set_bits, uint64_t covered) const {
  if (covered == 0) return 0.0;
  const double nb = static_cast<double>(covered);
  const double rate = static_cast<double>(set_bits) / nb;
  return (rate - q_) / (0.5 - q_);
}

std::vector<double> FldpServer::EstimateFrequencies() const {
  FELIP_CHECK_MSG(num_reports_ > 0, "no FLDP reports collected");
  std::vector<uint64_t> set_bits(domain_, 0);
  std::vector<uint64_t> covered(domain_, 0);
  for (uint32_t k = 0; k < options_.subset_pool_size; ++k) {
    const uint32_t users = coverage_counts_[k];
    const size_t base = static_cast<size_t>(k) * subset_size_;
    for (uint32_t j = 0; j < subset_size_; ++j) {
      const uint32_t bucket = subsets_[base + j];
      set_bits[bucket] += counts_[base + j];
      covered[bucket] += users;
    }
  }
  std::vector<double> freq(domain_);
  for (uint64_t v = 0; v < domain_; ++v) {
    freq[v] = Debias(set_bits[v], covered[v]);
  }
  return freq;
}

double FldpServer::EstimateValue(uint64_t value) const {
  FELIP_CHECK(value < domain_);
  FELIP_CHECK_MSG(num_reports_ > 0, "no FLDP reports collected");
  uint64_t set_bits = 0;
  uint64_t covered = 0;
  for (uint32_t k = 0; k < options_.subset_pool_size; ++k) {
    const size_t base = static_cast<size_t>(k) * subset_size_;
    for (uint32_t j = 0; j < subset_size_; ++j) {
      if (subsets_[base + j] == value) {
        set_bits += counts_[base + j];
        covered += coverage_counts_[k];
      }
    }
  }
  return Debias(set_bits, covered);
}

}  // namespace felip::fo
