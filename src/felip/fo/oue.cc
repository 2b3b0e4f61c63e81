#include "felip/fo/oue.h"

#include <cmath>

#include "felip/common/check.h"
#include "felip/simd/dispatch.h"
#include "felip/simd/kernels.h"

namespace felip::fo {

OueClient::OueClient(double epsilon, uint64_t domain) : domain_(domain) {
  FELIP_CHECK(epsilon > 0.0);
  FELIP_CHECK(domain >= 1);
  q_ = 1.0 / (std::exp(epsilon) + 1.0);
}

std::vector<uint8_t> OueClient::Perturb(uint64_t value, Rng& rng) const {
  FELIP_CHECK(value < domain_);
  std::vector<uint8_t> bits(domain_, 0);
  for (uint64_t i = 0; i < domain_; ++i) {
    const double keep_one = (i == value) ? 0.5 : q_;
    bits[i] = rng.Bernoulli(keep_one) ? 1 : 0;
  }
  return bits;
}

OueServer::OueServer(double epsilon, uint64_t domain) : counts_(domain, 0) {
  FELIP_CHECK(epsilon > 0.0);
  FELIP_CHECK(domain >= 1);
  q_ = 1.0 / (std::exp(epsilon) + 1.0);
}

void OueServer::Add(const std::vector<uint8_t>& report) {
  FELIP_CHECK(report.size() == counts_.size());
  simd::AccumulateNonzeroBytes(simd::ActiveLevel(), report.data(),
                               report.size(), counts_.data());
  ++num_reports_;
}

void OueServer::RestoreState(std::vector<uint64_t> counts,
                             uint64_t num_reports) {
  FELIP_CHECK_MSG(counts.size() == counts_.size(),
                  "restored OUE counts do not match the domain");
  counts_ = std::move(counts);
  num_reports_ = num_reports;
}

std::vector<double> OueServer::EstimateFrequencies() const {
  FELIP_CHECK_MSG(num_reports_ > 0, "no OUE reports collected");
  std::vector<double> freq(counts_.size());
  const double n = static_cast<double>(num_reports_);
  for (size_t v = 0; v < counts_.size(); ++v) {
    freq[v] = (static_cast<double>(counts_[v]) / n - q_) / (0.5 - q_);
  }
  return freq;
}

double OueServer::EstimateValue(uint64_t value) const {
  FELIP_CHECK(value < counts_.size());
  FELIP_CHECK_MSG(num_reports_ > 0, "no OUE reports collected");
  const double n = static_cast<double>(num_reports_);
  return (static_cast<double>(counts_[value]) / n - q_) / (0.5 - q_);
}

}  // namespace felip::fo
