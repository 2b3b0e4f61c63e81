#include "felip/fo/grr.h"

#include <cmath>
#include <numeric>

#include "felip/common/check.h"

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

uint64_t GrrServer::num_reports() const {
  return std::accumulate(counts_.begin(), counts_.end(), uint64_t{0});
}

void GrrServer::RestoreState(std::vector<uint64_t> counts,
                             uint64_t num_reports) {
  FELIP_CHECK_MSG(counts.size() == counts_.size(),
                  "restored GRR counts do not match the domain");
  counts_ = std::move(counts);
  FELIP_CHECK_MSG(this->num_reports() == num_reports,
                  "restored GRR counts do not sum to num_reports");
}

std::vector<double> GrrServer::EstimateFrequencies() const {
  const uint64_t num_reports = this->num_reports();
  FELIP_CHECK_MSG(num_reports > 0, "no GRR reports collected");
  std::vector<double> freq(counts_.size());
  const double n = static_cast<double>(num_reports);
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
  const uint64_t num_reports = this->num_reports();
  FELIP_CHECK_MSG(num_reports > 0, "no GRR reports collected");
  if (counts_.size() == 1) return 1.0;
  const double n = static_cast<double>(num_reports);
  return (static_cast<double>(counts_[value]) / n - q_) / (p_ - q_);
}

}  // namespace felip::fo
