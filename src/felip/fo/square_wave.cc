#include "felip/fo/square_wave.h"

#include <algorithm>
#include <cmath>

#include "felip/common/check.h"

namespace felip::fo {

namespace {

// Density parameters: p (inside the window of width 2b) and q (outside),
// normalized so the total mass over [-b, 1+b] is 1, with p/q = e^eps.
void SwDensities(double epsilon, double b, double* p, double* q) {
  const double e = std::exp(epsilon);
  *q = 1.0 / (2.0 * b * e + 1.0);
  *p = e * *q;
}

// Number of output buckets: cover [-b, 1+b] at roughly the input-bin width.
uint32_t NumBuckets(uint32_t domain, double b) {
  const auto wings = static_cast<uint32_t>(
      std::ceil(b * static_cast<double>(domain)));
  return domain + 2 * wings;
}

}  // namespace

double SquareWaveHalfWidth(double epsilon) {
  FELIP_CHECK(epsilon > 0.0);
  const double e = std::exp(epsilon);
  const double denominator = 2.0 * e * (e - 1.0 - epsilon);
  // For epsilon -> 0 the closed form approaches 1/2 smoothly but the
  // denominator underflows; guard with the limit.
  if (denominator < 1e-12) return 0.5;
  const double b = (epsilon * e - e + 1.0) / denominator;
  return std::clamp(b, 1e-6, 10.0);
}

SwClient::SwClient(double epsilon, uint32_t domain)
    : domain_(domain), b_(SquareWaveHalfWidth(epsilon)) {
  FELIP_CHECK(epsilon > 0.0);
  FELIP_CHECK(domain >= 1);
  SwDensities(epsilon, b_, &p_, &q_);
}

double SwClient::Perturb(uint32_t value, Rng& rng) const {
  FELIP_CHECK(value < domain_);
  // Bin center in [0, 1].
  const double v = (static_cast<double>(value) + 0.5) /
                   static_cast<double>(domain_);
  const double in_window_mass = p_ * 2.0 * b_;
  if (rng.Bernoulli(in_window_mass)) {
    return v - b_ + rng.UniformDouble() * 2.0 * b_;
  }
  // Outside: the two flanks [-b, v-b) and (v+b, 1+b] have total length 1;
  // the left flank has length exactly v.
  const double x = rng.UniformDouble();
  return x < v ? -b_ + x : v + b_ + (x - v);
}

SwServer::SwServer(double epsilon, uint32_t domain, SwServerOptions options)
    : domain_(domain), options_(std::move(options)),
      b_(SquareWaveHalfWidth(epsilon)) {
  FELIP_CHECK(epsilon > 0.0);
  FELIP_CHECK(domain >= 1);
  FELIP_CHECK(options_.em_iterations >= 1);
  SwDensities(epsilon, b_, &p_, &q_);
  const uint32_t buckets = NumBuckets(domain_, b_);
  bucket_counts_.assign(buckets, 0);

  // Transition matrix: overlap of each output bucket with the p-window of
  // each input bin, remainder at density q.
  transition_.assign(static_cast<size_t>(buckets) * domain_, 0.0);
  const double lo = -b_;
  const double span = 1.0 + 2.0 * b_;
  const double bucket_width = span / static_cast<double>(buckets);
  for (uint32_t i = 0; i < domain_; ++i) {
    const double v = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(domain_);
    const double win_lo = v - b_;
    const double win_hi = v + b_;
    for (uint32_t j = 0; j < buckets; ++j) {
      const double a = lo + bucket_width * j;
      const double c = a + bucket_width;
      const double overlap =
          std::max(0.0, std::min(c, win_hi) - std::max(a, win_lo));
      transition_[static_cast<size_t>(j) * domain_ + i] =
          overlap * p_ + (bucket_width - overlap) * q_;
    }
  }
}

uint32_t SwServer::BucketOf(double report) const {
  const double lo = -b_;
  const double span = 1.0 + 2.0 * b_;
  const double clamped =
      std::clamp(report, lo, lo + span - 1e-12);
  const auto bucket = static_cast<uint32_t>(
      (clamped - lo) / span * static_cast<double>(bucket_counts_.size()));
  return std::min<uint32_t>(
      bucket, static_cast<uint32_t>(bucket_counts_.size() - 1));
}

void SwServer::Add(double report) {
  ++bucket_counts_[BucketOf(report)];
  ++num_reports_;
}

std::vector<double> SwServer::EstimateFrequencies() const {
  FELIP_CHECK_MSG(num_reports_ > 0, "no SW reports collected");
  const auto buckets = static_cast<uint32_t>(bucket_counts_.size());
  const double n = static_cast<double>(num_reports_);
  std::vector<double> f(domain_, 1.0 / static_cast<double>(domain_));
  std::vector<double> predicted(buckets);
  std::vector<double> updated(domain_);

  for (int iter = 0; iter < options_.em_iterations; ++iter) {
    // E-step: predicted bucket mass under the current estimate.
    for (uint32_t j = 0; j < buckets; ++j) {
      double acc = 0.0;
      const double* row = &transition_[static_cast<size_t>(j) * domain_];
      for (uint32_t i = 0; i < domain_; ++i) acc += row[i] * f[i];
      predicted[j] = acc;
    }
    // M-step: reweight each bin by how well it explains the counts.
    double change = 0.0;
    for (uint32_t i = 0; i < domain_; ++i) {
      double weight = 0.0;
      for (uint32_t j = 0; j < buckets; ++j) {
        if (bucket_counts_[j] == 0 || predicted[j] <= 0.0) continue;
        weight += static_cast<double>(bucket_counts_[j]) / n *
                  transition_[static_cast<size_t>(j) * domain_ + i] /
                  predicted[j];
      }
      updated[i] = f[i] * weight;
    }
    // Optional EMS smoothing: [1, 2, 1] / 4 kernel.
    if (options_.smoothing && domain_ >= 3) {
      std::vector<double> smoothed(domain_);
      smoothed[0] = (2.0 * updated[0] + updated[1]) / 3.0;
      for (uint32_t i = 1; i + 1 < domain_; ++i) {
        smoothed[i] =
            (updated[i - 1] + 2.0 * updated[i] + updated[i + 1]) / 4.0;
      }
      smoothed[domain_ - 1] =
          (updated[domain_ - 2] + 2.0 * updated[domain_ - 1]) / 3.0;
      updated = std::move(smoothed);
    }
    double total = 0.0;
    for (const double v : updated) total += v;
    if (total <= 0.0) break;
    for (uint32_t i = 0; i < domain_; ++i) {
      const double next = updated[i] / total;
      change += std::fabs(next - f[i]);
      f[i] = next;
    }
    if (change < options_.em_threshold) break;
  }
  return f;
}

}  // namespace felip::fo
