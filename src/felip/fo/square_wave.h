// Square Wave (SW) mechanism for ordinal attributes — extension protocol.
//
// Li et al., "Estimating Numerical Distributions under Local Differential
// Privacy" (SIGMOD'20), cited by the FELIP paper as the state of the art for
// reconstructing a single ordinal attribute's distribution. Included as an
// extension so 1-D marginal quality can be compared against FELIP's 1-D
// grids (bench abl6).
//
// The client maps its value to v ∈ [0, 1] and reports a draw from a
// "square wave" density on [-b, 1+b]: height p on [v-b, v+b] and q
// elsewhere, with p/q = e^eps (so the mechanism is eps-LDP) and
// b = (eps*e^eps - e^eps + 1) / (2*e^eps*(e^eps - 1 - eps)).
// The server buckets the reports and runs Expectation–Maximization —
// optionally with kernel smoothing (EMS) — to recover the histogram.

#ifndef FELIP_FO_SQUARE_WAVE_H_
#define FELIP_FO_SQUARE_WAVE_H_

#include <cstdint>
#include <vector>

#include "felip/common/rng.h"

namespace felip::fo {

// The optimal half-width b for a given epsilon.
double SquareWaveHalfWidth(double epsilon);

class SwClient {
 public:
  SwClient(double epsilon, uint32_t domain);

  // Perturbs `value` in [0, domain); the report lies in [-b, 1+b].
  double Perturb(uint32_t value, Rng& rng) const;

  double b() const { return b_; }
  double p() const { return p_; }
  double q() const { return q_; }
  uint32_t domain() const { return domain_; }

 private:
  uint32_t domain_;
  double b_;
  double p_;  // in-window density
  double q_;  // out-of-window density
};

struct SwServerOptions {
  int em_iterations = 400;
  double em_threshold = 1e-7;  // stop when the estimate stops moving
  // EMS: convolve the estimate with a [1,2,1]/4 kernel each M-step, which
  // regularizes small-sample reconstructions.
  bool smoothing = true;
};

class SwServer {
 public:
  SwServer(double epsilon, uint32_t domain, SwServerOptions options = {});

  // Accumulates one perturbed report (must lie in [-b, 1+b]; reports from
  // hostile clients outside the support are clamped to the boundary).
  void Add(double report);

  // EM-reconstructed histogram over the `domain` input bins; non-negative,
  // sums to 1.
  std::vector<double> EstimateFrequencies() const;

  uint64_t num_reports() const { return num_reports_; }
  uint32_t num_buckets() const {
    return static_cast<uint32_t>(bucket_counts_.size());
  }
  const std::vector<uint64_t>& bucket_counts() const {
    return bucket_counts_;
  }

 private:
  // Output bucket of one (clamped) report.
  uint32_t BucketOf(double report) const;

  uint32_t domain_;
  SwServerOptions options_;
  double b_;
  double p_;
  double q_;
  uint64_t num_reports_ = 0;
  // Output buckets over [-b, 1+b].
  std::vector<uint64_t> bucket_counts_;
  // transition_[j * domain + i] = Pr[report in bucket j | true bin i].
  std::vector<double> transition_;
};

}  // namespace felip::fo

#endif  // FELIP_FO_SQUARE_WAVE_H_
