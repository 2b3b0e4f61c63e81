// The serial Algorithm 4 loops that post::FitSignCombinations and
// post::EstimateLambdaQueryQuadrants ran before every fit went through
// simd::FitIpf, copied literally. The differential and property tests pin
// the kernel to them bit for bit. The only addition is `sweeps`, which
// reports how many sweeps ran so a test can check that its batch mixes
// early and late convergence and the iteration cap.

#ifndef FELIP_TESTS_SUPPORT_LAMBDA_REFERENCE_H_
#define FELIP_TESTS_SUPPORT_LAMBDA_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "felip/common/numeric.h"
#include "felip/post/lambda_estimator.h"

namespace felip::test_support {

// Full fitted vector of the paper's fit (FitSignCombinations).
inline std::vector<double> ReferenceFitSignCombinations(
    uint32_t lambda, const std::vector<double>& pair_answers,
    const post::LambdaEstimatorOptions& options, int* sweeps = nullptr) {
  using post::PairIndex;
  const uint32_t size = 1u << lambda;
  std::vector<double> z(size, 1.0 / static_cast<double>(size));

  // Clamp the noisy 2-D answers into [0, 1].
  std::vector<double> targets(pair_answers.size());
  for (size_t i = 0; i < pair_answers.size(); ++i) {
    targets[i] = std::clamp(pair_answers[i], 0.0, 1.0);
  }

  // Enumerate constrained index sets once: for pair (i, j), the entries
  // with bits i and j set.
  std::vector<std::vector<uint32_t>> constrained(pair_answers.size());
  for (uint32_t i = 0; i < lambda; ++i) {
    for (uint32_t j = i + 1; j < lambda; ++j) {
      std::vector<uint32_t>& set = constrained[PairIndex(i, j, lambda)];
      const uint32_t need = (1u << i) | (1u << j);
      for (uint32_t mask = 0; mask < size; ++mask) {
        if ((mask & need) == need) set.push_back(mask);
      }
    }
  }

  int ran = 0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++ran;
    double total_change = 0.0;
    for (size_t c = 0; c < constrained.size(); ++c) {
      double sum = 0.0;
      for (const uint32_t mask : constrained[c]) sum += z[mask];
      if (sum <= 0.0) continue;  // Algorithm 4 line 6: skip Y == 0
      const double scale = targets[c] / sum;
      if (scale == 1.0) continue;
      for (const uint32_t mask : constrained[c]) {
        const double updated = z[mask] * scale;
        total_change += std::fabs(updated - z[mask]);
        z[mask] = updated;
      }
    }
    if (total_change < options.threshold) break;
  }
  if (sweeps != nullptr) *sweeps = ran;
  return z;
}

// EstimateLambdaQuery: λ == 2 passes the clamped answer through.
inline double ReferenceEstimateLambdaQuery(
    uint32_t lambda, const std::vector<double>& pair_answers,
    const post::LambdaEstimatorOptions& options, int* sweeps = nullptr) {
  if (lambda == 2) return std::clamp(pair_answers[0], 0.0, 1.0);
  return ReferenceFitSignCombinations(lambda, pair_answers, options,
                                      sweeps)[(1u << lambda) - 1];
}

// EstimateLambdaQueryQuadrants.
inline double ReferenceEstimateLambdaQueryQuadrants(
    uint32_t lambda, const std::vector<double>& pair_answers,
    const std::vector<double>& marginal_answers,
    const post::LambdaEstimatorOptions& options, int* sweeps = nullptr) {
  using post::PairIndex;
  if (lambda == 2) return std::clamp(pair_answers[0], 0.0, 1.0);

  const uint32_t size = 1u << lambda;
  std::vector<double> z(size, 1.0 / static_cast<double>(size));

  // Four constraints per pair, one per sign quadrant; targets follow from
  // inclusion–exclusion and are clamped into a consistent simplex.
  struct Constraint {
    std::vector<uint32_t> masks;
    double target;
  };
  std::vector<Constraint> constraints;
  constraints.reserve(4 * pair_answers.size());
  for (uint32_t i = 0; i < lambda; ++i) {
    for (uint32_t j = i + 1; j < lambda; ++j) {
      const double f = std::clamp(pair_answers[PairIndex(i, j, lambda)],
                                  0.0, 1.0);
      const double mi = std::clamp(marginal_answers[i], f, 1.0);
      const double mj = std::clamp(marginal_answers[j], f, 1.0);
      double t11 = f;
      double t10 = mi - f;
      double t01 = mj - f;
      double t00 = std::max(0.0, 1.0 - mi - mj + f);
      // Renormalize the quadrant targets so each pair's constraints are
      // mutually consistent (sum to 1).
      const double total = t11 + t10 + t01 + t00;
      if (total > 0.0) {
        t11 /= total;
        t10 /= total;
        t01 /= total;
        t00 /= total;
      }
      const uint32_t bit_i = 1u << i;
      const uint32_t bit_j = 1u << j;
      Constraint c11{{}, t11};
      Constraint c10{{}, t10};
      Constraint c01{{}, t01};
      Constraint c00{{}, t00};
      for (uint32_t mask = 0; mask < size; ++mask) {
        const bool has_i = (mask & bit_i) != 0;
        const bool has_j = (mask & bit_j) != 0;
        if (has_i && has_j) {
          c11.masks.push_back(mask);
        } else if (has_i) {
          c10.masks.push_back(mask);
        } else if (has_j) {
          c01.masks.push_back(mask);
        } else {
          c00.masks.push_back(mask);
        }
      }
      constraints.push_back(std::move(c11));
      constraints.push_back(std::move(c10));
      constraints.push_back(std::move(c01));
      constraints.push_back(std::move(c00));
    }
  }

  int ran = 0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++ran;
    double total_change = 0.0;
    for (const Constraint& c : constraints) {
      double sum = 0.0;
      for (const uint32_t mask : c.masks) sum += z[mask];
      if (sum <= 0.0) continue;
      const double scale = c.target / sum;
      if (scale == 1.0) continue;
      for (const uint32_t mask : c.masks) {
        const double updated = z[mask] * scale;
        total_change += std::fabs(updated - z[mask]);
        z[mask] = updated;
      }
    }
    if (total_change < options.threshold) break;
  }
  if (sweeps != nullptr) *sweeps = ran;
  return z[size - 1];
}

}  // namespace felip::test_support

#endif  // FELIP_TESTS_SUPPORT_LAMBDA_REFERENCE_H_
