#include "felip/post/lambda_estimator.h"

#include <algorithm>
#include <mutex>

#include "felip/common/check.h"
#include "felip/common/numeric.h"
#include "felip/simd/dispatch.h"
#include "felip/simd/kernels.h"

namespace felip::post {

namespace {

// Largest λ whose constraint masks are kept for the process once built
// (at most about 0.3 MB for both fits); larger λ build theirs per call.
constexpr uint32_t kCachedLambda = 10;

// λ's constraints as one flat list: each constraint's entries ascending,
// constraints in PairIndex order. The paper's fit has one constraint per
// pair (i, j), the entries with bits i and j set; the quadrant fit has
// four per pair, one per (bit i, bit j) quadrant, in the order (1,1),
// (1,0), (0,1), (0,0). Either way a constraint lists 2^(λ-2) entries.
std::vector<uint32_t> BuildMasks(uint32_t lambda, bool quadrants) {
  const uint32_t size = 1u << lambda;
  std::vector<uint32_t> masks;
  masks.reserve(Choose2(lambda) * (quadrants ? size : size / 4));
  for (uint32_t i = 0; i < lambda; ++i) {
    for (uint32_t j = i + 1; j < lambda; ++j) {
      const uint32_t bit_i = 1u << i;
      const uint32_t bit_j = 1u << j;
      const uint32_t wanted[4] = {bit_i | bit_j, bit_i, bit_j, 0};
      for (size_t q = 0; q < (quadrants ? 4u : 1u); ++q) {
        for (uint32_t mask = 0; mask < size; ++mask) {
          if ((mask & (bit_i | bit_j)) == wanted[q]) masks.push_back(mask);
        }
      }
    }
  }
  return masks;
}

const std::vector<uint32_t>& CachedMasks(uint32_t lambda, bool quadrants) {
  static std::once_flag built[2][kCachedLambda + 1];
  static std::vector<uint32_t> masks[2][kCachedLambda + 1];
  std::call_once(built[quadrants][lambda], [&] {
    masks[quadrants][lambda] = BuildMasks(lambda, quadrants);
  });
  return masks[quadrants][lambda];
}

// Appends one query's constraint targets in constraint order: the
// clamped pair answers, or, given the per-attribute marginals, the four
// quadrant targets of every pair.
void AppendTargets(uint32_t lambda, const double* pair_answers,
                   const double* marginal_answers,
                   std::vector<double>* targets) {
  if (marginal_answers == nullptr) {
    for (size_t p = 0; p < Choose2(lambda); ++p) {
      targets->push_back(std::clamp(pair_answers[p], 0.0, 1.0));
    }
    return;
  }
  // Targets follow from inclusion–exclusion and are clamped into a
  // consistent simplex.
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
      targets->insert(targets->end(), {t11, t10, t01, t00});
    }
  }
}

// Fits n queries of one λ together in the simd::FitIpf lanes: the paper's
// fit when `marginal_answers` is null, else the quadrant fit. Returns
// entries [first_kept, 2^λ) of every query's fitted vector, query-major.
std::vector<double> Fit(uint32_t lambda, size_t n,
                        const double* pair_answers,
                        const double* marginal_answers,
                        const LambdaEstimatorOptions& options,
                        uint32_t first_kept) {
  const bool quadrants = marginal_answers != nullptr;
  std::vector<uint32_t> uncached;
  if (lambda > kCachedLambda) uncached = BuildMasks(lambda, quadrants);
  const std::vector<uint32_t>& masks =
      lambda > kCachedLambda ? uncached : CachedMasks(lambda, quadrants);

  const auto pairs = static_cast<uint32_t>(Choose2(lambda));
  simd::IpfLayout layout;
  layout.size = 1u << lambda;
  layout.num_constraints = quadrants ? 4 * pairs : pairs;
  layout.per_constraint = layout.size / 4;
  layout.masks = masks.data();

  std::vector<double> targets;
  targets.reserve(n * layout.num_constraints);
  for (size_t q = 0; q < n; ++q) {
    AppendTargets(lambda, pair_answers + q * pairs,
                  quadrants ? marginal_answers + q * lambda : nullptr,
                  &targets);
  }
  std::vector<double> fitted(n * (layout.size - first_kept));
  simd::FitIpf(simd::ActiveLevel(), layout, targets.data(), n,
               options.threshold, options.max_iterations, first_kept,
               fitted.data());
  return fitted;
}

void CheckLambda(uint32_t lambda) {
  FELIP_CHECK(lambda >= 2);
  FELIP_CHECK_MSG(lambda <= 20, "2^lambda table would be too large");
}

}  // namespace

uint32_t PairIndex(uint32_t i, uint32_t j, uint32_t lambda) {
  FELIP_CHECK(i < j && j < lambda);
  return static_cast<uint32_t>(PairRank(i, j, lambda));
}

std::vector<double> FitSignCombinations(
    uint32_t lambda, const std::vector<double>& pair_answers,
    const LambdaEstimatorOptions& options) {
  CheckLambda(lambda);
  FELIP_CHECK(pair_answers.size() == Choose2(lambda));
  return Fit(lambda, 1, pair_answers.data(), nullptr, options, 0);
}

std::vector<double> EstimateLambdaQueries(
    uint32_t lambda, std::span<const double> pair_answers,
    std::span<const double> marginal_answers,
    const LambdaEstimatorOptions& options) {
  CheckLambda(lambda);
  const size_t pairs = Choose2(lambda);
  FELIP_CHECK(pair_answers.size() % pairs == 0);
  const size_t n = pair_answers.size() / pairs;
  const bool quadrants = !marginal_answers.empty();
  FELIP_CHECK(!quadrants || marginal_answers.size() == n * lambda);
  if (lambda == 2) {
    std::vector<double> estimates(n);
    for (size_t q = 0; q < n; ++q) {
      estimates[q] = std::clamp(pair_answers[q], 0.0, 1.0);
    }
    return estimates;
  }
  return Fit(lambda, n, pair_answers.data(),
             quadrants ? marginal_answers.data() : nullptr, options,
             (1u << lambda) - 1);
}

double EstimateLambdaQuery(uint32_t lambda,
                           const std::vector<double>& pair_answers,
                           const LambdaEstimatorOptions& options) {
  FELIP_CHECK(pair_answers.size() == Choose2(lambda));
  return EstimateLambdaQueries(lambda, pair_answers, {}, options)[0];
}

double EstimateLambdaQueryQuadrants(
    uint32_t lambda, const std::vector<double>& pair_answers,
    const std::vector<double>& marginal_answers,
    const LambdaEstimatorOptions& options) {
  FELIP_CHECK(pair_answers.size() == Choose2(lambda));
  FELIP_CHECK(marginal_answers.size() == lambda);
  return EstimateLambdaQueries(lambda, pair_answers, marginal_answers,
                               options)[0];
}

}  // namespace felip::post
