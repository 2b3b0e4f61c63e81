// λ-D query estimation from associated 2-D answers (Algorithm 4).
//
// A λ-dimensional query q is split into its C(λ,2) associated 2-D queries.
// The estimator maintains a vector z of 2^λ entries, one per
// sign-combination of the λ predicates (bit t set = predicate t holds,
// clear = its complement holds). Each 2-D answer f^(i,j) constrains the
// 2^(λ-2) entries with bits i and j set; iterating the proportional rescale
// from the uniform start converges, and z[all bits set] is the estimate.
//
// Every entry point fits through one kernel, simd::FitIpf, which fits the
// queries of one λ side by side in SIMD lanes; a query's answer is
// bit-identical whether it is fitted alone or in any batch.

#ifndef FELIP_POST_LAMBDA_ESTIMATOR_H_
#define FELIP_POST_LAMBDA_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <vector>

namespace felip::post {

struct LambdaEstimatorOptions {
  // Convergence: total absolute change of z per sweep below this; the
  // paper recommends < 1/n.
  double threshold = 1e-7;
  int max_iterations = 500;
};

// Index of pair (i, j), i < j < lambda, in the lexicographic pair order
// used by EstimateLambdaQuery's `pair_answers`.
uint32_t PairIndex(uint32_t i, uint32_t j, uint32_t lambda);

// Estimates the λ-D answer from the C(λ,2) associated 2-D answers (indexed
// by PairIndex). Answers are clamped to [0, 1] before fitting. Requires
// lambda >= 2 (λ == 2 returns the single pair answer directly) and
// lambda <= 20.
double EstimateLambdaQuery(uint32_t lambda,
                           const std::vector<double>& pair_answers,
                           const LambdaEstimatorOptions& options = {});

// Full fitted vector z (exposed for tests; size 2^λ, sums to ~1 when the
// inputs are consistent).
std::vector<double> FitSignCombinations(
    uint32_t lambda, const std::vector<double>& pair_answers,
    const LambdaEstimatorOptions& options = {});

// Quadrant-fit extension (beyond the paper): Algorithm 4 constrains only
// the 2^(λ-2) entries where both pair predicates hold, which leaves the
// fit underdetermined — e.g. a query whose associated 2-D answers are all
// 1 converges to ~0.77 instead of 1. Given the per-attribute marginal
// answers m_t, the other three quadrants of every pair follow by
// inclusion–exclusion (f(+,-) = m_i - f(+,+), ...), turning the update
// into proper iterative proportional fitting on complete pairwise
// marginals. Enabled in FELIP via FelipConfig::lambda_quadrant_fit.
double EstimateLambdaQueryQuadrants(
    uint32_t lambda, const std::vector<double>& pair_answers,
    const std::vector<double>& marginal_answers,
    const LambdaEstimatorOptions& options = {});

// Batch form of EstimateLambdaQuery and EstimateLambdaQueryQuadrants for
// n queries of one λ (2 <= λ <= 20), fitted in one kernel call.
// `pair_answers` holds n * C(λ,2) answers, query-major in PairIndex order.
// `marginal_answers` is empty for the paper's fit, or holds n * λ
// per-attribute answers for the quadrant fit. estimates[q] is
// bit-identical to the single-query call on query q's answers.
std::vector<double> EstimateLambdaQueries(
    uint32_t lambda, std::span<const double> pair_answers,
    std::span<const double> marginal_answers,
    const LambdaEstimatorOptions& options = {});

}  // namespace felip::post

#endif  // FELIP_POST_LAMBDA_ESTIMATOR_H_
