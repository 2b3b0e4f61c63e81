// Differential harness for the lane-batched Algorithm 4 kernel
// (simd::FitIpf): at every compiled-and-supported dispatch level, every
// λ from 3 to 9, every batch size from 1 to 9 (partial and refilled
// lanes at every lane width), both constraint layouts (the paper's fit
// and the quadrant fit) and adversarial pair answers (all 0, all 1,
// inconsistent, non-finite), each query's answer must carry the same
// bits as the serial loop the estimator ran before the kernel existed
// (support/lambda_reference.h), whatever the rest of its batch.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/numeric.h"
#include "felip/post/lambda_estimator.h"
#include "felip/simd/dispatch.h"
#include "felip/simd/kernels.h"
#include "support/lambda_reference.h"

namespace felip::simd {
namespace {

using post::LambdaEstimatorOptions;
using test_support::ReferenceEstimateLambdaQuery;
using test_support::ReferenceEstimateLambdaQueryQuadrants;
using test_support::ReferenceFitSignCombinations;

std::vector<Level> RunnableLevels() {
  std::vector<Level> levels;
  for (const Level level : CompiledLevels()) {
    if (LevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// One query's inputs: C(λ,2) pair answers and λ marginals.
struct Problem {
  std::vector<double> pairs;
  std::vector<double> marginals;
};

// The input kinds the pool cycles through. Consistent inputs come from a
// random joint distribution over the 2^λ sign combinations, so the fit
// converges; kZeroPair's distribution has no mass where predicates 0 and
// 1 both hold, so that pair's constraint is skipped (sum 0) on every
// sweep after the first while the rest converge. The others stress the
// skips and the iteration cap.
enum class Kind {
  kConsistent,
  kZeroPair,
  kZeros,
  kOnes,
  kInconsistent,
  kMixed,
};

Problem MakeProblem(uint32_t lambda, Kind kind, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> wide(-0.3, 1.3);
  const uint32_t size = 1u << lambda;
  Problem p;
  p.pairs.resize(Choose2(lambda));
  p.marginals.resize(lambda);
  if (kind == Kind::kConsistent || kind == Kind::kZeroPair) {
    std::vector<double> joint(size);
    double total = 0.0;
    for (uint32_t m = 0; m < size; ++m) {
      const bool empty = kind == Kind::kZeroPair && (m & 3u) == 3u;
      total += joint[m] = empty ? 0.0 : unit(rng);
    }
    for (uint32_t i = 0; i < lambda; ++i) {
      for (uint32_t j = i + 1; j < lambda; ++j) {
        const uint32_t need = (1u << i) | (1u << j);
        double f = 0.0;
        for (uint32_t m = 0; m < size; ++m) {
          if ((m & need) == need) f += joint[m] / total;
        }
        p.pairs[post::PairIndex(i, j, lambda)] = f;
      }
      double m_i = 0.0;
      for (uint32_t m = 0; m < size; ++m) {
        if ((m >> i) & 1u) m_i += joint[m] / total;
      }
      p.marginals[i] = m_i;
    }
    return p;
  }
  for (size_t k = 0; k < p.pairs.size(); ++k) {
    switch (kind) {
      case Kind::kZeros:
        p.pairs[k] = 0.0;
        break;
      case Kind::kOnes:
        p.pairs[k] = 1.0;
        break;
      case Kind::kInconsistent:
        p.pairs[k] = wide(rng);
        break;
      default: {
        const double choices[] = {0.0, 1.0, wide(rng), unit(rng) * 1e-300};
        p.pairs[k] = choices[rng() % 4];
        break;
      }
    }
  }
  for (double& m : p.marginals) m = wide(rng);
  return p;
}

// A pool of nine problems per λ covering every kind, three of them with a
// non-finite pair answer (±inf clamp into range; NaN poisons its query
// until the cap), in a scrambled order.
std::vector<Problem> MakePool(uint32_t lambda, std::mt19937_64& rng) {
  const Kind kinds[] = {Kind::kConsistent,   Kind::kInconsistent,
                        Kind::kZeros,        Kind::kMixed,
                        Kind::kZeroPair,     Kind::kOnes,
                        Kind::kInconsistent, Kind::kMixed,
                        Kind::kMixed};
  std::vector<Problem> pool;
  for (const Kind kind : kinds) pool.push_back(MakeProblem(lambda, kind, rng));
  pool[6].pairs[2] = std::numeric_limits<double>::quiet_NaN();
  pool[7].pairs[0] = std::numeric_limits<double>::infinity();
  pool[8].pairs[1] = -std::numeric_limits<double>::infinity();
  return pool;
}

// Checks one layout for λ 3..9: every batch size 1..9 drawn from the
// pool at a rotating offset, at every level, against the reference.
void CheckBatches(bool quadrants, const LambdaEstimatorOptions& options,
                  bool expect_cap) {
  std::mt19937_64 rng(quadrants ? 911 : 419);
  for (uint32_t lambda = 3; lambda <= 9; ++lambda) {
    const std::vector<Problem> pool = MakePool(lambda, rng);
    std::vector<double> expected(pool.size());
    std::set<int> sweep_counts;
    for (size_t q = 0; q < pool.size(); ++q) {
      int sweeps = 0;
      expected[q] = quadrants
                        ? ReferenceEstimateLambdaQueryQuadrants(
                              lambda, pool[q].pairs, pool[q].marginals,
                              options, &sweeps)
                        : ReferenceEstimateLambdaQuery(lambda, pool[q].pairs,
                                                       options, &sweeps);
      sweep_counts.insert(sweeps);
    }
    // The pool must make lanes stop on different sweeps.
    EXPECT_GE(sweep_counts.size(), 3u) << "lambda=" << lambda;
    if (expect_cap) {
      EXPECT_EQ(*sweep_counts.rbegin(), options.max_iterations)
          << "lambda=" << lambda;
    }

    for (size_t n = 1; n <= pool.size(); ++n) {
      std::vector<size_t> order;
      std::vector<double> pairs;
      std::vector<double> marginals;
      for (size_t k = 0; k < n; ++k) {
        const size_t q = (n + 2 * k) % pool.size();
        order.push_back(q);
        pairs.insert(pairs.end(), pool[q].pairs.begin(), pool[q].pairs.end());
        marginals.insert(marginals.end(), pool[q].marginals.begin(),
                         pool[q].marginals.end());
      }
      if (!quadrants) marginals.clear();
      for (const Level level : RunnableLevels()) {
        ScopedLevelOverride pin(level);
        const std::vector<double> got =
            post::EstimateLambdaQueries(lambda, pairs, marginals, options);
        ASSERT_EQ(got.size(), n);
        for (size_t k = 0; k < n; ++k) {
          EXPECT_EQ(Bits(got[k]), Bits(expected[order[k]]))
              << "level=" << LevelName(level) << " lambda=" << lambda
              << " n=" << n << " query=" << order[k] << " got=" << got[k]
              << " want=" << expected[order[k]];
        }
      }
    }
  }
}

TEST(IpfDifferentialTest, PaperFitBatchesMatchSerialLoop) {
  LambdaEstimatorOptions options;
  options.max_iterations = 120;  // inconsistent inputs reach it
  CheckBatches(/*quadrants=*/false, options, /*expect_cap=*/true);
}

TEST(IpfDifferentialTest, QuadrantFitBatchesMatchSerialLoop) {
  LambdaEstimatorOptions options;
  options.max_iterations = 120;
  CheckBatches(/*quadrants=*/true, options, /*expect_cap=*/true);
}

TEST(IpfDifferentialTest, DefaultOptionsMatchSerialLoop) {
  CheckBatches(/*quadrants=*/false, LambdaEstimatorOptions{},
               /*expect_cap=*/false);
}

// Small caps, including none at all: every lane stops on the cap, and a
// zero threshold never lets a lane converge first.
TEST(IpfDifferentialTest, IterationCapMatchesSerialLoop) {
  std::mt19937_64 rng(5);
  for (const int cap : {0, 1, 2, 7}) {
    for (const double threshold : {0.0, 1e-3}) {
      LambdaEstimatorOptions options;
      options.max_iterations = cap;
      options.threshold = threshold;
      for (uint32_t lambda = 3; lambda <= 6; ++lambda) {
        const std::vector<Problem> pool = MakePool(lambda, rng);
        std::vector<double> pairs;
        std::vector<double> marginals;
        for (const Problem& p : pool) {
          pairs.insert(pairs.end(), p.pairs.begin(), p.pairs.end());
          marginals.insert(marginals.end(), p.marginals.begin(),
                           p.marginals.end());
        }
        for (const Level level : RunnableLevels()) {
          ScopedLevelOverride pin(level);
          const std::vector<double> paper =
              post::EstimateLambdaQueries(lambda, pairs, {}, options);
          const std::vector<double> quad =
              post::EstimateLambdaQueries(lambda, pairs, marginals, options);
          for (size_t q = 0; q < pool.size(); ++q) {
            EXPECT_EQ(Bits(paper[q]),
                      Bits(ReferenceEstimateLambdaQuery(lambda, pool[q].pairs,
                                                        options)))
                << "level=" << LevelName(level) << " cap=" << cap
                << " lambda=" << lambda << " query=" << q;
            EXPECT_EQ(Bits(quad[q]),
                      Bits(ReferenceEstimateLambdaQueryQuadrants(
                          lambda, pool[q].pairs, pool[q].marginals, options)))
                << "level=" << LevelName(level) << " cap=" << cap
                << " lambda=" << lambda << " query=" << q;
          }
        }
      }
    }
  }
}

// The kernel itself, every entry of every fitted vector, in batches that
// mix lanes that skip a constraint with lanes that rescale on it: the
// kZeroPair lane's estimate is 0 however long it runs, so only its full
// vector shows whether a skipped step leaked into its convergence test.
TEST(IpfDifferentialTest, BatchedFullVectorsMatchSerialLoop) {
  std::mt19937_64 rng(23);
  const LambdaEstimatorOptions options;
  for (uint32_t lambda = 3; lambda <= 7; ++lambda) {
    const uint32_t size = 1u << lambda;
    // The paper's layout: pair (i, j) in PairIndex order rescales the
    // entries with bits i and j set, ascending.
    std::vector<uint32_t> masks;
    for (uint32_t i = 0; i < lambda; ++i) {
      for (uint32_t j = i + 1; j < lambda; ++j) {
        const uint32_t need = (1u << i) | (1u << j);
        for (uint32_t m = 0; m < size; ++m) {
          if ((m & need) == need) masks.push_back(m);
        }
      }
    }
    IpfLayout layout;
    layout.size = size;
    layout.num_constraints = static_cast<uint32_t>(Choose2(lambda));
    layout.per_constraint = size / 4;
    layout.masks = masks.data();

    const std::vector<Problem> pool = MakePool(lambda, rng);
    std::vector<double> targets;
    std::vector<double> want;
    for (const Problem& p : pool) {
      for (const double f : p.pairs) targets.push_back(std::clamp(f, 0.0, 1.0));
      const std::vector<double> z =
          ReferenceFitSignCombinations(lambda, p.pairs, options);
      want.insert(want.end(), z.begin(), z.end());
    }
    for (const Level level : RunnableLevels()) {
      std::vector<double> got(pool.size() * size);
      FitIpf(level, layout, targets.data(), pool.size(), options.threshold,
             options.max_iterations, 0, got.data());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(Bits(got[i]), Bits(want[i]))
            << "level=" << LevelName(level) << " lambda=" << lambda
            << " query=" << i / size << " entry=" << i % size;
      }
    }
  }
}

// The single-query wrappers, including every entry of the fitted vector.
TEST(IpfDifferentialTest, SingleQueryWrappersMatchSerialLoop) {
  std::mt19937_64 rng(77);
  const LambdaEstimatorOptions options;
  for (uint32_t lambda = 2; lambda <= 9; ++lambda) {
    for (const Kind kind :
         {Kind::kConsistent, Kind::kZeroPair, Kind::kInconsistent,
          Kind::kMixed, Kind::kZeros, Kind::kOnes}) {
      const Problem p = MakeProblem(lambda, kind, rng);
      const std::vector<double> want =
          ReferenceFitSignCombinations(lambda, p.pairs, options);
      for (const Level level : RunnableLevels()) {
        ScopedLevelOverride pin(level);
        const std::vector<double> got =
            post::FitSignCombinations(lambda, p.pairs, options);
        ASSERT_EQ(got.size(), want.size());
        for (size_t e = 0; e < want.size(); ++e) {
          EXPECT_EQ(Bits(got[e]), Bits(want[e]))
              << "level=" << LevelName(level) << " lambda=" << lambda
              << " entry=" << e;
        }
        EXPECT_EQ(Bits(post::EstimateLambdaQuery(lambda, p.pairs, options)),
                  Bits(ReferenceEstimateLambdaQuery(lambda, p.pairs, options)))
            << "level=" << LevelName(level) << " lambda=" << lambda;
        EXPECT_EQ(Bits(post::EstimateLambdaQueryQuadrants(
                      lambda, p.pairs, p.marginals, options)),
                  Bits(ReferenceEstimateLambdaQueryQuadrants(
                      lambda, p.pairs, p.marginals, options)))
            << "level=" << LevelName(level) << " lambda=" << lambda;
      }
    }
  }
}

}  // namespace
}  // namespace felip::simd
