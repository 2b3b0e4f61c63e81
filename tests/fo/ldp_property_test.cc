// Property tests for the eps-LDP guarantee itself: for every protocol the
// probability ratio between any two inputs producing the same output must
// be bounded by e^eps. For GRR we verify the empirical output distribution;
// for the encoding-based protocols we verify the exact per-component
// transition probabilities, which compose to the guarantee.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "felip/fo/grr.h"
#include "felip/fo/olh.h"
#include "felip/fo/oue.h"
#include "felip/fo/square_wave.h"

namespace felip::fo {
namespace {

class LdpRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(LdpRatioTest, GrrEmpiricalRatioBounded) {
  const double eps = GetParam();
  constexpr uint64_t kDomain = 6;
  constexpr int kTrials = 60000;
  const GrrClient client(eps, kDomain);
  Rng rng(1);
  // Empirical conditional distributions Pr[output | input v].
  std::vector<std::vector<double>> dist(kDomain,
                                        std::vector<double>(kDomain, 0.0));
  for (uint64_t v = 0; v < kDomain; ++v) {
    for (int t = 0; t < kTrials; ++t) {
      ++dist[v][client.Perturb(v, rng)];
    }
    for (double& p : dist[v]) p /= kTrials;
  }
  const double bound = std::exp(eps);
  for (uint64_t v1 = 0; v1 < kDomain; ++v1) {
    for (uint64_t v2 = 0; v2 < kDomain; ++v2) {
      for (uint64_t x = 0; x < kDomain; ++x) {
        // Sampling slack: 6 sigma of a binomial proportion.
        const double slack =
            6.0 * std::sqrt(dist[v2][x] / kTrials + 1e-9);
        EXPECT_LE(dist[v1][x], bound * (dist[v2][x] + slack) + 1e-6)
            << "eps=" << eps << " v1=" << v1 << " v2=" << v2 << " x=" << x;
      }
    }
  }
}

TEST_P(LdpRatioTest, OlhTransitionRatioExact) {
  const double eps = GetParam();
  const OlhClient client(eps, 100);
  // Given the (public) seed, the report is GRR over [0, g): ratio p/q.
  const double g = client.g();
  const double p = client.p();
  const double q = (1.0 - p) / (g - 1.0);
  EXPECT_LE(p / q, std::exp(eps) * (1.0 + 1e-9));
}

TEST_P(LdpRatioTest, OueBitwiseRatioComposes) {
  const double eps = GetParam();
  const OueClient client(eps, 50);
  // Exactly two bits differ between two inputs; each contributes its own
  // ratio, and the product must not exceed e^eps.
  const double p = client.p();  // 1/2
  const double q = client.q();  // 1/(e^eps + 1)
  const double ratio_one = p / q;                    // bit v1: 1 vs 0
  const double ratio_zero = (1.0 - q) / (1.0 - p);   // bit v2: 0 vs 1
  EXPECT_LE(ratio_one * ratio_zero, std::exp(eps) * (1.0 + 1e-9));
}

TEST_P(LdpRatioTest, SquareWaveDensityRatioExact) {
  const double eps = GetParam();
  const SwClient client(eps, 100);
  // The report density is p inside the window and q outside; any two
  // inputs shift the window, so the worst-case ratio is exactly p/q.
  EXPECT_LE(client.p() / client.q(), std::exp(eps) * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Epsilons, LdpRatioTest,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0));

}  // namespace
}  // namespace felip::fo
