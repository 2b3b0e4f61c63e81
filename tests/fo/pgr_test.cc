#include "felip/fo/pgr.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"

namespace felip::fo {
namespace {

bool IsPrime(uint32_t n) {
  if (n < 2) return false;
  for (uint32_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

TEST(PgrParamsTest, FieldOrderIsSmallestAdmissiblePrime) {
  for (const double epsilon : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    const PgrParams params = PgrParams::Make(epsilon, 100);
    EXPECT_TRUE(IsPrime(params.q)) << "epsilon " << epsilon;
    const double floor =
        std::max(3.0, std::ceil(std::exp(epsilon) + 1.0));
    EXPECT_GE(static_cast<double>(params.q), floor);
    // No smaller prime satisfies the floor.
    for (uint32_t smaller = params.q - 1;
         smaller >= static_cast<uint32_t>(floor); --smaller) {
      EXPECT_FALSE(IsPrime(smaller)) << "q " << params.q << " not minimal";
    }
  }
}

TEST(PgrParamsTest, PointCountCoversDomainAtMinimalDimension) {
  for (const uint64_t domain : {2ull, 6ull, 31ull, 32ull, 1000ull}) {
    const PgrParams params = PgrParams::Make(1.0, domain);
    EXPECT_GE(params.t, 2u);
    EXPECT_GE(params.num_points, domain);
    // N = (q^t - 1) / (q - 1), and t is minimal.
    uint64_t n = 0;
    uint64_t power = 1;
    for (uint32_t i = 0; i < params.t; ++i) {
      n += power;
      power *= params.q;
    }
    EXPECT_EQ(params.num_points, n);
    if (params.t > 2) {
      const uint64_t prev = (n - power / params.q) ;
      EXPECT_LT(prev, domain) << "dimension t not minimal";
    }
  }
}

TEST(PgrParamsTest, SupportProbabilitiesAreAValidMechanism) {
  const PgrParams params = PgrParams::Make(1.0, 64);
  EXPECT_GT(params.p_star, params.q_star);
  EXPECT_GT(params.q_star, 0.0);
  EXPECT_LT(params.p_star, 1.0);
}

TEST(PgrClientTest, ReportsStayInPointRange) {
  PgrClient client(1.0, 50);
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t report = client.Perturb(i % 50, rng);
    EXPECT_LT(report, client.params().num_points);
  }
}

TEST(PgrClientTest, PerturbIsDeterministicGivenRngState) {
  PgrClient client(1.0, 50);
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(client.Perturb(i % 50, a), client.Perturb(i % 50, b));
  }
}

// The true value's point must be supported (non-orthogonal report) with
// probability p*: pin it empirically within 4 sigma.
TEST(PgrClientTest, SupportRateMatchesPStar) {
  constexpr uint64_t kDomain = 40;
  constexpr int kTrials = 50000;
  PgrClient client(1.0, kDomain);
  PgrServer server(1.0, kDomain);
  Rng rng(11);
  for (int i = 0; i < kTrials; ++i) server.Add(client.Perturb(3, rng));
  const double estimate = server.EstimateValue(3);
  const double p = client.params().p_star;
  const double q = client.params().q_star;
  const double sigma =
      std::sqrt(p * (1.0 - p) / kTrials) / (p - q);
  EXPECT_NEAR(estimate, 1.0, 4.0 * sigma);
}

std::vector<uint32_t> MakeReports(const PgrClient& client, uint64_t domain,
                                  size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> reports;
  reports.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    reports.push_back(client.Perturb(i % domain, rng));
  }
  return reports;
}

TEST(PgrServerTest, DirectAndFastDecodeAreBitIdentical) {
  // |D| close to N makes the fast path the interesting one; a small domain
  // exercises direct. Both must agree bitwise on identical counts.
  for (const uint64_t domain : {5ull, 30ull, 100ull}) {
    PgrClient client(1.0, domain);
    const std::vector<uint32_t> reports =
        MakeReports(client, domain, 20000, 13);
    PgrServer direct(1.0, domain, {.decode = PgrDecode::kDirect});
    PgrServer fast(1.0, domain, {.decode = PgrDecode::kFast});
    for (const uint32_t r : reports) {
      direct.Add(r);
      fast.Add(r);
    }
    const std::vector<double> a = direct.EstimateFrequencies();
    const std::vector<double> b = fast.EstimateFrequencies();
    ASSERT_EQ(a.size(), b.size());
    for (size_t v = 0; v < a.size(); ++v) {
      EXPECT_EQ(a[v], b[v]) << "domain " << domain << " value " << v;
    }
  }
}

TEST(PgrServerTest, RestoreStateContinuesBitIdentically) {
  constexpr uint64_t kDomain = 32;
  PgrClient client(1.0, kDomain);
  const std::vector<uint32_t> reports =
      MakeReports(client, kDomain, 10000, 19);
  PgrServer reference(1.0, kDomain);
  for (const uint32_t r : reports) reference.Add(r);

  PgrServer first_half(1.0, kDomain);
  for (size_t i = 0; i < reports.size() / 2; ++i) {
    first_half.Add(reports[i]);
  }
  PgrServer resumed(1.0, kDomain);
  resumed.RestoreState(first_half.counts(), first_half.num_reports());
  for (size_t i = reports.size() / 2; i < reports.size(); ++i) {
    resumed.Add(reports[i]);
  }
  EXPECT_EQ(resumed.counts(), reference.counts());
  const std::vector<double> a = reference.EstimateFrequencies();
  const std::vector<double> b = resumed.EstimateFrequencies();
  for (size_t v = 0; v < a.size(); ++v) EXPECT_EQ(a[v], b[v]);
}

TEST(PgrFeasibleTest, AcceptsOrdinaryRegimesAndRejectsOutOfRangeShapes) {
  EXPECT_TRUE(PgrFeasible(1.0, 1000));
  EXPECT_TRUE(PgrFeasible(2.5, 1000000));
  // Field order q = nextprime(ceil(e^eps + 1)) past 2^16: the cast that
  // used to be UB is now screened out as infeasible.
  EXPECT_FALSE(PgrFeasible(30.0, 100));
  // Point index must fit the uint32 report.
  EXPECT_FALSE(PgrFeasible(0.1, 5'000'000'000ull));
  EXPECT_FALSE(PgrFeasible(0.0, 100));
  EXPECT_FALSE(PgrFeasible(1.0, 0));
}

// The reviewer's regime: epsilon 2.5 and a 1e6 domain give q=17, t=6, so
// the fast DP table is 17^7 > 2^28 even though its operation count beats
// direct decode. kAuto must fall back to kDirect instead of aborting.
TEST(PgrDecodeTest, AutoNeverSelectsAGatedFastTable) {
  constexpr uint64_t kDomain = 1000000;
  const PgrParams params = PgrParams::Make(2.5, kDomain);
  EXPECT_EQ(params.q, 17u);
  EXPECT_EQ(params.t, 6u);
  EXPECT_EQ(ResolvePgrDecode(params, kDomain, PgrDecode::kAuto),
            PgrDecode::kDirect);
  // Explicit requests pass through untouched.
  EXPECT_EQ(ResolvePgrDecode(params, kDomain, PgrDecode::kDirect),
            PgrDecode::kDirect);
  EXPECT_EQ(ResolvePgrDecode(params, kDomain, PgrDecode::kFast),
            PgrDecode::kFast);
}

TEST(PgrDecodeTest, AutoStillPicksFastWhenTableFitsAndWins) {
  // epsilon 0.5 gives q=3; domain 3000 needs t=8 (N=3280). The table
  // 3^9 = 19683 fits easily and fast costs ~10^5 vs ~10^8 direct.
  constexpr uint64_t kDomain = 3000;
  const PgrParams params = PgrParams::Make(0.5, kDomain);
  EXPECT_EQ(params.q, 3u);
  EXPECT_EQ(ResolvePgrDecode(params, kDomain, PgrDecode::kAuto),
            PgrDecode::kFast);
}

TEST(PgrServerDeathTest, EstimateWithoutReportsAborts) {
  PgrServer server(1.0, 10);
  EXPECT_EQ(server.num_reports(), 0u);
  EXPECT_DEATH(server.EstimateFrequencies(), "no PGR reports");
}

}  // namespace
}  // namespace felip::fo
