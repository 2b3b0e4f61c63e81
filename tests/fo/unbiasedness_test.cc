// Statistical test harness for every frequency oracle: aggregate ~200k
// perturbed reports at a fixed seed through the server's Add() and
// require every debiased cell to land within 4 sigma
// of the exact empirical truth, with sigma from the closed-form variance
// of the protocol's estimator.
//
// For the support-counting protocols (GRR, OLH, OUE) the estimator is
// f_hat(v) = (C(v)/n - q) / (p - q) where C(v) sums independent Bernoulli
// support indicators: probability p for the n_v users whose true value is
// v and q for the other n - n_v users. Its exact variance is
//
//   Var[f_hat(v)] = (n_v p(1-p) + (n - n_v) q(1-q)) / (n (p - q))^2
//
// which is what the tests use (the textbook OlhVariance/OueVariance forms
// are this expression at n_v = 0). Square Wave's EM reconstruction has no
// closed form and gets an empirical error bound instead.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/fo/fldp.h"
#include "felip/fo/grr.h"
#include "felip/fo/olh.h"
#include "felip/fo/oue.h"
#include "felip/fo/pgr.h"
#include "felip/fo/protocol.h"
#include "felip/fo/square_wave.h"

namespace felip::fo {
namespace {

constexpr double kEpsilon = 1.0;
constexpr uint64_t kDomain = 64;
constexpr size_t kNumReports = 200000;
constexpr double kSigmas = 4.0;

// Skewed deterministic population: a quarter of the users hold value 0,
// the rest cycle through the domain.
std::vector<uint64_t> TrueValues(uint64_t domain = kDomain) {
  std::vector<uint64_t> values;
  values.reserve(kNumReports);
  for (size_t i = 0; i < kNumReports; ++i) {
    values.push_back(i % 4 == 0 ? 0 : i % domain);
  }
  return values;
}

std::vector<uint64_t> TrueCounts(const std::vector<uint64_t>& values,
                                 uint64_t domain) {
  std::vector<uint64_t> counts(domain, 0);
  for (const uint64_t v : values) ++counts[v];
  return counts;
}

// Exact variance of the support-count estimator at cell v (see header
// comment), given the support probabilities p (true value) and q (other).
double SupportVariance(uint64_t true_count, size_t n, double p, double q) {
  const double nv = static_cast<double>(true_count);
  const double rest = static_cast<double>(n) - nv;
  const double count_var = nv * p * (1.0 - p) + rest * q * (1.0 - q);
  const double denom = static_cast<double>(n) * (p - q);
  return count_var / (denom * denom);
}

// Every cell of `estimates` must be within kSigmas * sigma(v) of the
// empirical truth.
void ExpectCellsWithinSigma(const std::vector<double>& estimates,
                            const std::vector<uint64_t>& counts, size_t n,
                            const std::function<double(uint64_t)>& variance,
                            const char* label) {
  ASSERT_EQ(estimates.size(), counts.size());
  for (size_t v = 0; v < estimates.size(); ++v) {
    const double truth = static_cast<double>(counts[v]) / n;
    const double sigma = std::sqrt(variance(v));
    EXPECT_NEAR(estimates[v], truth, kSigmas * sigma)
        << label << " cell " << v << " truth " << truth << " sigma "
        << sigma;
  }
}

TEST(UnbiasednessTest, GrrWithinFourSigma) {
  const std::vector<uint64_t> values = TrueValues();
  const std::vector<uint64_t> counts = TrueCounts(values, kDomain);
  GrrClient client(kEpsilon, kDomain);
  Rng rng(20260801);
  std::vector<uint64_t> reports;
  reports.reserve(values.size());
  for (const uint64_t v : values) reports.push_back(client.Perturb(v, rng));

  GrrServer server(kEpsilon, kDomain);
  for (const auto& r : reports) server.Add(r);
  ASSERT_EQ(server.num_reports(), kNumReports);

  const double e = std::exp(kEpsilon);
  const double p = e / (e + static_cast<double>(kDomain) - 1.0);
  const double q = (1.0 - p) / (static_cast<double>(kDomain) - 1.0);
  ExpectCellsWithinSigma(
      server.EstimateFrequencies(), counts, kNumReports,
      [&](uint64_t v) { return SupportVariance(counts[v], kNumReports, p, q); },
      "GRR");
}

void RunOlhCase(OlhOptions options, uint64_t seed, const char* label) {
  const std::vector<uint64_t> values = TrueValues();
  const std::vector<uint64_t> counts = TrueCounts(values, kDomain);
  OlhClient client(kEpsilon, kDomain, options);
  Rng rng(seed);
  std::vector<OlhReport> reports;
  reports.reserve(values.size());
  for (const uint64_t v : values) reports.push_back(client.Perturb(v, rng));

  OlhServer server(kEpsilon, kDomain, options);
  for (const auto& r : reports) server.Add(r);
  ASSERT_EQ(server.num_reports(), kNumReports);

  // Support probabilities: p for the true value; a non-true value is
  // supported when the report hashes onto it, 1/g on average over the
  // seed. (Hash collisions correlate same-seed users slightly in pool
  // mode; a 4096-seed pool keeps that term negligible at this n.)
  const double g = client.g();
  const double e = std::exp(kEpsilon);
  const double p = e / (e + g - 1.0);
  const double q = 1.0 / g;
  ExpectCellsWithinSigma(
      server.EstimateFrequencies(), counts, kNumReports,
      [&](uint64_t v) { return SupportVariance(counts[v], kNumReports, p, q); },
      label);
}

TEST(UnbiasednessTest, OlhPerUserSeedWithinFourSigma) {
  RunOlhCase(OlhOptions{}, 20260802, "OLH/per-user");
}

TEST(UnbiasednessTest, OlhSeedPoolWithinFourSigma) {
  RunOlhCase(OlhOptions{.seed_pool_size = 4096}, 20260803, "OLH/pool");
}

TEST(UnbiasednessTest, OueWithinFourSigma) {
  const std::vector<uint64_t> values = TrueValues();
  const std::vector<uint64_t> counts = TrueCounts(values, kDomain);
  OueClient client(kEpsilon, kDomain);
  Rng rng(20260804);
  std::vector<std::vector<uint8_t>> reports;
  reports.reserve(values.size());
  for (const uint64_t v : values) reports.push_back(client.Perturb(v, rng));

  OueServer server(kEpsilon, kDomain);
  for (const auto& r : reports) server.Add(r);
  ASSERT_EQ(server.num_reports(), kNumReports);

  const double p = 0.5;
  const double q = 1.0 / (std::exp(kEpsilon) + 1.0);
  ExpectCellsWithinSigma(
      server.EstimateFrequencies(), counts, kNumReports,
      [&](uint64_t v) { return SupportVariance(counts[v], kNumReports, p, q); },
      "OUE");
}

TEST(UnbiasednessTest, PgrWithinFourSigma) {
  // PGR's estimator is the standard debiased support count with the
  // projective-geometry support probabilities p*, q*: each report supports
  // the true value with probability p* and any other value with q*,
  // independently across users, so SupportVariance is exact here too.
  const std::vector<uint64_t> values = TrueValues();
  const std::vector<uint64_t> counts = TrueCounts(values, kDomain);
  PgrClient client(kEpsilon, kDomain);
  Rng rng(20260808);
  std::vector<uint32_t> reports;
  reports.reserve(values.size());
  for (const uint64_t v : values) reports.push_back(client.Perturb(v, rng));

  PgrServer server(kEpsilon, kDomain);
  for (const auto& r : reports) server.Add(r);
  ASSERT_EQ(server.num_reports(), kNumReports);

  const double p = client.params().p_star;
  const double q = client.params().q_star;
  ExpectCellsWithinSigma(
      server.EstimateFrequencies(), counts, kNumReports,
      [&](uint64_t v) { return SupportVariance(counts[v], kNumReports, p, q); },
      "PGR");
}

TEST(UnbiasednessTest, FldpWithinFourSigma) {
  // FLDP debiases each bucket against only the users whose public subset
  // covered it, with OUE's support probabilities p = 1/2 and
  // q = 1/(e^eps + 1). Conditional on the realized coverage n_b the
  // estimator is the support-count form over n_b users, so the exact
  // per-bucket sigma uses the realized coverage (recovered from the
  // server's per-pool counts and the public pool) instead of n.
  const FldpOptions options{.report_bits = 8, .subset_pool_size = 2048};
  const std::vector<uint64_t> values = TrueValues();
  const std::vector<uint64_t> counts = TrueCounts(values, kDomain);
  FldpClient client(kEpsilon, kDomain, options);
  Rng rng(20260809);
  std::vector<FldpReport> reports;
  reports.reserve(values.size());
  for (const uint64_t v : values) reports.push_back(client.Perturb(v, rng));

  FldpServer server(kEpsilon, kDomain, options);
  for (const auto& r : reports) server.Add(r);
  ASSERT_EQ(server.num_reports(), kNumReports);

  std::vector<uint64_t> coverage(kDomain, 0);
  for (uint32_t k = 0; k < options.subset_pool_size; ++k) {
    const uint32_t users = server.coverage_counts()[k];
    if (users == 0) continue;
    for (const uint32_t bucket : FldpSubset(options.pool_salt, k, kDomain,
                                            client.subset_size())) {
      coverage[bucket] += users;
    }
  }

  const double p = client.p();
  const double q = client.q();
  ExpectCellsWithinSigma(
      server.EstimateFrequencies(), counts, kNumReports,
      [&](uint64_t v) {
        // Subset choice is independent of the private value, so covered
        // users hold value v at the population rate.
        const uint64_t n_b = coverage[v];
        const double rate =
            static_cast<double>(counts[v]) / static_cast<double>(kNumReports);
        const uint64_t covered_true =
            static_cast<uint64_t>(rate * static_cast<double>(n_b));
        // SupportVariance is per-report over n users; rescale its
        // normalization from kNumReports to the realized coverage n_b.
        return SupportVariance(covered_true, n_b, p, q);
      },
      "FLDP");
}

TEST(UnbiasednessTest, SquareWaveEmpiricalErrorBound) {
  // The EM reconstruction has no closed-form variance; pin an empirical
  // max-cell-error bound plus the simplex invariants instead. Square Wave
  // targets smooth numerical distributions (the EM post-processing smears
  // point masses by design), so its population is bell-shaped: a sum of
  // four base-16 digits, ranging over [0, 60].
  constexpr uint32_t kSwDomain = 64;
  std::vector<uint64_t> values;
  values.reserve(kNumReports);
  for (size_t i = 0; i < kNumReports; ++i) {
    values.push_back(i % 16 + (i / 16) % 16 + (i / 256) % 16 +
                     (i / 4096) % 16);
  }
  const std::vector<uint64_t> counts = TrueCounts(values, kSwDomain);
  SwClient client(kEpsilon, kSwDomain);
  Rng rng(20260807);
  std::vector<double> reports;
  reports.reserve(values.size());
  for (const uint64_t v : values) {
    reports.push_back(client.Perturb(static_cast<uint32_t>(v), rng));
  }

  SwServer server(kEpsilon, kSwDomain);
  for (const auto& r : reports) server.Add(r);
  ASSERT_EQ(server.num_reports(), kNumReports);

  const std::vector<double> estimates = server.EstimateFrequencies();
  ASSERT_EQ(estimates.size(), kSwDomain);
  double total = 0.0;
  double max_error = 0.0;
  for (size_t v = 0; v < estimates.size(); ++v) {
    EXPECT_GE(estimates[v], 0.0) << "cell " << v;
    total += estimates[v];
    const double truth = static_cast<double>(counts[v]) / kNumReports;
    max_error = std::max(max_error, std::abs(estimates[v] - truth));
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
  // The bell peaks at ~0.028 per cell; a uniform reconstruction would be
  // off by ~0.012 at the peak, so 0.01 is a non-vacuous tracking bound.
  EXPECT_LT(max_error, 0.01);
}

}  // namespace
}  // namespace felip::fo
