#include "felip/fo/frequency_oracle.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "felip/fo/protocol.h"
#include "felip/fo/registry.h"

namespace felip::fo {
namespace {

class FrequencyOracleTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(FrequencyOracleTest, ReportsProtocolAndDomain) {
  const auto oracle = MakeFrequencyOracle(GetParam(), 1.0, 9);
  EXPECT_EQ(oracle->protocol(), GetParam());
  EXPECT_EQ(oracle->domain(), 9u);
  EXPECT_EQ(oracle->num_reports(), 0u);
}

TEST_P(FrequencyOracleTest, CountsSubmissions) {
  const auto oracle = MakeFrequencyOracle(GetParam(), 1.0, 4);
  Rng rng(1);
  for (int i = 0; i < 25; ++i) oracle->BufferUserValue(i % 4, rng);
  EXPECT_EQ(oracle->buffered_reports(), 25u);
  oracle->FlushReports();
  EXPECT_EQ(oracle->buffered_reports(), 0u);
  EXPECT_EQ(oracle->num_reports(), 25u);
}

TEST_P(FrequencyOracleTest, RecoversUniformDistribution) {
  constexpr uint64_t kDomain = 6;
  constexpr int kUsers = 40000;
  const auto oracle = MakeFrequencyOracle(GetParam(), 1.0, kDomain);
  Rng rng(2);
  for (int i = 0; i < kUsers; ++i) {
    oracle->BufferUserValue(rng.UniformU64(kDomain), rng);
  }
  oracle->FlushReports();
  const std::vector<double> est = oracle->EstimateFrequencies().value();
  ASSERT_EQ(est.size(), kDomain);
  const double sd = std::sqrt(
      ProtocolVariance(GetParam(), 1.0, kDomain, kUsers));
  for (uint64_t v = 0; v < kDomain; ++v) {
    EXPECT_NEAR(est[v], 1.0 / kDomain, 5.0 * sd) << "value " << v;
  }
}

TEST_P(FrequencyOracleTest, RecoversSkewedDistribution) {
  constexpr uint64_t kDomain = 5;
  constexpr int kUsers = 40000;
  const auto oracle = MakeFrequencyOracle(GetParam(), 2.0, kDomain);
  Rng rng(3);
  for (int i = 0; i < kUsers; ++i) {
    oracle->BufferUserValue(rng.Bernoulli(0.8) ? 0 : 4, rng);
  }
  oracle->FlushReports();
  const std::vector<double> est = oracle->EstimateFrequencies().value();
  const double sd = std::sqrt(
      ProtocolVariance(GetParam(), 2.0, kDomain, kUsers));
  EXPECT_NEAR(est[0], 0.8, 6.0 * sd);
  EXPECT_NEAR(est[4], 0.2, 6.0 * sd);
  EXPECT_NEAR(est[2], 0.0, 6.0 * sd);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, FrequencyOracleTest,
                         ::testing::Values(Protocol::kGrr, Protocol::kOlh,
                                           Protocol::kOue, Protocol::kPgr,
                                           Protocol::kFldp),
                         [](const auto& info) {
                           return std::string(ProtocolName(info.param));
                         });

TEST(FrequencyOracleFactoryTest, OlhHonorsPoolOptions) {
  ProtocolOptions options;
  options.olh.seed_pool_size = 256;
  const auto oracle = MakeFrequencyOracle(Protocol::kOlh, 1.0, 8, options);
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) oracle->BufferUserValue(1, rng);
  oracle->FlushReports();
  const std::vector<double> est = oracle->EstimateFrequencies().value();
  EXPECT_NEAR(est[1], 1.0, 0.3);
}

}  // namespace
}  // namespace felip::fo
