// Per-user OLH estimation shards its O(n * |D|) support count over the
// reports with ParallelReduce, the last sharded reduction in fo/. This
// TSan-friendly stress loop estimates repeatedly while the report list
// grows: any cross-shard write overlap shows up as a race, and every
// estimate must equal the serial one-value path bit for bit.

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/fo/olh.h"

namespace felip::fo {
namespace {

constexpr double kEpsilon = 1.2;
constexpr uint64_t kDomain = 32;

TEST(ParallelAggregationTest, RepeatedShardedBatchesStress) {
  OlhClient client(kEpsilon, kDomain);
  OlhServer server(kEpsilon, kDomain);
  Rng rng(109);
  // Each round adds a batch of several 4096-report shards.
  constexpr size_t kBatch = 20000;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kBatch; ++i) {
      server.Add(client.Perturb(i % kDomain, rng));
    }
    const std::vector<double> sharded = server.EstimateFrequencies();
    ASSERT_EQ(sharded.size(), kDomain);
    for (uint64_t v = 0; v < kDomain; ++v) {
      // Bitwise: determinism means the bytes match, -0.0 and NaN included.
      const double serial = server.EstimateValue(v);
      EXPECT_EQ(std::memcmp(&sharded[v], &serial, sizeof(double)), 0)
          << "round " << round << " value " << v;
    }
  }
  EXPECT_EQ(server.num_reports(), kBatch * kRounds);
}

}  // namespace
}  // namespace felip::fo
