// PreseedDedup's ownership filter: a restarted shard seeds its dedup
// window only with keys the current sharding assigns to it.
//
// The regression this pins: a dedup key list recovered from an earlier
// incarnation (or an earlier topology) can contain keys of batches that
// OTHER shards own and counted. If those keys land in this shard's
// window, a batch rerouted here after resharding is silently
// duplicate-acked — the client believes it was delivered, no shard ever
// counts its reports, and the round can never complete. With the filter,
// foreign keys never enter the window, so a first-time batch is always
// accepted no matter whose window its key once sat in.

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/dist/partition.h"
#include "felip/svc/client.h"
#include "felip/svc/loopback.h"
#include "felip/svc/message.h"
#include "felip/svc/server.h"
#include "felip/svc/sink.h"
#include "felip/wire/wire.h"
#include "support/rounds.h"

namespace felip::dist {
namespace {

constexpr uint64_t kUsers = 600;
constexpr uint64_t kSeed = 21;

using test_support::Batch;

core::FelipConfig MakeConfig() {
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.seed = kSeed;
  return config;
}

data::Dataset MakeData() {
  return data::MakeIpumsLike(kUsers, 3, 16, 4, kSeed);
}

std::vector<Batch> MakeBatches(const data::Dataset& dataset,
                               const core::FelipConfig& config) {
  const core::FelipPipeline planned(dataset.attributes(), kUsers, config);
  return test_support::MakeBatches(dataset, planned, 32);
}

uint64_t BatchKey(const Batch& batch) {
  const std::optional<uint64_t> key =
      svc::ChecksumTrailer(wire::EncodeReportBatch(batch));
  EXPECT_TRUE(key.has_value());
  return key.value_or(0);
}

TEST(PreseedFilterTest, ForeignKeysAreFilteredAndCounted) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const std::vector<Batch> batches = MakeBatches(dataset, config);
  ASSERT_GT(batches.size(), 4u);

  const uint32_t shard_id = 0;
  const ShardRouter router(2);
  std::vector<uint64_t> all_keys;
  size_t owned = 0;
  for (const Batch& batch : batches) {
    const uint64_t key = BatchKey(batch);
    all_keys.push_back(key);
    if (router.OwnerShard(key) == shard_id) ++owned;
  }
  ASSERT_GT(owned, 0u);
  ASSERT_LT(owned, all_keys.size()) << "both shards must own some batches";

  core::FelipPipeline pipeline(dataset.attributes(), kUsers, config);
  svc::PipelineSink sink(&pipeline);
  svc::LoopbackTransport transport;
  svc::IngestServerOptions options;
  options.owns_key = [&router](uint64_t key) {
    return router.OwnerShard(key) == shard_id;
  };
  svc::IngestServer server(&transport, "preseed-filter", &sink, options);
  server.PreseedDedup(all_keys);
  EXPECT_EQ(server.preseed_filtered(), all_keys.size() - owned);
}

TEST(PreseedFilterTest, UnsetFilterKeepsEveryKey) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const std::vector<Batch> batches = MakeBatches(dataset, config);
  std::vector<uint64_t> keys;
  for (const Batch& batch : batches) keys.push_back(BatchKey(batch));

  core::FelipPipeline pipeline(dataset.attributes(), kUsers, config);
  svc::PipelineSink sink(&pipeline);
  svc::LoopbackTransport transport;
  svc::IngestServer server(&transport, "preseed-unfiltered", &sink, {});
  server.PreseedDedup(keys);
  EXPECT_EQ(server.preseed_filtered(), 0u);
}

TEST(PreseedFilterTest, ReshardedRestartNeverRejectsAnotherShardsReport) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const std::vector<Batch> batches = MakeBatches(dataset, config);
  ASSERT_GT(batches.size(), 4u);

  // The stale key list: every batch of the round, as a single-node
  // incarnation's dedup window would have recorded it before the
  // topology changed under it.
  std::vector<uint64_t> stale_keys;
  for (const Batch& batch : batches) stale_keys.push_back(BatchKey(batch));

  // Restart as shard 0 of 2, preseeding that stale list. Batches the new
  // sharding assigns elsewhere may still be delivered here (rerouted
  // resends during the topology change); the window must not know them.
  const uint32_t shard_id = 0;
  const ShardRouter router(2);
  core::FelipPipeline pipeline(dataset.attributes(), kUsers, config);
  svc::PipelineSink sink(&pipeline);
  svc::LoopbackTransport transport;
  svc::IngestServerOptions options;
  options.owns_key = [&router](uint64_t key) {
    return router.OwnerShard(key) == shard_id;
  };
  svc::IngestServer server(&transport, "preseed-reshard", &sink, options);
  server.PreseedDedup(stale_keys);
  ASSERT_TRUE(server.Start());
  EXPECT_GT(server.preseed_filtered(), 0u);

  svc::IngestClient client(&transport, server.endpoint());
  uint64_t foreign_reports = 0;
  uint64_t foreign_batches = 0;
  for (const Batch& batch : batches) {
    const bool owned_here = router.OwnerShard(BatchKey(batch)) == shard_id;
    const svc::SendOutcome outcome = client.SendBatch(batch);
    ASSERT_TRUE(outcome.ok());
    if (owned_here) {
      // This shard's own stale keys stay in the window: resends of
      // batches it already counted keep deduping.
      EXPECT_TRUE(outcome.duplicate);
    } else {
      // Another shard's report: never rejected, counted here.
      EXPECT_FALSE(outcome.duplicate);
      foreign_reports += batch.size();
      ++foreign_batches;
    }
  }
  ASSERT_GT(foreign_batches, 0u);
  EXPECT_TRUE(server.WaitForReports(foreign_reports, 30000));
  server.Stop();
  sink.Finish();
  EXPECT_EQ(pipeline.reports_ingested(), foreign_reports)
      << "a foreign-shard batch was duplicate-acked and its reports lost";
}

}  // namespace
}  // namespace felip::dist
