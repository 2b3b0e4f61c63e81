// Distributed-tier acceptance: a fixed-seed population routed across N
// shard servers, pulled as accumulator frames and folded by the root,
// must produce estimates BIT-IDENTICAL to single-node collection — for 2
// and 4 shards, over loopback and real TCP, under fault-injecting
// transports on both the ingest and the pull path, and across a shard
// that dies mid-ingest and warm-restarts from its snapshot.
//
// Why exact equality holds: routing gives every batch exactly one owner,
// per-shard dedup makes counting exactly-once, accumulator frames are
// cumulative consistent cuts, and the merge is integer-count addition
// folded in shard-id order — so the final state depends only on the
// report multiset, never on shard count, pull schedule, or restarts.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/dist/accumulator.h"
#include "felip/dist/client.h"
#include "felip/dist/root.h"
#include "felip/node/node.h"
#include "felip/snapshot/store.h"
#include "felip/svc/fault_injection.h"
#include "felip/svc/loopback.h"
#include "felip/svc/tcp.h"
#include "support/rounds.h"

namespace felip::dist {
namespace {

namespace fs = std::filesystem;
using test_support::Batch;
using test_support::ExpectIdenticalEstimates;

constexpr uint64_t kUsers = 2000;
constexpr uint64_t kSeed = 17;

core::FelipConfig MakeConfig() {
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.seed = kSeed;
  config.olh_options.seed_pool_size = 256;
  return config;
}

data::Dataset MakeData() {
  return data::MakeIpumsLike(kUsers, 3, 20, 4, kSeed);
}

std::vector<Batch> MakeBatches(const data::Dataset& dataset,
                               const core::FelipConfig& config) {
  const core::FelipPipeline planned(dataset.attributes(), kUsers, config);
  return test_support::MakeBatches(dataset, planned, 64);
}

// The single-node reference: the whole round collected in process.
core::FelipPipeline RunSingleNode(const data::Dataset& dataset,
                                  const core::FelipConfig& config) {
  core::FelipPipeline pipeline(dataset.attributes(), kUsers, config);
  pipeline.Collect(dataset);
  pipeline.Finalize();
  return pipeline;
}

// Shard `shard_id` of `num_shards` as felip_server runs it in
// --shard-id mode: ingest on <host>:1, accumulator on <host>:2.
node::NodeConfig ShardConfig(const data::Dataset& dataset,
                             const core::FelipConfig& config,
                             const std::string& host, uint32_t shard_id,
                             uint32_t num_shards) {
  node::NodeConfig shard;
  shard.schema = dataset.attributes();
  shard.users = kUsers;
  shard.config = config;
  shard.host = host;
  shard.port = 1;
  shard.accum_port = 2;
  shard.shard_id = shard_id;
  shard.num_shards = num_shards;
  return shard;
}

// Runs a full sharded round and returns the root's merged, finalized
// pipeline. `faults` (optional) corrupts both the client's ingest path
// and the root's pull path.
core::FelipPipeline RunSharded(const data::Dataset& dataset,
                               const core::FelipConfig& config,
                               const std::vector<Batch>& batches,
                               svc::Transport* transport,
                               uint32_t num_shards, bool tcp,
                               const svc::FaultOptions* faults = nullptr) {
  core::FelipPipeline root_pipeline(dataset.attributes(), kUsers, config);
  const uint64_t plan_digest = PlanDigest(root_pipeline);

  std::vector<std::unique_ptr<node::Node>> shards;
  std::vector<std::string> ingest_endpoints;
  std::vector<std::string> accum_endpoints;
  for (uint32_t s = 0; s < num_shards; ++s) {
    node::NodeConfig shard = ShardConfig(dataset, config,
                                         "shard" + std::to_string(s), s,
                                         num_shards);
    if (tcp) {
      shard.host = "127.0.0.1";
      shard.port = shard.accum_port = 0;
    }
    shards.push_back(std::make_unique<node::Node>(shard, transport));
    EXPECT_TRUE(shards.back()->Start().ok());
    EXPECT_EQ(shards.back()->shard_epoch(), 1u);
    ingest_endpoints.push_back(shards.back()->ingest()->endpoint());
    accum_endpoints.push_back(shards.back()->accumulator()->endpoint());
  }

  std::unique_ptr<svc::FaultInjectingTransport> faulty;
  svc::Transport* client_transport = transport;
  if (faults != nullptr) {
    faulty = std::make_unique<svc::FaultInjectingTransport>(transport,
                                                            *faults);
    client_transport = faulty.get();
  }

  svc::IngestClientOptions client_options;
  client_options.connect_timeout_ms = 500;
  client_options.response_timeout_ms = 250;
  client_options.max_attempts = 64;
  ShardedIngestClient client(client_transport, ingest_endpoints,
                             client_options);
  for (const Batch& batch : batches) {
    EXPECT_TRUE(client.SendBatch(batch).ok());
  }
  if (num_shards > 1) {
    uint64_t shards_used = 0;
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (client.batches_routed(s) > 0) ++shards_used;
    }
    EXPECT_GT(shards_used, 1u) << "routing sent everything to one shard";
  }

  RootAggregatorOptions root_options;
  root_options.expected_reports = kUsers;
  root_options.plan_digest = plan_digest;
  root_options.response_timeout_ms = 250;
  RootAggregator root(client_transport, accum_endpoints, root_options);
  const Status pulled = root.PullUntilComplete(60000);
  EXPECT_TRUE(pulled.ok()) << pulled.ToString();
  EXPECT_EQ(root.total_reports(), kUsers);
  const Status merged = root.MergeInto(&root_pipeline);
  EXPECT_TRUE(merged.ok()) << merged.ToString();

  for (auto& shard : shards) EXPECT_TRUE(shard->Stop().ok());
  root_pipeline.Finalize();
  return root_pipeline;
}

TEST(DistE2eTest, TwoShardLoopbackMatchesSingleNode) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const core::FelipPipeline reference = RunSingleNode(dataset, config);
  const std::vector<Batch> batches = MakeBatches(dataset, config);

  svc::LoopbackTransport transport;
  const core::FelipPipeline merged =
      RunSharded(dataset, config, batches, &transport, 2, /*tcp=*/false);
  EXPECT_EQ(merged.reports_ingested(), kUsers);
  ExpectIdenticalEstimates(reference, merged);
}

TEST(DistE2eTest, FourShardLoopbackMatchesSingleNode) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const core::FelipPipeline reference = RunSingleNode(dataset, config);
  const std::vector<Batch> batches = MakeBatches(dataset, config);

  svc::LoopbackTransport transport;
  const core::FelipPipeline merged =
      RunSharded(dataset, config, batches, &transport, 4, /*tcp=*/false);
  ExpectIdenticalEstimates(reference, merged);
}

TEST(DistE2eTest, TwoShardTcpMatchesSingleNode) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const core::FelipPipeline reference = RunSingleNode(dataset, config);
  const std::vector<Batch> batches = MakeBatches(dataset, config);

  svc::TcpTransport transport;
  const core::FelipPipeline merged =
      RunSharded(dataset, config, batches, &transport, 2, /*tcp=*/true);
  ExpectIdenticalEstimates(reference, merged);
}

TEST(DistE2eTest, FourShardTcpMatchesSingleNode) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const core::FelipPipeline reference = RunSingleNode(dataset, config);
  const std::vector<Batch> batches = MakeBatches(dataset, config);

  svc::TcpTransport transport;
  const core::FelipPipeline merged =
      RunSharded(dataset, config, batches, &transport, 4, /*tcp=*/true);
  ExpectIdenticalEstimates(reference, merged);
}

TEST(DistE2eTest, FaultSoakStaysBitIdentical) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const core::FelipPipeline reference = RunSingleNode(dataset, config);
  const std::vector<Batch> batches = MakeBatches(dataset, config);

  svc::LoopbackTransport transport;
  svc::FaultOptions faults;
  faults.drop_prob = 0.10;
  faults.truncate_prob = 0.06;
  faults.reset_prob = 0.04;
  faults.drop_response_prob = 0.06;
  faults.seed = kSeed + 99;
  const core::FelipPipeline merged = RunSharded(
      dataset, config, batches, &transport, 2, /*tcp=*/false, &faults);
  ExpectIdenticalEstimates(reference, merged);
}

TEST(DistE2eTest, RootRejectsPlanDigestMismatch) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();

  svc::LoopbackTransport transport;
  core::FelipPipeline planned(dataset.attributes(), kUsers, config);
  std::vector<std::unique_ptr<node::Node>> shards;
  std::vector<std::string> accum_endpoints;
  for (uint32_t s = 0; s < 2; ++s) {
    shards.push_back(std::make_unique<node::Node>(
        ShardConfig(dataset, config, "mismatch" + std::to_string(s), s, 2),
        &transport));
    ASSERT_TRUE(shards.back()->Start().ok());
    accum_endpoints.push_back(shards.back()->accumulator()->endpoint());
  }

  RootAggregatorOptions root_options;
  root_options.expected_reports = kUsers;
  root_options.plan_digest = PlanDigest(planned) ^ 1;  // a different plan
  root_options.response_timeout_ms = 250;
  RootAggregator root(&transport, accum_endpoints, root_options);
  const Status pulled = root.PullUntilComplete(5000);
  EXPECT_EQ(pulled.code(), StatusCode::kFailedPrecondition)
      << pulled.ToString();
}

TEST(DistE2eTest, ShardKillAndWarmRestartStaysBitIdentical) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  const core::FelipPipeline reference = RunSingleNode(dataset, config);
  const std::vector<Batch> batches = MakeBatches(dataset, config);
  ASSERT_GT(batches.size(), 8u);

  const fs::path dir =
      fs::path(::testing::TempDir()) / "felip_dist_restart";
  fs::remove_all(dir);
  node::NodeConfig shard0 = ShardConfig(dataset, config, "restart0", 0, 2);
  shard0.snapshot_dir = dir.string();
  shard0.snapshot_interval = 2;

  core::FelipPipeline root_pipeline(dataset.attributes(), kUsers, config);
  svc::LoopbackTransport transport;

  // Shard 1 lives through the whole round.
  node::Node shard1(ShardConfig(dataset, config, "restart1", 1, 2),
                    &transport);
  ASSERT_TRUE(shard1.Start().ok());

  RootAggregatorOptions root_options;
  root_options.expected_reports = kUsers;
  root_options.plan_digest = PlanDigest(root_pipeline);
  root_options.response_timeout_ms = 100;
  root_options.poll_interval_ms = 5;
  RootAggregator root(&transport,
                      {"restart0:2", shard1.accumulator()->endpoint()},
                      root_options);

  // --- Shard 0, first incarnation: checkpointing, killed mid-ingest.
  {
    node::Node doomed(shard0, &transport);
    ASSERT_TRUE(doomed.Start().ok());
    EXPECT_EQ(doomed.shard_epoch(), 1u);
    ShardedIngestClient client(
        &transport, {doomed.ingest()->endpoint(), shard1.ingest()->endpoint()});
    for (size_t b = 0; b < batches.size() / 2; ++b) {
      ASSERT_TRUE(client.SendBatch(batches[b]).ok());
    }
    // The root pulls frames from the doomed incarnation: the merged
    // result must not depend on them.
    const Status early = root.PullUntilComplete(100);
    EXPECT_FALSE(early.ok());
    EXPECT_GT(root.frames_pulled(), 0u);
    // Dropping the node checkpoints a final cut on orderly Stop; the
    // crash is simulated below by discarding it.
  }
  {
    const snapshot::SnapshotStore store(dir.string(), 3);
    const std::vector<std::string> files = store.ListNewestFirst();
    ASSERT_GE(files.size(), 1u);
    if (files.size() >= 2) fs::remove(files[0]);
  }

  // --- Shard 0, second incarnation: recover, preseed, rebind, resend.
  node::Node restarted(shard0, &transport);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_TRUE(restarted.recovery().snapshot_adopted);
  EXPECT_EQ(restarted.shard_epoch(), 2u);

  // The client resends the entire stream: shard dedup absorbs what the
  // snapshot already counts (and everything shard 1 drained), the rest
  // is admitted exactly once.
  ShardedIngestClient client(&transport, {restarted.ingest()->endpoint(),
                                          shard1.ingest()->endpoint()});
  for (const Batch& batch : batches) {
    ASSERT_TRUE(client.SendBatch(batch).ok());
  }

  const Status pulled = root.PullUntilComplete(60000);
  ASSERT_TRUE(pulled.ok()) << pulled.ToString();
  EXPECT_EQ(root.total_reports(), kUsers);
  const Status merged = root.MergeInto(&root_pipeline);
  ASSERT_TRUE(merged.ok()) << merged.ToString();

  EXPECT_TRUE(restarted.Stop().ok());
  EXPECT_TRUE(shard1.Stop().ok());
  root_pipeline.Finalize();
  EXPECT_EQ(root_pipeline.reports_ingested(), kUsers);
  ExpectIdenticalEstimates(reference, root_pipeline);
}

}  // namespace
}  // namespace felip::dist
