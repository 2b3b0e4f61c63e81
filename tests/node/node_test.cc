// node::Node — the server composition felip_server runs — driven in
// process over the loopback transport:
//
//   * config validation and the mode each flag combination selects;
//   * epoch mode across a restart: two sealed epochs survive the node
//     being dropped, the restart recovers both and preseeds dedup from
//     them, a snapshot carrying a sealed epoch's seed is rejected as
//     stale, and a full from-scratch resend seals the same per-epoch
//     digests as a run that never stopped;
//   * a seeded stateful test: random sequences of ingest, duplicate
//     resend, dropped ack, crash and recover with snapshots and the report
//     log both on, checked against a model of what the node must count.

#include "felip/node/node.h"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/replaylog/replay.h"
#include "felip/snapshot/checkpoint.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/snapshot/store.h"
#include "felip/stream/epoch_store.h"
#include "felip/stream/streaming.h"
#include "felip/svc/client.h"
#include "felip/svc/fault_injection.h"
#include "felip/svc/loopback.h"
#include "felip/svc/sink.h"
#include "support/rounds.h"

namespace felip::node {
namespace {

namespace fs = std::filesystem;
using test_support::Batch;

constexpr uint64_t kSeed = 23;

core::FelipConfig MakeConfig() {
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.seed = kSeed;
  config.olh_options.seed_pool_size = 256;
  return config;
}

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "felip_node" / name;
  fs::remove_all(dir);
  return dir.string();
}

uint64_t Reports(const std::vector<Batch>& batches,
                 const std::set<size_t>& which) {
  uint64_t reports = 0;
  for (const size_t b : which) reports += batches[b].size();
  return reports;
}

TEST(NodeConfigTest, FlagCombinationsSelectOneMode) {
  NodeConfig config;
  EXPECT_TRUE(config.Validate().ok());
  svc::LoopbackTransport transport;
  EXPECT_EQ(Node(config, &transport).mode(), Mode::kSingle);
  config.num_shards = 3;
  config.shard_id = 2;
  EXPECT_EQ(Node(config, &transport).mode(), Mode::kShard);
  config.shard_id = 3;
  EXPECT_EQ(config.Validate().message(),
            "--shard-id must be in [0, --num-shards)");
  config.shard_id = 0;
  config.serve_queries = true;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  config = NodeConfig();
  config.root = {"a:1", "b:1"};
  EXPECT_EQ(Node(config, &transport).mode(), Mode::kRoot);
  config.num_shards = 2;
  EXPECT_FALSE(config.Validate().ok());

  config = NodeConfig();
  config.epoch_dir = "epochs";
  EXPECT_EQ(Node(config, &transport).mode(), Mode::kEpoch);
  config.report_log_dir = "log";
  EXPECT_FALSE(config.Validate().ok());
  config.report_log_dir.clear();
  config.root = {"a:1"};
  EXPECT_FALSE(config.Validate().ok());
}

// --- Epoch mode across a restart ---

constexpr uint64_t kEpochUsers = 1200;
constexpr uint64_t kEpochs = 4;

// Epoch e's device batches, derived the way felip_client --epochs derives
// them: the epoch's config from stream::EpochConfig, its population from
// seed + e.
std::vector<Batch> EpochBatches(uint64_t e) {
  const data::Dataset dataset =
      data::MakeIpumsLike(kEpochUsers, 3, 20, 4, kSeed + e);
  const core::FelipPipeline planned(
      dataset.attributes(), kEpochUsers, stream::EpochConfig(MakeConfig(), e));
  return test_support::MakeBatches(dataset, planned, 100);
}

NodeConfig EpochNodeConfig(const std::string& epoch_dir,
                           const std::string& snapshot_dir) {
  NodeConfig config;
  config.schema = data::MakeIpumsLike(1, 3, 20, 4, kSeed).attributes();
  config.users = kEpochUsers;
  config.epoch_users = kEpochUsers;
  config.epochs = kEpochs;
  config.config = MakeConfig();
  config.host = "epoch";
  config.timeout_ms = 30000;
  config.epoch_dir = epoch_dir;
  config.snapshot_dir = snapshot_dir;
  config.snapshot_interval = 2;
  return config;
}

// Sends epochs [first, last) in order, waiting for each seal before the
// next epoch (the pacing felip_client does through seal progress).
// Returns how many batches acked as duplicates.
uint64_t Deliver(Node& node, svc::Transport* transport, uint64_t first,
                 uint64_t last) {
  svc::IngestClient client(transport, node.ingest()->endpoint());
  uint64_t duplicates = 0;
  for (uint64_t e = first; e < last; ++e) {
    for (const Batch& batch : EpochBatches(e)) {
      const svc::SendOutcome outcome = client.SendBatch(batch);
      EXPECT_TRUE(outcome.ok());
      if (outcome.duplicate) ++duplicates;
    }
    for (int wait = 0; node.epochs()->newest_seq() < e + 1 && wait < 3000;
         ++wait) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(node.epochs()->newest_seq(), e + 1) << "epoch " << e;
  }
  return duplicates;
}

TEST(EpochNodeTest, RestartRecoversSealedEpochsAndSealsTheSameDigests) {
  svc::LoopbackTransport transport;
  std::vector<uint64_t> reference(kEpochs + 1, 0);
  {
    Node node(EpochNodeConfig(FreshDir("ref_epochs"), ""), &transport,
              [&](const EpochSeal& seal) {
                EXPECT_TRUE(seal.written);
                EXPECT_EQ(seal.reports, kEpochUsers);
                reference[seal.seq] = seal.digest;
              });
    ASSERT_TRUE(node.Start().ok());
    Deliver(node, &transport, 0, kEpochs);
    EXPECT_TRUE(node.AwaitRound().ok());
  }

  const std::string epoch_dir = FreshDir("soak_epochs");
  const std::string snapshot_dir = FreshDir("soak_snapshots");
  const NodeConfig config = EpochNodeConfig(epoch_dir, snapshot_dir);
  std::vector<uint64_t> sealed(kEpochs + 1, 0);
  const auto record = [&](const EpochSeal& seal) {
    EXPECT_EQ(sealed[seal.seq], 0u) << "epoch " << seal.seq << " resealed";
    sealed[seal.seq] = seal.digest;
  };
  {
    Node node(config, &transport, record);
    ASSERT_TRUE(node.Start().ok());
    Deliver(node, &transport, 0, 2);
    // Dropped on the epoch 2 -> 3 boundary: epochs 1 and 2 are sealed.
  }
  // A checkpoint written before the last seal carries epoch 2's seed
  // (index 1); adopting it would resurrect reports already sealed.
  std::string stale_path;
  {
    const core::FelipConfig sealed_config =
        stream::EpochConfig(MakeConfig(), 1);
    core::FelipPipeline stale(config.schema, kEpochUsers, sealed_config);
    svc::PipelineSink sink(&stale);
    sink.IngestBatch(EpochBatches(1).front());
    snapshot::SnapshotStore store(snapshot_dir, config.snapshot_keep);
    snapshot::Checkpointer checkpointer(&store, &stale);
    ASSERT_TRUE(checkpointer.Checkpoint({}).ok());
    stale_path = store.ListNewestFirst().front();
  }

  Node restarted(config, &transport, record);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_EQ(restarted.recovery().segments_loaded, 2u);
  EXPECT_EQ(restarted.recovery().segments_skipped, 0u);
  EXPECT_EQ(restarted.recovery().open_epoch, 2u);
  EXPECT_EQ(restarted.recovery().snapshot_path, stale_path);
  EXPECT_FALSE(restarted.recovery().snapshot_adopted);
  // The full from-scratch resend: every batch of the sealed epochs hits
  // the dedup preseed, the rest seal epochs 3 and 4.
  const uint64_t duplicates = Deliver(restarted, &transport, 0, kEpochs);
  EXPECT_EQ(duplicates, EpochBatches(0).size() + EpochBatches(1).size());
  EXPECT_TRUE(restarted.AwaitRound().ok());
  EXPECT_TRUE(restarted.Stop().ok());
  EXPECT_EQ(restarted.epochs()->WindowBudget().reports,
            kEpochs * kEpochUsers);
  for (uint64_t seq = 1; seq <= kEpochs; ++seq) {
    EXPECT_NE(reference[seq], 0u);
    EXPECT_EQ(sealed[seq], reference[seq]) << "epoch " << seq;
  }

  // A cold reader re-derives the same digests from the segments alone.
  const stream::LoadedEpochs loaded =
      stream::EpochStore(epoch_dir, config.epoch_keep).LoadAll();
  EXPECT_EQ(loaded.files_skipped, 0u);
  ASSERT_EQ(loaded.segments.size(), kEpochs);
  for (const stream::EpochSegment& segment : loaded.segments) {
    const auto state = snapshot::PipelineCodec::Decode(segment.snapshot);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(core::GridFrequencyDigest(state->pipeline),
              reference[segment.seq])
        << "epoch " << segment.seq;
  }
}

// --- Seeded stateful test ---

// What the node must hold: the batches it counts, the snapshots on disk
// (oldest first), and drained batches since the last checkpoint. The node
// checkpoints every `interval` drained batches and on Stop, and keeps the
// newest `keep` snapshots.
struct Model {
  size_t interval = 0;
  size_t keep = 0;
  std::set<size_t> counted;
  std::vector<std::set<size_t>> snapshots;
  size_t since_checkpoint = 0;

  void Checkpoint() {
    snapshots.push_back(counted);
    if (snapshots.size() > keep) snapshots.erase(snapshots.begin());
    since_checkpoint = 0;
  }
  void Drained(size_t batch) {
    counted.insert(batch);
    if (++since_checkpoint >= interval) Checkpoint();
  }
  // Stop() writes a final cut; the crash then deletes the newest snapshot
  // and recovery adopts the newest one left.
  void Crash() {
    if (since_checkpoint > 0) Checkpoint();
    if (!snapshots.empty()) snapshots.pop_back();
    counted = snapshots.empty() ? std::set<size_t>() : snapshots.back();
    since_checkpoint = 0;
  }
};

TEST(NodeStatefulTest, RandomStepsMatchTheModelAndTheReference) {
  constexpr int kSteps = 10000;
  constexpr uint64_t kUsers = 3000;
  const data::Dataset dataset = data::MakeIpumsLike(kUsers, 3, 20, 4, kSeed);
  const core::FelipConfig config = MakeConfig();
  const core::FelipPipeline planned(dataset.attributes(), kUsers, config);
  const std::vector<Batch> batches =
      test_support::MakeBatches(dataset, planned, 32);

  NodeConfig node_config;
  node_config.schema = dataset.attributes();
  node_config.users = kUsers;
  node_config.config = config;
  node_config.host = "stateful";
  node_config.timeout_ms = 30000;
  node_config.snapshot_dir = FreshDir("stateful_snapshots");
  node_config.snapshot_interval = 3;
  node_config.report_log_dir = FreshDir("stateful_log");

  Model model;
  model.interval = static_cast<size_t>(node_config.snapshot_interval);
  model.keep = static_cast<size_t>(node_config.snapshot_keep);
  svc::LoopbackTransport transport;
  svc::FaultOptions drop_acks;
  drop_acks.drop_response_prob = 1.0;
  svc::FaultInjectingTransport ack_dropper(&transport, drop_acks);
  svc::IngestClientOptions once;
  once.max_attempts = 1;
  once.response_timeout_ms = 20;

  std::unique_ptr<Node> node;
  std::unique_ptr<svc::IngestClient> client;
  uint64_t drained = 0;  // reports the live node has been handed
  const auto recover = [&] {
    node = std::make_unique<Node>(node_config, &transport);
    ASSERT_TRUE(node->Start().ok());
    EXPECT_EQ(node->recovery().snapshot_adopted, !model.snapshots.empty());
    client = std::make_unique<svc::IngestClient>(&transport,
                                                 node->ingest()->endpoint());
    drained = 0;
  };
  // Sends `b`; a batch the node did not count yet must be admitted.
  const auto send = [&](size_t b, bool drop_ack) {
    const bool fresh = model.counted.count(b) == 0;
    if (drop_ack) {
      svc::IngestClient lossy(&ack_dropper, node->ingest()->endpoint(), once);
      EXPECT_FALSE(lossy.SendBatch(batches[b]).ok());
    }
    const svc::SendOutcome outcome = client->SendBatch(batches[b]);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.duplicate, drop_ack || !fresh) << "batch " << b;
    if (!fresh) return;
    drained += batches[b].size();
    ASSERT_TRUE(node->ingest()->WaitForReports(drained, 30000));
    model.Drained(b);
  };

  Rng rng(kSeed);
  recover();
  uint64_t crashes = 0;
  uint64_t dropped_acks = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (node == nullptr) {
      recover();
    } else {
      std::vector<size_t> fresh;
      for (size_t b = 0; b < batches.size(); ++b) {
        if (model.counted.count(b) == 0) fresh.push_back(b);
      }
      const uint64_t roll = rng.UniformU64(20);
      if (roll < 9 && !fresh.empty()) {  // ingest a batch
        send(fresh[rng.UniformU64(fresh.size())], false);
      } else if (roll < 14) {  // duplicate resend
        send(rng.UniformU64(batches.size()), false);
      } else if (roll < 18) {  // dropped ack, then the client's retry
        send(rng.UniformU64(batches.size()), true);
        ++dropped_acks;
      } else {  // crash: drop the node, delete its newest snapshot
        client.reset();
        node.reset();
        const std::vector<std::string> files =
            snapshot::SnapshotStore(node_config.snapshot_dir,
                                    node_config.snapshot_keep)
                .ListNewestFirst();
        if (!files.empty()) fs::remove(files.front());
        model.Crash();
        ++crashes;
        continue;
      }
    }
    ASSERT_EQ(node->pipeline().reports_ingested(),
              Reports(batches, model.counted));
  }
  if (node == nullptr) recover();
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(ack_dropper.dropped_responses(), dropped_acks);

  // The round ends with a full resend, so the node, the log and the
  // reference all hold every batch exactly once.
  for (size_t b = 0; b < batches.size(); ++b) send(b, false);
  ASSERT_TRUE(node->AwaitRound().ok());
  ASSERT_TRUE(node->Stop().ok());
  ASSERT_TRUE(node->Finalize().ok());
  core::FelipPipeline reference(dataset.attributes(), kUsers, config);
  svc::PipelineSink sink(&reference);
  for (const Batch& batch : batches) sink.IngestBatch(batch);
  sink.Finish();
  reference.Finalize();
  test_support::ExpectIdenticalEstimates(reference, node->pipeline());

  StatusOr<replaylog::ReplayResult> replayed =
      replaylog::ReplayLog(node_config.report_log_dir);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->stats.reports_accepted, kUsers);
  replayed->pipeline.Finalize();
  EXPECT_EQ(core::GridFrequencyDigest(replayed->pipeline),
            core::GridFrequencyDigest(reference));
  // Every recovery opened a log segment: hundreds of small files.
  fs::remove_all(node_config.snapshot_dir);
  fs::remove_all(node_config.report_log_dir);
}

}  // namespace
}  // namespace felip::node
