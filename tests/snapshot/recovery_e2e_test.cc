// Crash-recovery acceptance: an ingest round that is killed mid-stream
// and restarted from the newest snapshot must converge to estimates
// BIT-IDENTICAL to a round that never crashed.
//
// "Killed" here means the first node::Node is dropped after an
// unpredictable prefix of the batches and its newest snapshot deleted
// (some acked-but-uncaptured work is lost, like a kill -9 would lose it),
// a second Node on the same --snapshot-dir adopts the recovered pipeline
// + dedup keys, and the client resends the *entire*
// stream — the dedup window absorbs what the snapshot already counts and
// admits the rest exactly once. The CI soak replays this same protocol
// against the real felip_server binary over TCP.

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/node/node.h"
#include "felip/obs/metrics.h"
#include "felip/snapshot/checkpoint.h"
#include "felip/snapshot/store.h"
#include "felip/storage/storage.h"
#include "felip/svc/client.h"
#include "felip/svc/loopback.h"
#include "felip/svc/sink.h"
#include "support/rounds.h"

namespace felip::snapshot {
namespace {

namespace fs = std::filesystem;
using test_support::Batch;
using test_support::ExpectIdenticalEstimates;

constexpr uint64_t kUsers = 2000;
constexpr uint64_t kSeed = 13;

data::Dataset MakeData() {
  return data::MakeIpumsLike(kUsers, 3, 20, 4, kSeed);
}

core::FelipConfig MakeConfig() {
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.seed = kSeed;
  config.olh_options.seed_pool_size = 256;
  return config;
}

std::string FreshDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

core::FelipPipeline RunUninterrupted(
    const data::Dataset& dataset, const core::FelipConfig& config,
    const std::vector<Batch>& batches) {
  core::FelipPipeline pipeline(dataset.attributes(), kUsers, config);
  svc::PipelineSink sink(&pipeline);
  for (const auto& batch : batches) sink.IngestBatch(batch);
  sink.Finish();
  pipeline.Finalize();
  return pipeline;
}

// A single node checkpointing into `snapshot_dir` every 2 drained batches.
node::NodeConfig NodeConfigFor(const data::Dataset& dataset,
                               const core::FelipConfig& config,
                               const std::string& snapshot_dir) {
  node::NodeConfig node_config;
  node_config.schema = dataset.attributes();
  node_config.users = kUsers;
  node_config.config = config;
  node_config.host = "ingest";
  node_config.snapshot_dir = snapshot_dir;
  node_config.snapshot_interval = 2;
  return node_config;
}

// One ingest round that "crashes" after `crash_after_batches` deliveries,
// recovers from its snapshot directory, resends everything, and
// finalizes.
core::FelipPipeline RunWithCrash(const node::NodeConfig& node_config,
                                 const std::vector<Batch>& batches,
                                 size_t crash_after_batches,
                                 uint64_t* duplicates_out) {
  svc::LoopbackTransport transport;
  {
    node::Node doomed(node_config, &transport);
    EXPECT_TRUE(doomed.Start().ok()) << "loopback bind failed";
    svc::IngestClient client(&transport, doomed.ingest()->endpoint());
    for (size_t b = 0; b < crash_after_batches && b < batches.size(); ++b) {
      EXPECT_TRUE(client.SendBatch(batches[b]).ok());
    }
    // Dropping the node runs Stop(), which persists a final complete cut —
    // an orderly shutdown, not yet a crash.
  }
  // The kill -9: discard the final checkpoint so recovery lands on an
  // older periodic cut, exactly as if the process had died between two
  // checkpoints with acked-but-uncaptured batches in flight.
  {
    const SnapshotStore store(node_config.snapshot_dir, 3);
    const std::vector<std::string> files = store.ListNewestFirst();
    if (files.size() >= 2) fs::remove(files[0]);
  }

  // --- After the restart: recover, preseed, resend the full stream.
  node::Node node(node_config, &transport);
  EXPECT_TRUE(node.Start().ok());
  EXPECT_TRUE(node.recovery().snapshot_adopted)
      << node.recovery().snapshot_status.ToString();
  const uint64_t recovered_reports = node.recovery().snapshot_reports;
  EXPECT_LE(recovered_reports,
            static_cast<uint64_t>(crash_after_batches) * 64);
  svc::IngestClient client(&transport, node.ingest()->endpoint());
  uint64_t duplicates = 0;
  for (const auto& batch : batches) {
    const svc::SendOutcome outcome = client.SendBatch(batch);
    EXPECT_TRUE(outcome.ok());
    if (outcome.duplicate) ++duplicates;
  }
  // Everything the snapshot does not already count must reach the sink.
  EXPECT_TRUE(node.AwaitRound().ok());
  EXPECT_TRUE(node.Stop().ok());
  EXPECT_TRUE(node.Finalize().ok());
  EXPECT_EQ(node.pipeline().reports_ingested(), kUsers)
      << "dedup let a batch double-count or drop";
  *duplicates_out = duplicates;
  return std::move(node.pipeline());
}

TEST(RecoveryE2eTest, CrashResumeResendIsBitIdentical) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  core::FelipPipeline planned(dataset.attributes(), kUsers, config);
  const auto batches = test_support::MakeBatches(dataset, planned, 64);
  ASSERT_GT(batches.size(), 8u);
  const core::FelipPipeline reference =
      RunUninterrupted(dataset, config, batches);

  // Crash at several points in the stream, including right at the start
  // (recovering an almost-empty snapshot) and near the end.
  const size_t crash_points[] = {3, batches.size() / 2, batches.size() - 1};
  int cut = 0;
  for (const size_t crash_after : crash_points) {
    SCOPED_TRACE("crash after " + std::to_string(crash_after) + " batches");
    const std::string dir =
        FreshDir(("felip_recovery_" + std::to_string(cut++)).c_str());
    uint64_t duplicates = 0;
    const core::FelipPipeline resumed = RunWithCrash(
        NodeConfigFor(dataset, config, dir), batches, crash_after,
        &duplicates);
    // The resend of already-drained batches must have hit the dedup
    // window, not the aggregators.
    EXPECT_GT(duplicates, 0u);
    ExpectIdenticalEstimates(reference, resumed);
  }
}

TEST(RecoveryE2eTest, CorruptNewestSnapshotFallsBackToPrevious) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  core::FelipPipeline planned(dataset.attributes(), kUsers, config);
  const auto batches = test_support::MakeBatches(dataset, planned, 64);
  const core::FelipPipeline reference =
      RunUninterrupted(dataset, config, batches);

  const std::string dir = FreshDir("felip_recovery_corrupt");
  {
    uint64_t duplicates = 0;
    const core::FelipPipeline once =
        RunWithCrash(NodeConfigFor(dataset, config, dir), batches,
                     batches.size() / 2, &duplicates);
    ExpectIdenticalEstimates(reference, once);
  }
  const SnapshotStore store(dir, 3);
  // Damage the newest snapshot on disk; recovery must degrade to the
  // previous rotation instead of failing.
  const std::vector<std::string> files = store.ListNewestFirst();
  ASSERT_GE(files.size(), 2u);
  {
    StatusOr<std::vector<uint8_t>> bytes = storage::ReadFile(files[0]);
    ASSERT_TRUE(bytes.ok());
    (*bytes)[bytes->size() / 2] ^= 0x40;
    ASSERT_TRUE(storage::WriteFileAtomic(files[0], *bytes).ok());
  }
  const uint64_t recoveries_before = obs::Registry::Default().CounterValue(
      "felip_snapshot_recoveries_total");
  const StatusOr<Recovered> recovered = RecoverFromStore(store);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->path, files[1]);
  EXPECT_EQ(recovered->files_skipped, 1u);
  EXPECT_GT(obs::Registry::Default().CounterValue(
                "felip_snapshot_recoveries_total"),
            recoveries_before);
}

TEST(RecoveryE2eTest, EmptyStoreIsNotFound) {
  const SnapshotStore store(FreshDir("felip_recovery_empty"), 3);
  const auto recovered = RecoverFromStore(store);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

TEST(RecoveryE2eTest, AllSnapshotsCorruptIsNotFound) {
  SnapshotStore store(FreshDir("felip_recovery_allbad"), 3);
  ASSERT_TRUE(store.Write({1, 2, 3}).ok());  // not even a snapshot
  ASSERT_TRUE(store.Write(std::vector<uint8_t>(64, 0)).ok());
  const auto recovered = RecoverFromStore(store);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace felip::snapshot
