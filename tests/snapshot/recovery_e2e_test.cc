// Crash-recovery acceptance: an ingest round that is killed mid-stream
// and restarted from the newest snapshot must converge to estimates
// BIT-IDENTICAL to a round that never crashed.
//
// "Killed" here means the first IngestServer is torn down after an
// unpredictable prefix of the batches (some acked-but-undrained work is
// simply lost, like a kill -9 would lose it), a second server adopts the
// recovered pipeline + dedup keys, and the client resends the *entire*
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
#include "felip/obs/metrics.h"
#include "felip/snapshot/checkpoint.h"
#include "felip/snapshot/store.h"
#include "felip/storage/storage.h"
#include "felip/svc/client.h"
#include "felip/svc/loopback.h"
#include "felip/svc/server.h"
#include "felip/svc/simulator.h"
#include "felip/svc/sink.h"
#include "felip/wire/wire.h"

namespace felip::snapshot {
namespace {

namespace fs = std::filesystem;

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

std::vector<std::vector<wire::ReportMessage>> MakeBatches(
    const data::Dataset& dataset, const core::FelipPipeline& pipeline,
    const core::FelipConfig& config) {
  std::vector<wire::GridConfigMessage> grid_configs;
  for (uint32_t g = 0; g < pipeline.num_groups(); ++g) {
    grid_configs.push_back(wire::MakeGridConfig(
        pipeline, pipeline.schema(), g, pipeline.per_grid_epsilon(),
        config.protocol_options()));
  }
  svc::SimulatorOptions options;
  options.seed = config.seed;
  options.partitioning = config.partitioning;
  options.batch_size = 64;
  const svc::PopulationSimulator simulator(grid_configs, options);
  std::vector<std::vector<wire::ReportMessage>> batches;
  const auto sent = simulator.Run(
      dataset, [&](const std::vector<wire::ReportMessage>& batch) {
        batches.push_back(batch);
        return true;
      });
  EXPECT_TRUE(sent.has_value());
  return batches;
}

core::FelipPipeline RunUninterrupted(
    const data::Dataset& dataset, const core::FelipConfig& config,
    const std::vector<std::vector<wire::ReportMessage>>& batches) {
  core::FelipPipeline pipeline(dataset.attributes(), kUsers, config);
  svc::PipelineSink sink(&pipeline);
  for (const auto& batch : batches) sink.IngestBatch(batch);
  sink.Finish();
  pipeline.Finalize();
  return pipeline;
}

void ExpectIdenticalEstimates(const core::FelipPipeline& expected,
                              const core::FelipPipeline& actual) {
  const auto a = expected.ExportGridFrequencies();
  const auto b = actual.ExportGridFrequencies();
  ASSERT_EQ(a.size(), b.size());
  for (size_t g = 0; g < a.size(); ++g) {
    ASSERT_EQ(a[g].size(), b[g].size());
    for (size_t c = 0; c < a[g].size(); ++c) {
      EXPECT_EQ(a[g][c], b[g][c]) << "grid " << g << " cell " << c;
    }
  }
}

// One ingest round that "crashes" after `crash_after_batches` deliveries,
// recovers from `store`, resends everything, and finalizes.
core::FelipPipeline RunWithCrash(
    const data::Dataset& dataset, const core::FelipConfig& config,
    const std::vector<std::vector<wire::ReportMessage>>& batches,
    SnapshotStore* store, size_t crash_after_batches,
    uint64_t* duplicates_out = nullptr) {
  // --- Before the crash: a server checkpointing every 2 drained batches.
  {
    core::FelipPipeline pipeline(dataset.attributes(), kUsers, config);
    svc::PipelineSink sink(&pipeline);
    Checkpointer checkpointer(store, &pipeline);
    svc::LoopbackTransport transport;
    svc::IngestServerOptions options;
    options.checkpoint_every_batches = 2;
    options.checkpoint = [&](std::span<const uint64_t> keys) {
      return checkpointer.Checkpoint(keys);
    };
    svc::IngestServer server(&transport, "ingest", &sink, options);
    EXPECT_TRUE(server.Start()) << "loopback bind failed";

    svc::IngestClient client(&transport, server.endpoint());
    for (size_t b = 0; b < crash_after_batches && b < batches.size(); ++b) {
      EXPECT_TRUE(client.SendBatch(batches[b]).ok());
    }
    // ~IngestServer runs Stop(), which persists a final complete cut —
    // an orderly shutdown, not yet a crash.
  }
  // The kill -9: discard the final checkpoint so recovery lands on an
  // older periodic cut, exactly as if the process had died between two
  // checkpoints with acked-but-uncaptured batches in flight.
  {
    const std::vector<std::string> files = store->ListNewestFirst();
    if (files.size() >= 2) fs::remove(files[0]);
  }

  // --- After the restart: recover, preseed, resend the full stream.
  StatusOr<Recovered> recovered = RecoverFromStore(*store);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  core::FelipPipeline pipeline = std::move(recovered->state.pipeline);
  EXPECT_LE(pipeline.reports_ingested(),
            static_cast<uint64_t>(crash_after_batches) * 64);

  svc::PipelineSink sink(&pipeline);
  Checkpointer checkpointer(store, &pipeline);
  svc::LoopbackTransport transport;
  svc::IngestServerOptions options;
  options.checkpoint_every_batches = 4;
  options.checkpoint = [&](std::span<const uint64_t> keys) {
    return checkpointer.Checkpoint(keys);
  };
  svc::IngestServer server(&transport, "ingest", &sink, options);
  server.PreseedDedup(recovered->state.dedup_keys);
  EXPECT_TRUE(server.Start());

  const uint64_t recovered_reports = pipeline.reports_ingested();
  svc::IngestClient client(&transport, server.endpoint());
  uint64_t duplicates = 0;
  for (const auto& batch : batches) {
    const svc::SendOutcome outcome = client.SendBatch(batch);
    EXPECT_TRUE(outcome.ok());
    if (outcome.duplicate) ++duplicates;
  }
  // Everything the snapshot does not already count must reach the sink.
  EXPECT_TRUE(server.WaitForReports(kUsers - recovered_reports, 30000));
  server.Stop();
  sink.Finish();
  pipeline.Finalize();
  EXPECT_EQ(pipeline.reports_ingested(), kUsers)
      << "dedup let a batch double-count or drop";
  if (duplicates_out != nullptr) *duplicates_out = duplicates;
  return pipeline;
}

TEST(RecoveryE2eTest, CrashResumeResendIsBitIdentical) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  core::FelipPipeline planned(dataset.attributes(), kUsers, config);
  const auto batches = MakeBatches(dataset, planned, config);
  ASSERT_GT(batches.size(), 8u);
  const core::FelipPipeline reference =
      RunUninterrupted(dataset, config, batches);

  // Crash at several points in the stream, including right at the start
  // (recovering an almost-empty snapshot) and near the end.
  const size_t crash_points[] = {3, batches.size() / 2, batches.size() - 1};
  int cut = 0;
  for (const size_t crash_after : crash_points) {
    SCOPED_TRACE("crash after " + std::to_string(crash_after) + " batches");
    SnapshotStore store(
        FreshDir(("felip_recovery_" + std::to_string(cut++)).c_str()), 3);
    uint64_t duplicates = 0;
    const core::FelipPipeline resumed = RunWithCrash(
        dataset, config, batches, &store, crash_after, &duplicates);
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
  const auto batches = MakeBatches(dataset, planned, config);
  const core::FelipPipeline reference =
      RunUninterrupted(dataset, config, batches);

  SnapshotStore store(FreshDir("felip_recovery_corrupt"), 3);
  {
    uint64_t duplicates = 0;
    const core::FelipPipeline once = RunWithCrash(
        dataset, config, batches, &store, batches.size() / 2, &duplicates);
    ExpectIdenticalEstimates(reference, once);
  }
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
