// The epoch service tier: sealing pipelines into segments, serving
// sliding-window answers from the sealed set, recovering the set (and the
// dedup-key union) after a restart — and the differential acceptance
// check: a windowed answer served from sealed segments is bit-identical
// to the in-process StreamingCollector over the same arrivals.

#include "felip/stream/epoch_service.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/data/synthetic.h"
#include "felip/query/query.h"
#include "felip/stream/epoch_store.h"
#include "felip/stream/streaming.h"
#include "felip/svc/simulator.h"
#include "felip/svc/sink.h"
#include "felip/wire/wire.h"

namespace felip::stream {
namespace {

namespace fs = std::filesystem;

core::FelipConfig BaseConfig() {
  core::FelipConfig felip;
  felip.epsilon = 2.0;
  felip.olh_options.seed_pool_size = 512;
  felip.seed = 21;
  return felip;
}

std::vector<query::Query> TestQueries() {
  return {
      query::Query({{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 15}}),
      query::Query({{.attr = 1, .op = query::Op::kBetween, .lo = 4, .hi = 27}}),
      query::Query(
          {{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 7},
           {.attr = 1, .op = query::Op::kBetween, .lo = 16, .hi = 31}}),
  };
}

// Ingests `dataset` into a fresh pipeline through the networked report
// path (simulator + sink, the lifecycle_test idiom) under the shared
// per-epoch config derivation. The pipeline is returned still
// kCollecting with reports_ingested() == rows — exactly the state the
// live rotation path hands to SealEpoch. The simulator replays Collect's
// rng trajectory, so the aggregated state is bit-identical to an
// in-process Collect() at the same config.
std::unique_ptr<core::FelipPipeline> CollectEpochAt(
    const data::Dataset& dataset, const core::FelipConfig& config) {
  auto pipeline = std::make_unique<core::FelipPipeline>(
      dataset.attributes(), dataset.num_rows(), config);
  std::vector<wire::GridConfigMessage> grid_configs;
  for (uint32_t g = 0; g < pipeline->num_groups(); ++g) {
    grid_configs.push_back(wire::MakeGridConfig(
        *pipeline, pipeline->schema(), g, pipeline->per_grid_epsilon(),
        config.protocol_options()));
  }
  svc::SimulatorOptions options;
  options.seed = config.seed;
  options.partitioning = config.partitioning;
  const svc::PopulationSimulator simulator(grid_configs, options);
  svc::PipelineSink sink(pipeline.get());
  const auto sent = simulator.Run(
      dataset, [&](const std::vector<wire::ReportMessage>& batch) {
        sink.IngestBatch(batch);
        return true;
      });
  EXPECT_TRUE(sent.has_value());
  return pipeline;
}

std::unique_ptr<core::FelipPipeline> CollectEpoch(
    const data::Dataset& dataset, uint64_t epoch_index) {
  return CollectEpochAt(dataset, EpochConfig(BaseConfig(), epoch_index));
}

// Seals a CollectEpoch pipeline in place for use as a standalone
// reference (the rotation service does this itself inside SealEpoch).
std::unique_ptr<core::FelipPipeline> FinalizeEpoch(
    std::unique_ptr<core::FelipPipeline> pipeline) {
  pipeline->FinishIngest();
  pipeline->Finalize();
  return pipeline;
}

class EpochServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("felip_epoch_service_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(EpochServiceTest, SealAppendsServesAndPersists) {
  EpochStore store(dir(), 8);
  EpochSet epochs(8);
  EpochRotationService service(&store, &epochs);
  EXPECT_EQ(service.open_epoch_index(), 0u);

  const data::Dataset dataset = data::MakeUniform(4000, 2, 0, 32, 2, 900);
  const std::vector<uint64_t> keys = {11, 22, 33};
  const StatusOr<std::string> path =
      service.SealEpoch(CollectEpoch(dataset, 0), keys);
  ASSERT_TRUE(path.ok()) << path.status().ToString();

  EXPECT_EQ(service.epochs_sealed(), 1u);
  EXPECT_EQ(service.seal_failures(), 0u);
  EXPECT_EQ(service.open_epoch_index(), 1u);
  EXPECT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs.newest_seq(), 1u);
  ASSERT_EQ(epochs.schema().size(), 2u);
  EXPECT_EQ(epochs.schema()[0].domain, 32u);

  // The segment on disk carries the header the set serves from.
  const LoadedEpochs loaded = store.LoadAll();
  ASSERT_EQ(loaded.segments.size(), 1u);
  EXPECT_EQ(loaded.segments[0].seq, 1u);
  EXPECT_EQ(loaded.segments[0].reports(), 4000u);
  EXPECT_EQ(loaded.segments[0].epsilon(), 2.0);
}

// The tentpole's acceptance arithmetic: answers served from the sealed
// window must be bit-identical to StreamingCollector over the same
// arrivals — same per-epoch batch engine, same DecayMix fold.
TEST_F(EpochServiceTest, WindowedAnswersMatchStreamingCollectorBitExact) {
  constexpr int kEpochs = 5;
  constexpr uint32_t kWindow = 3;
  constexpr double kDecay = 0.5;

  std::vector<data::Dataset> datasets;
  for (int e = 0; e < kEpochs; ++e) {
    datasets.push_back(data::MakeUniform(3000, 2, 0, 32, 2, 1000 + e));
  }

  StreamConfig stream_config;
  stream_config.felip = BaseConfig();
  stream_config.decay = kDecay;
  stream_config.max_epochs = kWindow;
  StreamingCollector collector(datasets[0].attributes(), stream_config);

  EpochStore store(dir(), kWindow);
  EpochSet epochs(kWindow);
  EpochRotationService service(&store, &epochs);

  for (int e = 0; e < kEpochs; ++e) {
    collector.IngestEpoch(datasets[e]);
    ASSERT_TRUE(service.SealEpoch(CollectEpoch(datasets[e], e), {}).ok());
  }
  ASSERT_EQ(epochs.size(), kWindow);

  const std::vector<query::Query> queries = TestQueries();
  const StatusOr<std::vector<double>> served =
      epochs.AnswerWindowed(queries, 0, kDecay);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_DOUBLE_EQ((*served)[q], collector.AnswerQuery(queries[q]).value())
        << "query " << q;
  }
  // And the newest-only path matches the collector's latest answers.
  const StatusOr<std::vector<double>> latest = epochs.AnswerLatest(queries);
  ASSERT_TRUE(latest.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_DOUBLE_EQ((*latest)[q],
                     collector.AnswerQueryLatest(queries[q]).value())
        << "query " << q;
  }
}

TEST_F(EpochServiceTest, WindowNarrowerThanRetainedMixesOnlyNewest) {
  EpochStore store(dir(), 8);
  EpochSet epochs(8);
  EpochRotationService service(&store, &epochs);
  std::vector<data::Dataset> datasets;
  for (int e = 0; e < 4; ++e) {
    datasets.push_back(data::MakeUniform(2500, 2, 0, 16, 2, 1100 + e));
    ASSERT_TRUE(service.SealEpoch(CollectEpoch(datasets[e], e), {}).ok());
  }
  const std::vector<query::Query> queries = {query::Query(
      {{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 7}})};

  // Reference: per-epoch standalone answers for the newest 2, DecayMixed.
  std::vector<double> history;
  for (int e = 2; e < 4; ++e) {
    history.push_back(
        FinalizeEpoch(CollectEpoch(datasets[e], e))->AnswerQueries(queries)[0]);
  }
  const StatusOr<std::vector<double>> served =
      epochs.AnswerWindowed(queries, 2, 0.5);
  ASSERT_TRUE(served.ok());
  EXPECT_DOUBLE_EQ((*served)[0], DecayMix(history, 0.5));

  // A window deeper than the retained history clamps to what is retained.
  const StatusOr<std::vector<double>> deep =
      epochs.AnswerWindowed(queries, 64, 0.5);
  const StatusOr<std::vector<double>> all =
      epochs.AnswerWindowed(queries, 0, 0.5);
  ASSERT_TRUE(deep.ok() && all.ok());
  EXPECT_DOUBLE_EQ((*deep)[0], (*all)[0]);
}

TEST_F(EpochServiceTest, EmptySetIsFailedPrecondition) {
  EpochSet epochs(4);
  const std::vector<query::Query> queries = TestQueries();
  const StatusOr<std::vector<double>> windowed =
      epochs.AnswerWindowed(queries, 0, 0.5);
  ASSERT_FALSE(windowed.ok());
  EXPECT_EQ(windowed.status().code(), StatusCode::kFailedPrecondition);
  const StatusOr<std::vector<double>> latest = epochs.AnswerLatest(queries);
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kFailedPrecondition);
  // Retryable for a service client: the first seal satisfies it.
  EXPECT_TRUE(IsRetryable(latest.status().code()));
}

TEST_F(EpochServiceTest, RecoverRebuildsWindowAndDedupUnion) {
  std::vector<data::Dataset> datasets;
  std::vector<double> before;
  const std::vector<query::Query> queries = TestQueries();
  {
    EpochStore store(dir(), 8);
    EpochSet epochs(8);
    EpochRotationService service(&store, &epochs);
    for (int e = 0; e < 3; ++e) {
      datasets.push_back(data::MakeUniform(2500, 2, 0, 32, 2, 1200 + e));
      const std::vector<uint64_t> keys = {static_cast<uint64_t>(100 + e),
                                          static_cast<uint64_t>(200 + e)};
      ASSERT_TRUE(service.SealEpoch(CollectEpoch(datasets[e], e), keys).ok());
    }
    before = *epochs.AnswerWindowed(queries, 0, 0.5);
  }

  // Cold restart: a new store/set/service over the same directory.
  EpochStore store(dir(), 8);
  EpochSet epochs(8);
  EpochRotationService service(&store, &epochs);
  const EpochRotationService::RecoveredEpochs recovered =
      service.RecoverSegments();
  EXPECT_EQ(recovered.segments_loaded, 3u);
  EXPECT_EQ(recovered.segments_skipped, 0u);
  // Dedup union, oldest segment first: resends of anything a sealed epoch
  // counted must be recognized after preseeding.
  EXPECT_EQ(recovered.dedup_keys,
            (std::vector<uint64_t>{100, 200, 101, 201, 102, 202}));
  EXPECT_EQ(epochs.newest_seq(), 3u);
  EXPECT_EQ(service.open_epoch_index(), 3u);

  // Recovered answers are bit-identical to the pre-restart window.
  const StatusOr<std::vector<double>> after =
      epochs.AnswerWindowed(queries, 0, 0.5);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), before.size());
  for (size_t q = 0; q < before.size(); ++q) {
    EXPECT_DOUBLE_EQ((*after)[q], before[q]) << "query " << q;
  }
}

TEST_F(EpochServiceTest, RecoverySkipsDamagedSegmentsAndKeepsTheRest) {
  {
    EpochStore store(dir(), 8);
    EpochSet epochs(8);
    EpochRotationService service(&store, &epochs);
    for (int e = 0; e < 3; ++e) {
      const data::Dataset d = data::MakeUniform(2000, 2, 0, 16, 2, 1300 + e);
      ASSERT_TRUE(service.SealEpoch(CollectEpoch(d, e), {}).ok());
    }
  }
  {
    std::ofstream out(fs::path(dir()) / "epoch-2.fesg",
                      std::ios::binary | std::ios::trunc);
    out << "damaged";
  }
  EpochStore store(dir(), 8);
  EpochSet epochs(8);
  EpochRotationService service(&store, &epochs);
  const EpochRotationService::RecoveredEpochs recovered =
      service.RecoverSegments();
  EXPECT_EQ(recovered.segments_loaded, 2u);
  EXPECT_EQ(recovered.segments_skipped, 1u);
  EXPECT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs.newest_seq(), 3u);
  // The next seal does not reuse a committed sequence.
  EXPECT_EQ(service.open_epoch_index(), 3u);
}

TEST_F(EpochServiceTest, WindowBudgetReportsMaxAndComposition) {
  EpochStore store(dir(), 8);
  EpochSet epochs(8);
  EpochRotationService service(&store, &epochs);
  for (int e = 0; e < 3; ++e) {
    const data::Dataset d = data::MakeUniform(1500, 2, 0, 16, 2, 1400 + e);
    core::FelipConfig felip = EpochConfig(BaseConfig(), e);
    felip.epsilon = 1.0 + e;  // 1, 2, 3
    ASSERT_TRUE(service.SealEpoch(CollectEpochAt(d, felip), {}).ok());
  }
  const EpochSet::BudgetReport all = epochs.WindowBudget();
  EXPECT_EQ(all.epochs, 3u);
  EXPECT_EQ(all.reports, 4500u);
  EXPECT_EQ(all.max_epoch_epsilon, 3.0);
  EXPECT_EQ(all.sum_epsilon, 6.0);
  const EpochSet::BudgetReport newest2 = epochs.WindowBudget(2);
  EXPECT_EQ(newest2.epochs, 2u);
  EXPECT_EQ(newest2.sum_epsilon, 5.0);
  EXPECT_EQ(epochs.WindowBudget(64).epochs, 3u);  // clamps like answering
}

TEST_F(EpochServiceTest, EvictionBoundsTheServedWindow) {
  EpochStore store(dir(), 2);
  EpochSet epochs(2);
  EpochRotationService service(&store, &epochs);
  for (int e = 0; e < 4; ++e) {
    const data::Dataset d = data::MakeUniform(1500, 2, 0, 16, 2, 1500 + e);
    ASSERT_TRUE(service.SealEpoch(CollectEpoch(d, e), {}).ok());
  }
  EXPECT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs.newest_seq(), 4u);
  EXPECT_EQ(epochs.WindowBudget().epochs, 2u);
}

using EpochServiceDeathTest = EpochServiceTest;

TEST_F(EpochServiceDeathTest, RejectsUnsealedAppend) {
  const data::Dataset d = data::MakeUniform(100, 2, 0, 16, 2, 1600);
  EpochSet epochs(4);
  SealedEpoch epoch;
  epoch.seq = 1;
  epoch.pipeline = std::make_shared<core::FelipPipeline>(
      d.attributes(), d.num_rows(), BaseConfig());  // still kConfigured
  EXPECT_DEATH(epochs.Append(std::move(epoch)), "finalized");
}

TEST_F(EpochServiceDeathTest, RejectsNonIncreasingSequence) {
  const data::Dataset d = data::MakeUniform(500, 2, 0, 16, 2, 1601);
  EpochSet epochs(4);
  auto make = [&](uint64_t seq) {
    SealedEpoch epoch;
    epoch.seq = seq;
    epoch.pipeline = FinalizeEpoch(CollectEpoch(d, seq));
    return epoch;
  };
  epochs.Append(make(2));
  EXPECT_DEATH(epochs.Append(make(2)), "strictly increasing");
}

TEST_F(EpochServiceDeathTest, RejectsSchemaDrift) {
  EpochSet epochs(4);
  auto make = [&](const data::Dataset& d, uint64_t seq) {
    SealedEpoch epoch;
    epoch.seq = seq;
    epoch.pipeline = FinalizeEpoch(CollectEpoch(d, seq));
    return epoch;
  };
  epochs.Append(make(data::MakeUniform(500, 2, 0, 16, 2, 1602), 1));
  EXPECT_DEATH(
      epochs.Append(make(data::MakeUniform(500, 2, 0, 32, 2, 1603), 2)),
      "schema");
}

TEST_F(EpochServiceDeathTest, RejectsSealingAnEmptyEpoch) {
  EpochStore store(dir(), 4);
  EpochSet epochs(4);
  EpochRotationService service(&store, &epochs);
  const data::Dataset d = data::MakeUniform(100, 2, 0, 16, 2, 1604);
  auto pipeline = std::make_unique<core::FelipPipeline>(
      d.attributes(), d.num_rows(), BaseConfig());
  EXPECT_DEATH(service.SealEpoch(std::move(pipeline), {}), "empty epoch");
}

}  // namespace
}  // namespace felip::stream
