// The pipeline lifecycle state machine
// (kConfigured -> kCollecting -> kSealed -> kQueryable): legal paths walk
// the states in order, every out-of-order operation is a FELIP_CHECK
// abort that names the operation and both states, and PipelineStateName
// is stable (it appears in snapshot diagnostics and logs).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/svc/simulator.h"
#include "felip/svc/sink.h"
#include "felip/wire/wire.h"

namespace felip::core {
namespace {

constexpr uint64_t kUsers = 500;

data::Dataset MakeData() {
  return data::MakeIpumsLike(kUsers, 3, 16, 4, 11);
}

FelipConfig MakeConfig() {
  FelipConfig config;
  config.epsilon = 1.0;
  config.seed = 11;
  return config;
}

TEST(LifecycleTest, StateNamesAreStable) {
  EXPECT_EQ(PipelineStateName(PipelineState::kConfigured), "configured");
  EXPECT_EQ(PipelineStateName(PipelineState::kCollecting), "collecting");
  EXPECT_EQ(PipelineStateName(PipelineState::kSealed), "sealed");
  EXPECT_EQ(PipelineStateName(PipelineState::kQueryable), "queryable");
}

TEST(LifecycleTest, CollectPathWalksConfiguredSealedQueryable) {
  const data::Dataset dataset = MakeData();
  FelipPipeline pipeline(dataset.attributes(), kUsers, MakeConfig());
  EXPECT_EQ(pipeline.state(), PipelineState::kConfigured);

  pipeline.Collect(dataset);
  EXPECT_EQ(pipeline.state(), PipelineState::kSealed);

  pipeline.Finalize();
  EXPECT_EQ(pipeline.state(), PipelineState::kQueryable);
}

TEST(LifecycleTest, IngestPathWalksEveryState) {
  const data::Dataset dataset = MakeData();
  const FelipConfig config = MakeConfig();
  FelipPipeline pipeline(dataset.attributes(), kUsers, config);
  EXPECT_EQ(pipeline.state(), PipelineState::kConfigured);

  pipeline.BeginIngest();
  EXPECT_EQ(pipeline.state(), PipelineState::kCollecting);
  EXPECT_EQ(pipeline.reports_ingested(), 0u);

  // Feed the whole population through the report path; the sink adopts
  // the already-collecting pipeline rather than re-arming it.
  std::vector<wire::GridConfigMessage> grid_configs;
  for (uint32_t g = 0; g < pipeline.num_groups(); ++g) {
    grid_configs.push_back(wire::MakeGridConfig(
        pipeline, pipeline.schema(), g, pipeline.per_grid_epsilon(),
        config.protocol_options()));
  }
  svc::SimulatorOptions options;
  options.seed = config.seed;
  options.partitioning = config.partitioning;
  const svc::PopulationSimulator simulator(grid_configs, options);
  svc::PipelineSink sink(&pipeline);
  const auto sent = simulator.Run(
      dataset, [&](const std::vector<wire::ReportMessage>& batch) {
        sink.IngestBatch(batch);
        return true;
      });
  ASSERT_TRUE(sent.has_value());
  EXPECT_EQ(pipeline.state(), PipelineState::kCollecting);
  EXPECT_EQ(pipeline.reports_ingested(), kUsers);

  pipeline.FinishIngest();
  EXPECT_EQ(pipeline.state(), PipelineState::kSealed);

  pipeline.Finalize();
  EXPECT_EQ(pipeline.state(), PipelineState::kQueryable);
}

TEST(LifecycleDeathTest, FinalizeBeforeCollectionAborts) {
  const data::Dataset dataset = MakeData();
  FelipPipeline pipeline(dataset.attributes(), kUsers, MakeConfig());
  EXPECT_DEATH(pipeline.Finalize(), "lifecycle violation");
}

TEST(LifecycleDeathTest, DoubleBeginIngestAborts) {
  const data::Dataset dataset = MakeData();
  FelipPipeline pipeline(dataset.attributes(), kUsers, MakeConfig());
  pipeline.BeginIngest();
  EXPECT_DEATH(pipeline.BeginIngest(), "lifecycle violation");
}

TEST(LifecycleDeathTest, FinishIngestWithoutBeginAborts) {
  const data::Dataset dataset = MakeData();
  FelipPipeline pipeline(dataset.attributes(), kUsers, MakeConfig());
  EXPECT_DEATH(pipeline.FinishIngest(), "lifecycle violation");
}

TEST(LifecycleDeathTest, CollectAfterBeginIngestAborts) {
  const data::Dataset dataset = MakeData();
  FelipPipeline pipeline(dataset.attributes(), kUsers, MakeConfig());
  pipeline.BeginIngest();
  EXPECT_DEATH(pipeline.Collect(dataset), "lifecycle violation");
}

TEST(LifecycleDeathTest, DoubleFinalizeAborts) {
  const data::Dataset dataset = MakeData();
  FelipPipeline pipeline(dataset.attributes(), kUsers, MakeConfig());
  pipeline.Collect(dataset);
  pipeline.Finalize();
  EXPECT_DEATH(pipeline.Finalize(), "lifecycle violation");
}

TEST(LifecycleDeathTest, QueriesBeforeFinalizeAbort) {
  const data::Dataset dataset = MakeData();
  FelipPipeline pipeline(dataset.attributes(), kUsers, MakeConfig());
  pipeline.Collect(dataset);  // kSealed, still not queryable
  EXPECT_DEATH(pipeline.EstimateMarginal(0), "lifecycle violation");
  EXPECT_DEATH((void)pipeline.ExportGridFrequencies(),
               "lifecycle violation");
}

TEST(LifecycleDeathTest, ViolationNamesOperationAndStates) {
  const data::Dataset dataset = MakeData();
  FelipPipeline pipeline(dataset.attributes(), kUsers, MakeConfig());
  // The abort message must carry enough to debug from a crash log alone:
  // which operation, which state it needed, which state it found.
  EXPECT_DEATH(pipeline.Finalize(),
               "Finalize\\(\\) requires state 'sealed' but the pipeline "
               "is 'configured'");
}

}  // namespace
}  // namespace felip::core
