// The merge algebra the distributed tier rests on: folding shard
// accumulators together must equal collecting the concatenated report
// sets on one node — for every frequency-oracle protocol, compared by
// bit pattern, including the empty-shard and single-report edges.
//
// Two comparison strengths are used deliberately:
//   * Contiguous splits (shard A = a prefix of the stream) reproduce the
//     single-node ingest order exactly, so the serialized accumulator
//     sections must be byte-for-byte identical — counts AND the raw
//     report lists of per-user OLH.
//   * Hash-routed splits interleave the report lists, so the sections
//     may permute; there the estimates (which are functions of the
//     multiset only) must still be bitwise identical.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/dist/partition.h"
#include "felip/fo/frequency_oracle.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/svc/message.h"
#include "felip/svc/sink.h"
#include "felip/wire/wire.h"
#include "support/rounds.h"

namespace felip::dist {
namespace {

constexpr uint64_t kUsers = 1200;
constexpr uint64_t kSeed = 11;

using test_support::Batch;
using test_support::ExpectIdenticalEstimates;

struct ProtocolCase {
  std::string name;
  core::FelipConfig config;
};

std::vector<ProtocolCase> ProtocolCases() {
  std::vector<ProtocolCase> cases;
  {
    core::FelipConfig config;
    config.seed = kSeed;
    config.allow_grr = true;
    config.allow_olh = false;
    config.allow_oue = false;
    cases.push_back({"grr", config});
  }
  {
    core::FelipConfig config;
    config.seed = kSeed;
    config.allow_grr = false;
    config.allow_olh = true;
    config.allow_oue = false;
    config.olh_options.seed_pool_size = 256;
    cases.push_back({"olh_pool", config});
  }
  {
    core::FelipConfig config;
    config.seed = kSeed;
    config.allow_grr = false;
    config.allow_olh = true;
    config.allow_oue = false;
    config.olh_options.seed_pool_size = 0;  // per-user seeds: raw reports
    cases.push_back({"olh_per_user", config});
  }
  {
    core::FelipConfig config;
    config.seed = kSeed;
    config.allow_grr = false;
    config.allow_olh = false;
    config.allow_oue = true;
    cases.push_back({"oue", config});
  }
  {
    core::FelipConfig config;
    config.seed = kSeed;
    config.allow_grr = false;
    config.allow_olh = false;
    config.allow_pgr = true;
    cases.push_back({"pgr", config});
  }
  {
    core::FelipConfig config;
    config.seed = kSeed;
    config.allow_grr = false;
    config.allow_olh = false;
    config.allow_fldp = true;
    config.fldp_options.subset_pool_size = 128;
    cases.push_back({"fldp", config});
  }
  return cases;
}

data::Dataset MakeData(uint64_t users) {
  return data::MakeIpumsLike(users, 3, 16, 4, kSeed);
}

std::vector<Batch> MakeBatches(const data::Dataset& dataset,
                               const core::FelipConfig& config,
                               uint64_t users) {
  const core::FelipPipeline planned(dataset.attributes(), users, config);
  return test_support::MakeBatches(dataset, planned, 64);
}

// Collects `batches` on one node, leaving the pipeline sealed.
core::FelipPipeline CollectOnOneNode(const data::Dataset& dataset,
                                     const core::FelipConfig& config,
                                     uint64_t users,
                                     const std::vector<Batch>& batches) {
  core::FelipPipeline pipeline(dataset.attributes(), users, config);
  svc::PipelineSink sink(&pipeline);
  for (const Batch& batch : batches) sink.IngestBatch(batch);
  sink.Finish();
  EXPECT_EQ(sink.rejected(), 0u);
  return pipeline;
}

// Folds the shards' exported accumulator sections into a fresh pipeline,
// exactly the way RootAggregator::MergeInto does.
core::FelipPipeline MergeShards(
    const data::Dataset& dataset, const core::FelipConfig& config,
    uint64_t users, const std::vector<core::FelipPipeline>& shards) {
  core::FelipPipeline merged(dataset.attributes(), users, config);
  merged.BeginIngest();
  for (const core::FelipPipeline& shard : shards) {
    const std::vector<uint8_t> section =
        snapshot::PipelineCodec::EncodeOracleSection(shard);
    std::vector<fo::OracleState> states;
    const Status decoded =
        snapshot::PipelineCodec::DecodeOracleSection(section, &states);
    EXPECT_TRUE(decoded.ok()) << decoded.ToString();
    const Status status =
        merged.MergeAccumulators(std::move(states), shard.reports_ingested());
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  merged.FinishIngest();
  return merged;
}

TEST(MergePropertyTest, ContiguousSplitsMergeToIdenticalBytes) {
  const data::Dataset dataset = MakeData(kUsers);
  for (const ProtocolCase& pc : ProtocolCases()) {
    SCOPED_TRACE(pc.name);
    const std::vector<Batch> batches =
        MakeBatches(dataset, pc.config, kUsers);
    ASSERT_GT(batches.size(), 2u);
    core::FelipPipeline reference =
        CollectOnOneNode(dataset, pc.config, kUsers, batches);
    const std::vector<uint8_t> reference_bytes =
        snapshot::PipelineCodec::EncodeOracleSection(reference);

    // Splits at the start (shard A empty), middle, and end (shard B
    // empty): A-then-B merge order reproduces the single-node stream.
    for (const size_t cut : {size_t{0}, batches.size() / 2, batches.size()}) {
      SCOPED_TRACE("cut " + std::to_string(cut));
      const std::vector<Batch> first(batches.begin(), batches.begin() + cut);
      const std::vector<Batch> second(batches.begin() + cut, batches.end());
      std::vector<core::FelipPipeline> shards;
      shards.push_back(CollectOnOneNode(dataset, pc.config, kUsers, first));
      shards.push_back(CollectOnOneNode(dataset, pc.config, kUsers, second));
      core::FelipPipeline merged =
          MergeShards(dataset, pc.config, kUsers, shards);
      EXPECT_EQ(merged.reports_ingested(), reference.reports_ingested());
      EXPECT_EQ(snapshot::PipelineCodec::EncodeOracleSection(merged),
                reference_bytes)
          << "merged accumulator bytes differ from single-node collection";
    }
  }
}

TEST(MergePropertyTest, HashRoutedSplitsMergeToIdenticalEstimates) {
  const data::Dataset dataset = MakeData(kUsers);
  for (const ProtocolCase& pc : ProtocolCases()) {
    SCOPED_TRACE(pc.name);
    const std::vector<Batch> batches =
        MakeBatches(dataset, pc.config, kUsers);
    core::FelipPipeline reference =
        CollectOnOneNode(dataset, pc.config, kUsers, batches);
    reference.Finalize();

    for (const uint32_t num_shards : {2u, 4u}) {
      SCOPED_TRACE(std::to_string(num_shards) + " shards");
      const ShardRouter router(num_shards);
      std::vector<std::vector<Batch>> parts(num_shards);
      for (const Batch& batch : batches) {
        const auto key = svc::ChecksumTrailer(wire::EncodeReportBatch(batch));
        ASSERT_TRUE(key.has_value());
        parts[router.OwnerShard(*key)].push_back(batch);
      }
      std::vector<core::FelipPipeline> shards;
      for (const std::vector<Batch>& part : parts) {
        shards.push_back(CollectOnOneNode(dataset, pc.config, kUsers, part));
      }
      core::FelipPipeline merged =
          MergeShards(dataset, pc.config, kUsers, shards);
      EXPECT_EQ(merged.reports_ingested(), reference.reports_ingested());
      merged.Finalize();
      ExpectIdenticalEstimates(reference, merged);
    }
  }
}

TEST(MergePropertyTest, SingleReportRoundMerges) {
  // One user, one report, one shard holding it and one empty: the merge
  // must reproduce the one-node accumulator bit for bit.
  const data::Dataset dataset = MakeData(1);
  for (const ProtocolCase& pc : ProtocolCases()) {
    SCOPED_TRACE(pc.name);
    const std::vector<Batch> batches = MakeBatches(dataset, pc.config, 1);
    ASSERT_EQ(batches.size(), 1u);
    core::FelipPipeline reference =
        CollectOnOneNode(dataset, pc.config, 1, batches);

    std::vector<core::FelipPipeline> shards;
    shards.push_back(CollectOnOneNode(dataset, pc.config, 1, batches));
    shards.push_back(CollectOnOneNode(dataset, pc.config, 1, {}));
    core::FelipPipeline merged = MergeShards(dataset, pc.config, 1, shards);
    EXPECT_EQ(merged.reports_ingested(), 1u);
    EXPECT_EQ(snapshot::PipelineCodec::EncodeOracleSection(merged),
              snapshot::PipelineCodec::EncodeOracleSection(reference));
  }
}

TEST(MergePropertyTest, AllShardsEmptyMergesToEmpty) {
  const data::Dataset dataset = MakeData(kUsers);
  const core::FelipConfig config = ProtocolCases().front().config;
  std::vector<core::FelipPipeline> shards;
  shards.push_back(CollectOnOneNode(dataset, config, kUsers, {}));
  shards.push_back(CollectOnOneNode(dataset, config, kUsers, {}));
  core::FelipPipeline merged = MergeShards(dataset, config, kUsers, shards);
  EXPECT_EQ(merged.reports_ingested(), 0u);

  core::FelipPipeline empty(dataset.attributes(), kUsers, config);
  empty.BeginIngest();
  empty.FinishIngest();
  EXPECT_EQ(snapshot::PipelineCodec::EncodeOracleSection(merged),
            snapshot::PipelineCodec::EncodeOracleSection(empty));
}

TEST(MergePropertyTest, MergeOracleStateRejectsShapeMismatches) {
  fo::OracleState into;
  into.protocol = fo::Protocol::kGrr;
  into.counts = {1, 2, 3};
  into.num_reports = 6;
  const fo::OracleState original = into;

  fo::OracleState from = into;
  from.counts = {4, 5, 6};
  ASSERT_TRUE(fo::MergeOracleState(&into, from).ok());
  EXPECT_EQ(into.counts, (std::vector<uint64_t>{5, 7, 9}));
  EXPECT_EQ(into.num_reports, 12u);

  // Protocol mismatch: untouched.
  into = original;
  from.protocol = fo::Protocol::kOue;
  EXPECT_EQ(fo::MergeOracleState(&into, from).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(into.counts, original.counts);

  // Domain (shape) mismatch: untouched.
  from = original;
  from.counts = {1, 2};
  EXPECT_EQ(fo::MergeOracleState(&into, from).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(into.counts, original.counts);
}

TEST(MergePropertyTest, MergeOracleStateRejectsPoolOverflow) {
  fo::OracleState into;
  into.protocol = fo::Protocol::kOlh;
  into.pool_counts = {std::numeric_limits<uint32_t>::max(), 1};
  into.num_reports = 2;
  fo::OracleState from;
  from.protocol = fo::Protocol::kOlh;
  from.pool_counts = {1, 0};
  from.num_reports = 1;
  const fo::OracleState original = into;
  EXPECT_EQ(fo::MergeOracleState(&into, from).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(into.pool_counts, original.pool_counts);
  EXPECT_EQ(into.num_reports, original.num_reports);
}

TEST(MergePropertyTest, MergeAccumulatorsValidatesBeforeMutating) {
  const data::Dataset dataset = MakeData(kUsers);
  const core::FelipConfig config = ProtocolCases().front().config;
  core::FelipPipeline pipeline(dataset.attributes(), kUsers, config);
  pipeline.BeginIngest();

  // Wrong grid count.
  EXPECT_EQ(pipeline.MergeAccumulators({}, 0).code(),
            StatusCode::kInvalidArgument);

  // Report count that disagrees with the states' own totals.
  std::vector<fo::OracleState> states;
  const Status decoded = snapshot::PipelineCodec::DecodeOracleSection(
      snapshot::PipelineCodec::EncodeOracleSection(pipeline), &states);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(pipeline.MergeAccumulators(std::move(states), 5).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.reports_ingested(), 0u);
}

}  // namespace
}  // namespace felip::dist
