// Pins the exact bits of the response matrices (Algorithm 3) a fixed-seed
// OHG pipeline builds, and of the answers it gives, against fixed
// digests. SimdGoldenTest only compares dispatch levels with each other
// and golden_pipeline_test allows 1e-6, so without this a change to the
// sweep's accumulation order would pass both as long as every level
// moved together. Every runnable level must reproduce the digests, and
// the two rebuilds of derived state (FromEstimatedGrids, and a queryable
// snapshot load) must reproduce Finalize's bits.

#include <cstdint>
#include <ios>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/hash.h"
#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/post/response_matrix.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"
#include "felip/simd/dispatch.h"
#include "felip/snapshot/format.h"
#include "felip/snapshot/pipeline_snapshot.h"

namespace felip {
namespace {

// Digests of the pipeline below. Any change to them is a change to the
// numbers FELIP publishes and must be explained, never regenerated to
// make this test pass.
constexpr uint64_t kBlocksDigest = 0x867b75a2878071c4;
constexpr uint64_t kJointsDigest = 0x0c9318c19bbc5d12;
constexpr uint64_t kAnswersDigest = 0x094a4c0e01dcca4c;

struct Fingerprint {
  uint64_t blocks = 0;   // every pair's ExportBlocks(): bx, by, mass bits
  uint64_t joints = 0;   // the pipeline's own matrices, via EstimateJoint
  uint64_t answers = 0;  // 64 answers, λ from 2 to 6
};

template <typename T>
uint64_t Chain(uint64_t h, const std::vector<T>& v) {
  return XxHash64Bytes(v.data(), v.size() * sizeof(T), h);
}

const data::Dataset& Dataset() {
  static const data::Dataset* dataset = new data::Dataset(data::MakeIpumsLike(
      /*n=*/30000, /*num_attributes=*/6, /*numerical_domain=*/32,
      /*categorical_domain=*/6, /*seed=*/31));
  return *dataset;
}

core::FelipConfig Config() {
  core::FelipConfig config;
  config.strategy = core::Strategy::kOhg;
  config.epsilon = 1.0;
  config.seed = 17;
  return config;
}

std::vector<query::Query> Queries() {
  std::vector<query::Query> queries;
  Rng rng(2024);
  for (uint32_t lambda = 2; lambda <= 6; ++lambda) {
    const uint32_t count = lambda == 6 ? 12 : 13;
    auto batch = query::GenerateQueries(
        Dataset(), count, {.dimension = lambda, .selectivity = 0.5}, rng);
    queries.insert(queries.end(), batch.begin(), batch.end());
  }
  return queries;
}

Fingerprint Of(const core::FelipPipeline& pipeline) {
  const auto one_dim = [&pipeline](uint32_t attr) -> const grid::Grid1D* {
    for (const grid::Grid1D& g : pipeline.grids_1d()) {
      if (g.attr() == attr) return &g;
    }
    return nullptr;
  };
  Fingerprint f;
  for (const grid::Grid2D& g2 : pipeline.grids_2d()) {
    const post::ResponseMatrix built = post::ResponseMatrix::Build(
        g2, one_dim(g2.attr_x()), one_dim(g2.attr_y()),
        pipeline.config().response_matrix_options);
    const post::ResponseMatrix::Blocks blocks = built.ExportBlocks();
    f.blocks = Chain(f.blocks, blocks.bx);
    f.blocks = Chain(f.blocks, blocks.by);
    f.blocks = Chain(f.blocks, blocks.mass);
    // The pipeline's stored matrix densifies to the rebuilt one's bits.
    const std::vector<double> joint =
        pipeline.EstimateJoint(g2.attr_x(), g2.attr_y());
    const std::vector<double> dense = built.ToDense();
    EXPECT_EQ(XxHash64Bytes(joint.data(), joint.size() * sizeof(double), 0),
              XxHash64Bytes(dense.data(), dense.size() * sizeof(double), 0))
        << "pair (" << g2.attr_x() << ", " << g2.attr_y() << ")";
    f.joints = Chain(f.joints, joint);
  }
  const std::vector<query::Query> queries = Queries();
  EXPECT_EQ(queries.size(), 64u);
  f.answers = Chain(0, pipeline.AnswerQueries(queries));
  return f;
}

void ExpectPinned(const Fingerprint& f, const char* what) {
  EXPECT_EQ(f.blocks, kBlocksDigest)
      << what << std::hex << ": 0x" << f.blocks;
  EXPECT_EQ(f.joints, kJointsDigest)
      << what << std::hex << ": 0x" << f.joints;
  EXPECT_EQ(f.answers, kAnswersDigest)
      << what << std::hex << ": 0x" << f.answers;
}

TEST(ResponseMatrixPinTest, FinalizeMatchesPinnedDigestsAtEveryLevel) {
  for (const simd::Level level : simd::CompiledLevels()) {
    if (!simd::LevelSupported(level)) continue;
    simd::ScopedLevelOverride pin(level);
    ExpectPinned(Of(core::RunFelip(Dataset(), Config())),
                 simd::LevelName(level));
  }
}

TEST(ResponseMatrixPinTest, RebuildsOfDerivedStateMatchFinalize) {
  const core::FelipPipeline finalized = core::RunFelip(Dataset(), Config());
  ExpectPinned(Of(finalized), "finalize");

  const core::FelipPipeline from_grids =
      core::FelipPipeline::FromEstimatedGrids(
          finalized.schema(), finalized.num_users(), finalized.config(),
          finalized.ExportGridFrequencies());
  ExpectPinned(Of(from_grids), "from-estimated-grids");

  // A snapshot carries no response matrices, so the load rebuilds them.
  const std::vector<uint8_t> bytes =
      snapshot::PipelineCodec::Encode(finalized, {});
  auto recovered = snapshot::PipelineCodec::Decode(bytes);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectPinned(Of(recovered.value().pipeline), "snapshot-rebuild");
}

// Older writers could store the matrices in section 6, which is now
// reserved. The loader never looks that id up, so a file that carries it
// loads and rebuilds, even when the payload is one no matrix decoder
// would accept: 3 bytes, shorter than a matrix count.
TEST(ResponseMatrixPinTest, StoredMatrixSectionIsIgnoredOnLoad) {
  const core::FelipPipeline finalized = core::RunFelip(Dataset(), Config());
  const auto reader = snapshot::SnapshotReader::Open(
      snapshot::PipelineCodec::Encode(finalized, {}));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  snapshot::SnapshotWriter writer(reader->state_byte());
  for (const snapshot::SnapshotReader::Section& section : reader->sections()) {
    writer.AppendSection(section.id, section.payload);
    if (section.id == snapshot::SectionId::kGridFrequencies) {
      writer.AppendSection(snapshot::SectionId::kResponseMatrices,
                           {0x01, 0x02, 0x03});
    }
  }
  auto recovered =
      snapshot::PipelineCodec::Decode(std::move(writer).Finish());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectPinned(Of(recovered.value().pipeline), "stored-section");
}

}  // namespace
}  // namespace felip
