#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/data/synthetic.h"
#include "felip/query/generator.h"
#include "felip/wire/wire.h"

namespace felip::wire {
namespace {

struct Fixture {
  data::Dataset dataset;
  core::FelipConfig config;
  core::FelipPipeline pipeline;
};

Fixture MakeFixture() {
  data::Dataset ds = data::MakeIpumsLike(20000, 4, 32, 4, 1);
  core::FelipConfig config;
  config.epsilon = 1.5;
  config.default_selectivity = 0.4;
  config.olh_options.seed_pool_size = 512;
  config.seed = 9;
  core::FelipPipeline pipeline = core::RunFelip(ds, config);
  return {std::move(ds), config, std::move(pipeline)};
}

TEST(SnapshotTest, EncodeDecodeAnswersIdentically) {
  const Fixture f = MakeFixture();
  const std::vector<uint8_t> encoded = EncodeSnapshot(
      f.pipeline, f.dataset.attributes(), f.dataset.num_rows(), f.config);
  const auto restored = DecodeSnapshot(encoded);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->finalized());
  EXPECT_EQ(restored->num_groups(), f.pipeline.num_groups());

  Rng rng(2);
  const auto queries = query::GenerateQueries(
      f.dataset, 10, {.dimension = 3, .selectivity = 0.4}, rng);
  for (const query::Query& q : queries) {
    EXPECT_NEAR(restored->AnswerQuery(q), f.pipeline.AnswerQuery(q), 1e-9);
  }
}

TEST(SnapshotTest, MarginalsSurviveRoundTrip) {
  const Fixture f = MakeFixture();
  const auto restored = DecodeSnapshot(EncodeSnapshot(
      f.pipeline, f.dataset.attributes(), f.dataset.num_rows(), f.config));
  ASSERT_TRUE(restored.has_value());
  for (uint32_t a = 0; a < f.dataset.num_attributes(); ++a) {
    const std::vector<double> before = f.pipeline.EstimateMarginal(a);
    const std::vector<double> after = restored->EstimateMarginal(a);
    ASSERT_EQ(before.size(), after.size());
    for (size_t v = 0; v < before.size(); ++v) {
      EXPECT_NEAR(before[v], after[v], 1e-9);
    }
  }
}

TEST(SnapshotTest, FileRoundTrip) {
  const Fixture f = MakeFixture();
  const std::string path = ::testing::TempDir() + "/felip_snapshot.bin";
  ASSERT_TRUE(SaveSnapshot(f.pipeline, f.dataset.attributes(),
                           f.dataset.num_rows(), f.config, path)
                  .ok());
  const auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.has_value());
  const query::Query q({{.attr = 0, .op = query::Op::kBetween, .lo = 4,
                         .hi = 20}});
  EXPECT_NEAR(restored->AnswerQuery(q), f.pipeline.AnswerQuery(q), 1e-9);
  std::remove(path.c_str());
}

TEST(SnapshotTest, CorruptionDetected) {
  const Fixture f = MakeFixture();
  std::vector<uint8_t> encoded = EncodeSnapshot(
      f.pipeline, f.dataset.attributes(), f.dataset.num_rows(), f.config);
  encoded[encoded.size() / 2] ^= 0x01;
  EXPECT_FALSE(DecodeSnapshot(encoded).has_value());
}

TEST(SnapshotTest, TruncationDetected) {
  const Fixture f = MakeFixture();
  std::vector<uint8_t> encoded = EncodeSnapshot(
      f.pipeline, f.dataset.attributes(), f.dataset.num_rows(), f.config);
  encoded.resize(encoded.size() - 9);
  EXPECT_FALSE(DecodeSnapshot(encoded).has_value());
}

TEST(SnapshotTest, WrongKindRejected) {
  EXPECT_FALSE(DecodeSnapshot(EncodeReport(ReportMessage{})).has_value());
}

TEST(SnapshotTest, MissingFileFails) {
  EXPECT_FALSE(LoadSnapshot("/definitely/not/here.snapshot").has_value());
}

TEST(SnapshotTest, QuadrantFlagSurvives) {
  data::Dataset ds = data::MakeNormal(15000, 3, 0, 16, 2, 3);
  core::FelipConfig config;
  config.epsilon = 2.0;
  config.lambda_quadrant_fit = true;
  config.seed = 4;
  const core::FelipPipeline pipeline = core::RunFelip(ds, config);
  const auto restored = DecodeSnapshot(
      EncodeSnapshot(pipeline, ds.attributes(), ds.num_rows(), config));
  ASSERT_TRUE(restored.has_value());
  // A full-domain λ=3 query distinguishes the fits: quadrant ≈ 1.
  const query::Query q({
      {.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 15},
      {.attr = 1, .op = query::Op::kBetween, .lo = 0, .hi = 15},
      {.attr = 2, .op = query::Op::kBetween, .lo = 0, .hi = 15},
  });
  EXPECT_NEAR(restored->AnswerQuery(q), 1.0, 0.05);
}

}  // namespace
}  // namespace felip::wire
