// PipelineCodec acceptance: snapshots restore the *complete* pipeline
// state with bit-identical results. The load-bearing claims:
//
//   * A mid-collection snapshot resumed with the remaining reports ends
//     bit-identical to a run that never stopped — for GRR, OLH, and OUE
//     oracle accumulators alike.
//   * A kQueryable snapshot answers every query bit-identically, whether
//     response matrices were persisted or rebuilt on load.
//   * Decode is total over untrusted bytes: corrupted, cross-bred, and
//     section-mutated files come back as Status, never a crash and never
//     a silently different pipeline.

#include "felip/snapshot/pipeline_snapshot.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/obs/metrics.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"
#include "felip/snapshot/format.h"
#include "felip/storage/storage.h"
#include "felip/svc/sink.h"
#include "support/alloc_cap.h"
#include "support/rounds.h"

namespace felip::snapshot {
namespace {

constexpr uint64_t kUsers = 2000;
constexpr uint32_t kAttributes = 3;
constexpr uint32_t kNumDomain = 24;
constexpr uint32_t kCatDomain = 5;
constexpr uint64_t kSeed = 5;

data::Dataset MakeData() {
  return data::MakeIpumsLike(kUsers, kAttributes, kNumDomain, kCatDomain,
                             kSeed);
}

core::FelipConfig MakeConfig(bool grr = true, bool olh = true,
                             bool oue = false, bool pgr = false,
                             bool fldp = false) {
  core::FelipConfig config;
  config.epsilon = 1.2;
  config.seed = kSeed;
  config.allow_grr = grr;
  config.allow_olh = olh;
  config.allow_oue = oue;
  config.allow_pgr = pgr;
  config.allow_fldp = fldp;
  config.olh_options.seed_pool_size = 256;
  config.fldp_options.subset_pool_size = 128;
  return config;
}

// The device-side report stream, materialized so a test can replay a
// prefix into one pipeline and the suffix into its snapshot-restored twin.
std::vector<test_support::Batch> MakeBatches(
    const data::Dataset& dataset, const core::FelipPipeline& planned) {
  return test_support::MakeBatches(dataset, planned, 128);
}

// Bit-identical estimates, plus identical answers to a query workload.
void ExpectIdenticalEstimates(const core::FelipPipeline& expected,
                              const core::FelipPipeline& actual) {
  test_support::ExpectIdenticalEstimates(expected, actual);
  Rng rng(kSeed + 2);
  const data::Dataset shape = MakeData();
  const auto queries = query::GenerateQueries(
      shape, 20, {.dimension = 2, .selectivity = 0.4}, rng);
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(expected.AnswerQuery(queries[q]),
              actual.AnswerQuery(queries[q]))
        << "query " << q;
  }
}

struct ProtocolCase {
  const char* name;
  bool grr, olh, oue, pgr, fldp;
};

constexpr ProtocolCase kProtocolCases[] = {
    {"grr-only", true, false, false, false, false},
    {"olh-only", false, true, false, false, false},
    {"oue-only", false, false, true, false, false},
    {"pgr-only", false, false, false, true, false},
    {"fldp-only", false, false, false, false, true},
    {"adaptive", true, true, false, false, false},
};

TEST(PipelineSnapshotTest, MidCollectionResumeIsBitIdenticalPerProtocol) {
  const data::Dataset dataset = MakeData();
  for (const ProtocolCase& pc : kProtocolCases) {
    SCOPED_TRACE(pc.name);
    const core::FelipConfig config =
        MakeConfig(pc.grr, pc.olh, pc.oue, pc.pgr, pc.fldp);

    core::FelipPipeline reference(dataset.attributes(), kUsers, config);
    const auto batches = MakeBatches(dataset, reference);
    ASSERT_GT(batches.size(), 2u);

    // Uninterrupted run.
    {
      svc::PipelineSink sink(&reference);
      for (const auto& batch : batches) sink.IngestBatch(batch);
      sink.Finish();
    }
    reference.Finalize();

    // Interrupted run: half the stream, snapshot, restore, the rest.
    core::FelipPipeline interrupted(dataset.attributes(), kUsers, config);
    const size_t half = batches.size() / 2;
    {
      svc::PipelineSink sink(&interrupted);
      for (size_t b = 0; b < half; ++b) sink.IngestBatch(batches[b]);
    }
    const std::vector<uint8_t> bytes =
        PipelineCodec::Encode(interrupted, {}, {});
    StatusOr<RecoveredPipeline> recovered = PipelineCodec::Decode(bytes);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    core::FelipPipeline resumed = std::move(recovered->pipeline);
    ASSERT_EQ(resumed.state(), core::PipelineState::kCollecting);
    EXPECT_EQ(resumed.reports_ingested(), interrupted.reports_ingested());
    {
      svc::PipelineSink sink(&resumed);
      for (size_t b = half; b < batches.size(); ++b) {
        sink.IngestBatch(batches[b]);
      }
      sink.Finish();
    }
    resumed.Finalize();

    ExpectIdenticalEstimates(reference, resumed);
  }
}

TEST(PipelineSnapshotTest, ConfiguredSnapshotReplansIdentically) {
  const data::Dataset dataset = MakeData();
  const core::FelipConfig config = MakeConfig();
  core::FelipPipeline original(dataset.attributes(), kUsers, config);

  const auto bytes = PipelineCodec::Encode(original, {}, {});
  auto recovered = PipelineCodec::Decode(bytes);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  core::FelipPipeline replanned = std::move(recovered->pipeline);
  EXPECT_EQ(replanned.state(), core::PipelineState::kConfigured);
  ASSERT_EQ(replanned.num_groups(), original.num_groups());

  // Both collect the same round; identical planning means identical
  // estimates.
  original.Collect(dataset);
  original.Finalize();
  replanned.Collect(dataset);
  replanned.Finalize();
  ExpectIdenticalEstimates(original, replanned);
}

TEST(PipelineSnapshotTest, BudgetedFldpConfigReplansIdentically) {
  // The config section must carry the budget and the FLDP options: a
  // restored pipeline replans with them, so a mismatch would change the
  // plan (and the estimates) silently.
  const data::Dataset dataset = MakeData();
  core::FelipConfig config =
      MakeConfig(true, true, false, true, true);
  config.report_budget_bytes = 16;
  config.fldp_options.report_bits = 4;
  config.fldp_options.subset_pool_size = 64;
  config.fldp_options.pool_salt = 0xabcdef;
  core::FelipPipeline original(dataset.attributes(), kUsers, config);

  const auto bytes = PipelineCodec::Encode(original, {}, {});
  auto recovered = PipelineCodec::Decode(bytes);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  core::FelipPipeline replanned = std::move(recovered->pipeline);
  ASSERT_EQ(replanned.num_groups(), original.num_groups());
  const auto& original_plans = original.assignments();
  const auto& replanned_plans = replanned.assignments();
  ASSERT_EQ(original_plans.size(), replanned_plans.size());
  for (size_t g = 0; g < original_plans.size(); ++g) {
    EXPECT_EQ(original_plans[g].plan.protocol,
              replanned_plans[g].plan.protocol)
        << "grid " << g;
    EXPECT_EQ(original_plans[g].plan.report_bytes,
              replanned_plans[g].plan.report_bytes)
        << "grid " << g;
  }

  original.Collect(dataset);
  original.Finalize();
  replanned.Collect(dataset);
  replanned.Finalize();
  ExpectIdenticalEstimates(original, replanned);
}

TEST(PipelineSnapshotTest, SealedSnapshotFinalizesIdentically) {
  const data::Dataset dataset = MakeData();
  core::FelipPipeline original(dataset.attributes(), kUsers, MakeConfig());
  original.Collect(dataset);  // kSealed

  const auto bytes = PipelineCodec::Encode(original, {}, {});
  auto recovered = PipelineCodec::Decode(bytes);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  core::FelipPipeline restored = std::move(recovered->pipeline);
  EXPECT_EQ(restored.state(), core::PipelineState::kSealed);

  original.Finalize();
  restored.Finalize();
  ExpectIdenticalEstimates(original, restored);
}

TEST(PipelineSnapshotTest, QueryableSnapshotAnswersBitIdentically) {
  const data::Dataset dataset = MakeData();
  const core::FelipPipeline original =
      core::RunFelip(dataset, MakeConfig());

  for (const bool include_rm : {false, true}) {
    SCOPED_TRACE(include_rm ? "persisted response matrices"
                            : "rebuilt response matrices");
    core::SnapshotOptions options;
    options.include_response_matrices = include_rm;
    const auto bytes = PipelineCodec::Encode(original, options, {});
    auto recovered = PipelineCodec::Decode(bytes);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const core::FelipPipeline restored = std::move(recovered->pipeline);
    EXPECT_EQ(restored.state(), core::PipelineState::kQueryable);
    ExpectIdenticalEstimates(original, restored);
    for (uint32_t attr = 0; attr < kAttributes; ++attr) {
      EXPECT_EQ(original.EstimateMarginal(attr),
                restored.EstimateMarginal(attr));
    }
  }
}

TEST(PipelineSnapshotTest, DedupKeysRoundTrip) {
  const data::Dataset dataset = MakeData();
  const core::FelipPipeline pipeline(dataset.attributes(), kUsers,
                                     MakeConfig());
  const std::vector<uint64_t> keys = {0xdead, 0xbeef, 42, 0, ~0ull};
  const auto bytes = PipelineCodec::Encode(pipeline, {}, keys);
  const auto recovered = PipelineCodec::Decode(bytes);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->dedup_keys, keys);
}

TEST(PipelineSnapshotTest, SaveLoadFileRoundTripAndMetrics) {
  const data::Dataset dataset = MakeData();
  const core::FelipPipeline original =
      core::RunFelip(dataset, MakeConfig());
  const std::string path =
      ::testing::TempDir() + "/felip_pipeline_snapshot.felip";

  const Status saved = original.SaveSnapshot(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  EXPECT_GT(obs::Registry::Default().GaugeValue("felip_snapshot_bytes"), 0.0);

  const StatusOr<core::FelipPipeline> loaded =
      core::FelipPipeline::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIdenticalEstimates(original, *loaded);
  std::remove(path.c_str());
}

TEST(PipelineSnapshotTest, MissingFileIsNotFound) {
  const auto loaded =
      core::FelipPipeline::LoadSnapshot("/definitely/not/here.felip");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(PipelineSnapshotTest, CorruptedFileIsDataLoss) {
  const data::Dataset dataset = MakeData();
  const core::FelipPipeline original =
      core::RunFelip(dataset, MakeConfig());
  const std::string path =
      ::testing::TempDir() + "/felip_corrupt_snapshot.felip";
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  StatusOr<std::vector<uint8_t>> bytes = storage::ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 3] ^= 0x10;
  ASSERT_TRUE(storage::WriteFileAtomic(path, *bytes).ok());

  const auto loaded = core::FelipPipeline::LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// ---- Adversarial section surgery: checksum-valid but semantically wrong
// files must fail with Status, never abort or mis-restore. The helpers
// reopen a valid file, rewrite its sections, and reseal everything.

std::vector<uint8_t> RebuildFile(
    uint8_t state_byte,
    const std::vector<SnapshotReader::Section>& sections) {
  SnapshotWriter writer(state_byte);
  for (const auto& section : sections) {
    writer.AppendSection(section.id, section.payload);
  }
  return std::move(writer).Finish();
}

std::vector<SnapshotReader::Section> OpenSections(
    const std::vector<uint8_t>& bytes, uint8_t* state_byte) {
  const auto reader = SnapshotReader::Open(bytes);
  EXPECT_TRUE(reader.ok());
  *state_byte = reader->state_byte();
  return reader->sections();
}

TEST(PipelineSnapshotAdversarialTest, MissingRequiredSectionRejected) {
  const data::Dataset dataset = MakeData();
  const core::FelipPipeline pipeline(dataset.attributes(), kUsers,
                                     MakeConfig());
  const auto bytes = PipelineCodec::Encode(pipeline, {}, {});
  uint8_t state_byte = 0;
  const auto sections = OpenSections(bytes, &state_byte);

  for (size_t drop = 0; drop < sections.size(); ++drop) {
    if (sections[drop].id == SectionId::kDedup) continue;  // optional
    std::vector<SnapshotReader::Section> remaining;
    for (size_t i = 0; i < sections.size(); ++i) {
      if (i != drop) remaining.push_back(sections[i]);
    }
    const auto rebuilt = RebuildFile(state_byte, remaining);
    const auto decoded = PipelineCodec::Decode(rebuilt);
    EXPECT_FALSE(decoded.ok())
        << "decoded without section " << static_cast<int>(sections[drop].id);
  }
}

TEST(PipelineSnapshotAdversarialTest, HeaderStateDisagreementRejected) {
  const data::Dataset dataset = MakeData();
  const core::FelipPipeline pipeline(dataset.attributes(), kUsers,
                                     MakeConfig());
  const auto bytes = PipelineCodec::Encode(pipeline, {}, {});
  uint8_t state_byte = 0;
  const auto sections = OpenSections(bytes, &state_byte);
  // Claim kQueryable in the envelope while kState says kConfigured.
  const auto rebuilt = RebuildFile(
      static_cast<uint8_t>(core::PipelineState::kQueryable), sections);
  EXPECT_FALSE(PipelineCodec::Decode(rebuilt).ok());
}

TEST(PipelineSnapshotAdversarialTest, CrossBredSnapshotsRejected) {
  // Oracles captured under one config grafted into a snapshot of another
  // config: the replanned layout disagrees with the oracle shapes, and
  // the codec must say so instead of restoring a chimera.
  const data::Dataset dataset = MakeData();
  core::FelipPipeline olh(dataset.attributes(), kUsers,
                          MakeConfig(false, true, false));
  core::FelipPipeline oue(dataset.attributes(), kUsers,
                          MakeConfig(false, false, true));
  olh.BeginIngest();
  oue.BeginIngest();
  const auto olh_bytes = PipelineCodec::Encode(olh, {}, {});
  const auto oue_bytes = PipelineCodec::Encode(oue, {}, {});

  uint8_t state_byte = 0;
  const auto olh_sections = OpenSections(olh_bytes, &state_byte);
  const auto oue_sections = OpenSections(oue_bytes, &state_byte);
  std::vector<SnapshotReader::Section> chimera;
  for (const auto& section : olh_sections) {
    if (section.id == SectionId::kOracles) {
      for (const auto& other : oue_sections) {
        if (other.id == SectionId::kOracles) chimera.push_back(other);
      }
    } else {
      chimera.push_back(section);
    }
  }
  const auto rebuilt = RebuildFile(state_byte, chimera);
  const auto decoded = PipelineCodec::Decode(rebuilt);
  EXPECT_FALSE(decoded.ok());
}

TEST(PipelineSnapshotAdversarialTest, SectionByteFlipSweepNeverCrashes) {
  // Reseal-after-flip fuzz over the sections whose payloads are pure
  // accumulator/frequency/key data. Every mutant must decode to ok or a
  // clean Status — the assertion is the absence of aborts, OOMs, and
  // out-of-bounds reads (sanitizer CI runs this same sweep under
  // ASan/UBSan via the `snapshot` label). Decoding runs under the
  // allocation cap (support/alloc_cap.h), so a length read from a flipped
  // byte that sizes a buffer fails here on every host.
  const data::Dataset dataset = MakeData();
  core::FelipPipeline pipeline(dataset.attributes(), kUsers, MakeConfig());
  {
    svc::PipelineSink sink(&pipeline);
    const auto batches = MakeBatches(dataset, pipeline);
    for (size_t b = 0; b < 2 && b < batches.size(); ++b) {
      sink.IngestBatch(batches[b]);
    }
  }
  const auto bytes =
      PipelineCodec::Encode(pipeline, {}, std::vector<uint64_t>{1, 2, 3});
  uint8_t state_byte = 0;
  const auto sections = OpenSections(bytes, &state_byte);

  Rng rng(kSeed + 77);
  size_t mutants = 0;
  for (size_t s = 0; s < sections.size(); ++s) {
    const SectionId id = sections[s].id;
    if (id != SectionId::kState && id != SectionId::kOracles &&
        id != SectionId::kGridFrequencies && id != SectionId::kDedup) {
      continue;
    }
    const size_t len = sections[s].payload.size();
    for (size_t trial = 0; trial < 64 && len > 0; ++trial) {
      auto mutated = sections;
      const size_t byte = static_cast<size_t>(rng.Next() % len);
      const auto bit = static_cast<uint8_t>(1u << (rng.Next() % 8));
      mutated[s].payload[byte] ^= bit;
      const auto rebuilt = RebuildFile(state_byte, mutated);
      const test_support::ScopedAllocationCap cap(rebuilt.size());
      const auto decoded = PipelineCodec::Decode(rebuilt);
      if (!decoded.ok()) {
        EXPECT_FALSE(decoded.status().message().empty());
      }
      ++mutants;
    }
  }
  EXPECT_GT(mutants, 0u);
}

TEST(PipelineSnapshotAdversarialTest, TruncationSweepRejected) {
  const data::Dataset dataset = MakeData();
  const core::FelipPipeline pipeline(dataset.attributes(), kUsers,
                                     MakeConfig());
  const auto bytes = PipelineCodec::Encode(pipeline, {}, {});
  for (size_t keep = 0; keep < bytes.size(); keep += 7) {
    const std::vector<uint8_t> truncated(bytes.begin(),
                                         bytes.begin() + keep);
    EXPECT_FALSE(PipelineCodec::Decode(truncated).ok())
        << "decoded at truncation length " << keep;
  }
}

}  // namespace
}  // namespace felip::snapshot
