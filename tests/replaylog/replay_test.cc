// Replay acceptance: a report log written on the live ingest drain path
// must replay to estimates BIT-IDENTICAL to the live round — on a clean
// transport, under injected faults, across SIMD dispatch levels and
// aggregation thread counts, and for every normalization when the live
// round used the same one. Plus the recovery-oriented reading contract:
// torn tails replay their prefix, resealed-but-damaged payloads are
// caught by the wire trailer, duplicate records fall to the idempotency
// window, and mismatched plans refuse to mix.

#include "felip/replaylog/replay.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/node/node.h"
#include "felip/post/norm_sub.h"
#include "felip/replaylog/format.h"
#include "felip/replaylog/store.h"
#include "felip/simd/dispatch.h"
#include "felip/storage/storage.h"
#include "felip/svc/client.h"
#include "felip/svc/fault_injection.h"
#include "felip/svc/loopback.h"
#include "support/rounds.h"

namespace felip::replaylog {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kUsers = 3000;
constexpr uint32_t kAttributes = 4;
constexpr uint32_t kNumDomain = 30;
constexpr uint32_t kCatDomain = 6;
constexpr uint64_t kSeed = 7;

core::FelipConfig MakeConfig() {
  core::FelipConfig config;
  config.strategy = core::Strategy::kOhg;
  config.partitioning = core::PartitioningMode::kDivideUsers;
  config.epsilon = 1.0;
  config.seed = kSeed;
  return config;
}

data::Dataset MakeData() {
  return data::MakeIpumsLike(kUsers, kAttributes, kNumDomain, kCatDomain,
                             kSeed);
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / "felip_replaylog_replay" / name)
          .string();
  fs::remove_all(dir);
  return dir;
}

struct LoggedRound {
  uint64_t digest = 0;          // live grid-frequency digest, finalized
  uint64_t batches_logged = 0;  // unique drained batches on the log
  uint64_t reports = 0;
};

// A networked ingest round (mirroring tests/svc/loopback_e2e_test.cc) on
// a node::Node with --report-log-dir set, so the log is written on the
// server's drain path exactly as felip_server writes it.
LoggedRound RunLoggedRound(const std::string& log_dir,
                           const core::FelipConfig& config,
                           const svc::FaultOptions* faults = nullptr) {
  const data::Dataset dataset = MakeData();
  node::NodeConfig node_config;
  node_config.schema = dataset.attributes();
  node_config.users = kUsers;
  node_config.config = config;
  node_config.host = "ingest";
  node_config.queue_capacity = 8;
  node_config.workers = 3;
  node_config.timeout_ms = 30000;
  node_config.report_log_dir = log_dir;
  svc::LoopbackTransport transport;
  node::Node node(node_config, &transport);
  EXPECT_TRUE(node.Start().ok());

  std::unique_ptr<svc::FaultInjectingTransport> faulty;
  svc::Transport* client_transport = &transport;
  if (faults != nullptr) {
    faulty =
        std::make_unique<svc::FaultInjectingTransport>(&transport, *faults);
    client_transport = faulty.get();
  }
  svc::IngestClientOptions client_options;
  client_options.connect_timeout_ms = 500;
  client_options.response_timeout_ms = 250;
  client_options.max_attempts = 64;
  svc::IngestClient client(client_transport, node.ingest()->endpoint(),
                           client_options);
  uint64_t sent = 0;
  for (const test_support::Batch& batch :
       test_support::MakeBatches(dataset, node.pipeline(), 128)) {
    EXPECT_TRUE(client.SendBatch(batch).ok()) << "delivery failed";
    sent += batch.size();
  }
  EXPECT_TRUE(node.AwaitRound().ok());
  EXPECT_TRUE(node.Stop().ok());
  EXPECT_EQ(node.ingest()->log_failures(), 0u);
  EXPECT_TRUE(node.Finalize().ok());

  LoggedRound round;
  round.digest = core::GridFrequencyDigest(node.pipeline());
  round.batches_logged = node.ingest()->batches_logged();
  round.reports = sent;
  if (faults != nullptr) {
    EXPECT_GT(faulty->faults_injected(), 0u);
  }
  return round;
}

// The in-process reference round: same accepted multiset as the
// networked one (pinned bit-identical by tests/svc/loopback_e2e_test.cc),
// so its digest is what a replay under `config` must reproduce.
uint64_t InProcessDigest(const core::FelipConfig& config) {
  const data::Dataset dataset = MakeData();
  core::FelipPipeline pipeline(dataset.attributes(), kUsers, config);
  pipeline.Collect(dataset);
  pipeline.Finalize();
  return core::GridFrequencyDigest(pipeline);
}

uint64_t FinalizedReplayDigest(ReplayResult* result) {
  result->pipeline.Finalize();
  return core::GridFrequencyDigest(result->pipeline);
}

// One shared logged round: writing it takes a full networked ingest, and
// every replay below reads the same frozen corpus — exactly the
// write-once read-many shape the log is designed for.
class ReplayE2eTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Process-unique: ctest runs each discovered test in its own process,
    // possibly in parallel, and every process builds its own round.
    log_dir_ = new std::string(
        FreshDir("shared_round_" + std::to_string(::getpid())));
    round_ = new LoggedRound(RunLoggedRound(*log_dir_, MakeConfig()));
    ASSERT_EQ(round_->reports, kUsers);
    ASSERT_GT(round_->batches_logged, 0u);
  }

  static void TearDownTestSuite() {
    fs::remove_all(*log_dir_);
    delete round_;
    delete log_dir_;
  }

  // Copies the shared round's segments into a fresh dir a test can
  // mutate freely.
  static std::string CloneLog(const std::string& name) {
    const std::string dir = FreshDir(name);
    fs::create_directories(dir);
    for (const std::string& path : ListSegmentsOldestFirst(*log_dir_)) {
      fs::copy_file(path, fs::path(dir) / fs::path(path).filename());
    }
    return dir;
  }

  static std::string* log_dir_;
  static LoggedRound* round_;
};

std::string* ReplayE2eTest::log_dir_ = nullptr;
LoggedRound* ReplayE2eTest::round_ = nullptr;

// Reads every record of a segment file (expects no damage).
std::vector<LogRecord> ReadSegment(const std::string& path,
                                   std::vector<uint8_t>* plan) {
  StatusOr<std::vector<uint8_t>> bytes = storage::ReadFile(path);
  EXPECT_TRUE(bytes.ok());
  StatusOr<SegmentParser> parser = SegmentParser::Open(*std::move(bytes));
  EXPECT_TRUE(parser.ok()) << parser.status().ToString();
  *plan = parser->plan();
  std::vector<LogRecord> records;
  LogRecord record;
  while (true) {
    const StatusOr<bool> next = parser->Next(&record);
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !*next) return records;
    records.push_back(record);
  }
}

void WriteSegment(const std::string& path, const std::vector<uint8_t>& plan,
                  const std::vector<LogRecord>& records) {
  std::vector<uint8_t> bytes = EncodeSegmentHeader(plan);
  for (const LogRecord& record : records) {
    AppendRecord(&bytes, record.type, record.key, record.payload);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST_F(ReplayE2eTest, ReplayReproducesTheLiveDigestBitIdentically) {
  StatusOr<ReplayResult> result = ReplayLog(*log_dir_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->stats.segments_read, 1u);
  EXPECT_EQ(result->stats.segments_damaged, 0u);
  EXPECT_EQ(result->stats.batches_replayed, round_->batches_logged);
  EXPECT_EQ(result->stats.batches_duplicate, 0u);
  EXPECT_EQ(result->stats.batches_undecodable, 0u);
  EXPECT_EQ(result->stats.reports_accepted, kUsers);
  EXPECT_EQ(result->stats.reports_rejected, 0u);
  EXPECT_EQ(FinalizedReplayDigest(&*result), round_->digest);
}

TEST_F(ReplayE2eTest, NormalizationOverridesMatchEquivalentLiveRounds) {
  // Negativity removal is post-processing: one frozen corpus replays
  // under each normalization to exactly the estimate a live round with
  // that normalization produces. This is ROADMAP item 5's workflow.
  const post::Normalization kAll[] = {post::Normalization::kNormSub,
                                      post::Normalization::kNormMul,
                                      post::Normalization::kNormCut};
  for (const post::Normalization normalization : kAll) {
    core::FelipConfig config = MakeConfig();
    config.normalization = normalization;
    const uint64_t reference = InProcessDigest(config);
    ReplayOverrides overrides;
    overrides.normalization = normalization;
    StatusOr<ReplayResult> result = ReplayLog(*log_dir_, overrides);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(FinalizedReplayDigest(&*result), reference)
        << "normalization "
        << post::NormalizationName(normalization);
  }
}

TEST_F(ReplayE2eTest, ReplayIsInvariantAcrossSimdLevelsAndThreadCounts) {
  // The live round ran at the default dispatch level with the server's
  // thread pool; every (level, threads) replay must land on the same
  // digest — aggregation depends only on the accepted multiset.
  for (const simd::Level level : simd::CompiledLevels()) {
    if (!simd::LevelSupported(level)) continue;
    simd::ScopedLevelOverride pin(level);
    for (const unsigned threads : {1u, 3u}) {
      ReplayOverrides overrides;
      overrides.aggregation_threads = threads;
      StatusOr<ReplayResult> result = ReplayLog(*log_dir_, overrides);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(FinalizedReplayDigest(&*result), round_->digest)
          << simd::LevelName(level) << " x " << threads << " threads";
    }
  }
}

TEST_F(ReplayE2eTest, TornTailReplaysEverythingBeforeTheTear) {
  const std::string dir = CloneLog("torn_tail");
  std::vector<std::string> segments = ListSegmentsOldestFirst(dir);
  ASSERT_FALSE(segments.empty());
  const std::string& last = segments.back();
  const StatusOr<std::vector<uint8_t>> bytes =
      storage::ReadFile(last);
  ASSERT_TRUE(bytes.ok());
  // Cut into the final record: mid-append crash shape.
  ASSERT_GT(bytes->size(), 5u);
  fs::resize_file(last, bytes->size() - 5);

  StatusOr<ReplayResult> result = ReplayLog(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.segments_damaged, 1u);
  EXPECT_EQ(result->stats.batches_replayed, round_->batches_logged - 1);
}

TEST_F(ReplayE2eTest, ResealedPayloadDamageIsCaughtByTheWireTrailer) {
  // Flip one payload byte and RE-SEAL the record: the segment format
  // reads it cleanly, so the wire checksum trailer inside the payload is
  // the gate that must catch it — counted undecodable, never ingested.
  const std::string dir = CloneLog("resealed");
  const std::vector<std::string> segments = ListSegmentsOldestFirst(dir);
  ASSERT_FALSE(segments.empty());
  std::vector<uint8_t> plan;
  std::vector<LogRecord> records = ReadSegment(segments[0], &plan);
  ASSERT_FALSE(records.empty());
  records.back().payload[records.back().payload.size() / 2] ^= 0x10;
  WriteSegment(segments[0], plan, records);

  StatusOr<ReplayResult> result = ReplayLog(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.segments_damaged, 0u);
  EXPECT_EQ(result->stats.batches_undecodable, 1u);
  EXPECT_EQ(result->stats.batches_replayed, round_->batches_logged - 1);
}

TEST_F(ReplayE2eTest, DuplicateRecordsFallToTheIdempotencyWindow) {
  // A crash-spanning log legitimately re-logs resent batches; replaying
  // with the server's dedup window drops them and lands on the clean
  // digest.
  const std::string dir = CloneLog("duplicates");
  const std::vector<std::string> segments = ListSegmentsOldestFirst(dir);
  ASSERT_FALSE(segments.empty());
  std::vector<uint8_t> plan;
  std::vector<LogRecord> records = ReadSegment(segments[0], &plan);
  ASSERT_GE(records.size(), 2u);
  records.push_back(records[0]);
  records.push_back(records[1]);
  WriteSegment(segments[0], plan, records);

  StatusOr<ReplayResult> result = ReplayLog(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.batches_duplicate, 2u);
  EXPECT_EQ(result->stats.batches_replayed, round_->batches_logged);
  EXPECT_EQ(FinalizedReplayDigest(&*result), round_->digest);
}

TEST_F(ReplayE2eTest, SegmentsWithDifferentPlansRefuseToMix) {
  // Byte-identical plans are how segments prove they belong to one
  // round; a foreign segment (here: same schema, different epsilon)
  // fails the whole replay rather than silently mixing estimates.
  const std::string dir = CloneLog("plan_mismatch");
  core::FelipConfig other = MakeConfig();
  other.epsilon = 2.0;
  const std::vector<uint8_t> foreign_plan =
      EncodePlan(other, kUsers, MakeData().attributes());
  WriteSegment((fs::path(dir) / "reportlog-9.flog").string(), foreign_plan,
               {});

  const StatusOr<ReplayResult> result = ReplayLog(dir);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ReplayE2eTest, EmptyDirectoryIsNotFound) {
  const StatusOr<ReplayResult> result = ReplayLog(FreshDir("void"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ReplayE2eTest, AllGarbageSegmentsAreDataLoss) {
  const std::string dir = FreshDir("garbage");
  fs::create_directories(dir);
  std::FILE* f = std::fopen(
      (fs::path(dir) / "reportlog-1.flog").string().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a segment", f);
  std::fclose(f);
  const StatusOr<ReplayResult> result = ReplayLog(dir);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(ReplayFaultSoakTest, FaultSoakLogReplaysBitIdentically) {
  // Drops, truncations, and resets force client resends, but the drain
  // path logs each unique batch once — so the log replays to the live
  // digest, which itself equals the in-process reference.
  const std::string dir = FreshDir("fault_soak");
  svc::FaultOptions faults;
  faults.drop_prob = 0.12;
  faults.truncate_prob = 0.08;
  faults.reset_prob = 0.05;
  faults.drop_response_prob = 0.08;
  faults.seed = kSeed + 99;
  const LoggedRound round = RunLoggedRound(dir, MakeConfig(), &faults);
  EXPECT_EQ(round.reports, kUsers);
  EXPECT_EQ(round.digest, InProcessDigest(MakeConfig()));

  StatusOr<ReplayResult> result = ReplayLog(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.reports_accepted, kUsers);
  EXPECT_EQ(FinalizedReplayDigest(&*result), round.digest);
}

}  // namespace
}  // namespace felip::replaylog
