#include "felip/dist/accumulator.h"

#include <charconv>
#include <chrono>
#include <filesystem>
#include <string>

#include "felip/common/check.h"
#include "felip/common/hash.h"
#include "felip/dist/partition.h"
#include "felip/obs/metrics.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/storage/storage.h"
#include "felip/wire/wire.h"

namespace felip::dist {

uint64_t PlanDigest(const core::FelipPipeline& pipeline) {
  const std::vector<uint8_t> config = snapshot::EncodeConfigSection(
      pipeline.config(), pipeline.num_users());
  const std::vector<uint8_t> schema =
      snapshot::EncodeSchemaSection(pipeline.schema());
  uint64_t digest = XxHash64Bytes(config.data(), config.size(), kRingSalt);
  return XxHash64Bytes(schema.data(), schema.size(), digest);
}

StatusOr<uint64_t> BumpShardEpoch(const std::string& dir) {
  if (!storage::CreateDirectories(dir).ok()) {
    return Status::Unavailable("cannot create shard epoch directory: " + dir);
  }
  const std::string path =
      (std::filesystem::path(dir) / "EPOCH").string();
  uint64_t epoch = 0;
  StatusOr<std::vector<uint8_t>> bytes = storage::ReadFile(path);
  if (bytes.ok()) {
    const char* begin = reinterpret_cast<const char*>(bytes->data());
    const auto [ptr, parse_ec] =
        std::from_chars(begin, begin + bytes->size(), epoch);
    if (parse_ec != std::errc()) {
      return Status::DataLoss("shard epoch file is corrupt: " + path);
    }
  }
  ++epoch;
  const std::string text = std::to_string(epoch);
  FELIP_RETURN_IF_ERROR(storage::WriteFileAtomic(
      path, std::vector<uint8_t>(text.begin(), text.end())));
  return epoch;
}

ShardAccumulatorServer::ShardAccumulatorServer(svc::Transport* transport,
                                               const std::string& endpoint,
                                               svc::PipelineSink* sink,
                                               ShardAccumulatorOptions options)
    : transport_(transport),
      endpoint_(endpoint),
      sink_(sink),
      options_(options) {
  FELIP_CHECK(transport != nullptr);
  FELIP_CHECK(sink != nullptr);
  FELIP_CHECK_MSG(options.shard_id < options.num_shards,
                  "shard id out of range");
}

ShardAccumulatorServer::~ShardAccumulatorServer() { Stop(); }

bool ShardAccumulatorServer::Start() {
  frame_server_ = transport_->NewServer(endpoint_);
  if (frame_server_ == nullptr) return false;
  if (!frame_server_->Start([this](uint64_t, std::vector<uint8_t>&& payload) {
        return HandlePull(std::move(payload));
      })) {
    frame_server_.reset();
    return false;
  }
  return true;
}

void ShardAccumulatorServer::Stop() {
  if (frame_server_ != nullptr) {
    frame_server_->Stop();
    frame_server_.reset();
  }
}

std::string ShardAccumulatorServer::endpoint() const {
  FELIP_CHECK_MSG(frame_server_ != nullptr, "endpoint() before Start()");
  return frame_server_->endpoint();
}

bool ShardAccumulatorServer::WaitForSeal(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return sealed_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [this] { return sealed_; });
}

std::vector<uint8_t> ShardAccumulatorServer::HandlePull(
    std::vector<uint8_t>&& payload) {
  static obs::Counter& served_total = obs::Registry::Default().GetCounter(
      "felip_dist_frames_served_total");
  static obs::Counter& rejected_total = obs::Registry::Default().GetCounter(
      "felip_dist_pulls_rejected_total");
  StatusOr<wire::AccumulatorPullMessage> pull =
      wire::DecodeAccumulatorPull(payload);
  if (!pull.ok() || pull->shard_id != options_.shard_id) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pulls_rejected_;
    rejected_total.Increment();
    // No response: the root's receive times out and it reconnects; a
    // persistent mismatch means the topology is misconfigured.
    return {};
  }
  wire::AccumulatorFrameMessage frame;
  frame.shard_id = options_.shard_id;
  frame.num_shards = options_.num_shards;
  frame.epoch = options_.epoch;
  frame.plan_digest = options_.plan_digest;
  // Export under the sink's ingest mutex: one consistent cut of
  // (oracle states, reports_ingested), even while batches drain.
  sink_->WithPipelineLocked([&frame](core::FelipPipeline& pipeline) {
    frame.reports_ingested = pipeline.reports_ingested();
    frame.oracle_section =
        snapshot::PipelineCodec::EncodeOracleSection(pipeline);
  });
  {
    std::lock_guard<std::mutex> lock(mutex_);
    frame.sequence = ++sequence_;
    if (pull->seal) sealed_ = true;
    frame.sealed = sealed_;
    ++frames_served_;
  }
  if (pull->seal) sealed_cv_.notify_all();
  served_total.Increment();
  return wire::EncodeAccumulatorFrame(frame);
}

uint64_t ShardAccumulatorServer::frames_served() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frames_served_;
}

uint64_t ShardAccumulatorServer::pulls_rejected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pulls_rejected_;
}

}  // namespace felip::dist
