#include "felip/node/node.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "felip/dist/partition.h"
#include "felip/replaylog/replay.h"
#include "felip/stream/streaming.h"

namespace felip::node {

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

Mode ModeOf(const NodeConfig& config) {
  if (!config.root.empty()) return Mode::kRoot;
  if (!config.epoch_dir.empty()) return Mode::kEpoch;
  return config.num_shards > 1 ? Mode::kShard : Mode::kSingle;
}

Status TimedOut() { return Status::Unavailable("timed out"); }

}  // namespace

Status NodeConfig::Validate() const {
  const char* error = nullptr;
  if (num_shards < 1 || shard_id >= num_shards) {
    error = "--shard-id must be in [0, --num-shards)";
  } else if (!root.empty() && num_shards > 1) {
    error = "--root and --num-shards are mutually exclusive (the root's "
            "shard count is the endpoint count)";
  } else if (num_shards > 1 && serve_queries) {
    error = "shards hold partial state; serve queries from the root "
            "(--root ... --serve-queries)";
  } else if (!epoch_dir.empty() && (num_shards > 1 || !root.empty())) {
    error = "epoch rotation is single-node; it cannot combine with "
            "--num-shards or --root";
  } else if (!epoch_dir.empty() && !report_log_dir.empty()) {
    error = "the replay log replays one round; it cannot combine with "
            "epoch rotation yet";
  }
  return error == nullptr ? Status::Ok() : Status::InvalidArgument(error);
}

Node::Node(NodeConfig config, svc::Transport* transport,
           std::function<void(const EpochSeal&)> on_seal)
    : config_(std::move(config)),
      transport_(transport),
      on_seal_(std::move(on_seal)),
      mode_(ModeOf(config_)) {
  FELIP_CHECK(transport_ != nullptr);
}

Node::~Node() { (void)Stop(); }

std::string Node::Endpoint(uint64_t port) const {
  return config_.host + ":" + std::to_string(port);
}

Status Node::Start() {
  if (mode_ == Mode::kEpoch) return StartEpochs();
  if (mode_ != Mode::kRoot) return StartRound();
  // The root has no ingest endpoint of its own: AwaitRound pulls every
  // shard's accumulator frames and merges them in shard-id order.
  pipeline_ = std::make_unique<core::FelipPipeline>(
      config_.schema, config_.users, config_.config);
  dist::RootAggregatorOptions options;
  options.expected_reports = config_.users;
  options.plan_digest = dist::PlanDigest(*pipeline_);
  root_ = std::make_unique<dist::RootAggregator>(transport_, config_.root,
                                                 options);
  return Status::Ok();
}

std::vector<uint64_t> Node::AdoptSnapshot(std::optional<uint64_t> seed) {
  if (config_.snapshot_dir.empty()) return {};
  snapshots_ = std::make_unique<snapshot::SnapshotStore>(
      config_.snapshot_dir, static_cast<size_t>(config_.snapshot_keep));
  StatusOr<snapshot::Recovered> recovered =
      snapshot::RecoverFromStore(*snapshots_);
  if (!recovered.ok()) {
    recovery_.snapshot_status = recovered.status();
    return {};
  }
  recovery_.snapshot_path = recovered->path;
  recovery_.snapshots_skipped = recovered->files_skipped;
  core::FelipPipeline& candidate = recovered->state.pipeline;
  // A snapshot past collection belongs to a finished round; one carrying
  // another epoch's seed was written before the last seal. Adopting
  // either would resurrect reports already counted elsewhere.
  if (candidate.state() > core::PipelineState::kCollecting ||
      (seed.has_value() && candidate.config().seed != *seed)) {
    return {};
  }
  recovery_.snapshot_adopted = true;
  recovery_.snapshot_reports = candidate.reports_ingested();
  pipeline_ = std::make_unique<core::FelipPipeline>(std::move(candidate));
  return std::move(recovered->state.dedup_keys);
}

Status Node::StartIngest(svc::IngestServerOptions options,
                         const std::vector<uint64_t>& dedup_keys) {
  options.queue_capacity = static_cast<size_t>(config_.queue_capacity);
  options.worker_threads = config_.workers;
  if (snapshots_ != nullptr) {
    checkpointer_ = std::make_unique<snapshot::Checkpointer>(snapshots_.get(),
                                                             pipeline_.get());
    options.checkpoint_every_batches = config_.snapshot_interval;
    options.checkpoint_every_ms = config_.snapshot_interval_ms;
    options.checkpoint = [this](std::span<const uint64_t> drained_keys) {
      // A checkpoint must never lead the log: every batch the cut claims
      // has to be OS-durable in the log first, or a SIGKILL could leave a
      // snapshot holding batches replay cannot see.
      if (log_ != nullptr) FELIP_RETURN_IF_ERROR(log_->Flush());
      return checkpointer_->Checkpoint(drained_keys);
    };
  }
  ingest_ = std::make_unique<svc::IngestServer>(
      transport_, Endpoint(config_.port), sink_.get(), std::move(options));
  ingest_->PreseedDedup(dedup_keys);
  if (!ingest_->Start()) {
    return Status::Unavailable("could not bind " + Endpoint(config_.port));
  }
  return Status::Ok();
}

Status Node::StartRound() {
  const std::vector<uint64_t> dedup_keys = AdoptSnapshot(std::nullopt);
  if (pipeline_ == nullptr) {
    pipeline_ = std::make_unique<core::FelipPipeline>(
        config_.schema, config_.users, config_.config);
  }
  sink_ = std::make_unique<svc::PipelineSink>(pipeline_.get());

  svc::IngestServerOptions options;
  if (!config_.report_log_dir.empty()) {
    // The plan comes from the live pipeline (flags-derived or recovered),
    // so felip_replay replans the identical layout.
    replaylog::LogWriterOptions log_options;
    log_options.segment_bytes = config_.report_log_segment_mb << 20;
    log_options.keep_segments = static_cast<size_t>(config_.report_log_keep);
    StatusOr<replaylog::LogWriter> opened = replaylog::LogWriter::Open(
        config_.report_log_dir,
        replaylog::EncodePlan(pipeline_->config(), pipeline_->num_users(),
                              pipeline_->schema()),
        log_options);
    if (!opened.ok()) {
      return Status::Unavailable("cannot open report log: " +
                                 opened.status().ToString());
    }
    log_ = std::make_unique<replaylog::LogWriter>(*std::move(opened));
    // Runs under the drain lock: the writer only ever sees one appender.
    options.report_log = [this](uint64_t key,
                                std::span<const uint8_t> frame) {
      return log_->Append(replaylog::RecordType::kBatch, key, frame);
    };
  }
  if (mode_ == Mode::kShard) {
    // Preseed only this shard's keys: after a resharded restart the
    // snapshot may hold batches that now belong to another shard.
    options.owns_key = [router = dist::ShardRouter(config_.num_shards),
                        shard = config_.shard_id](uint64_t key) {
      return router.OwnerShard(key) == shard;
    };
  }
  FELIP_RETURN_IF_ERROR(StartIngest(std::move(options), dedup_keys));
  if (mode_ != Mode::kShard) return Status::Ok();

  dist::ShardAccumulatorOptions accum_options;
  accum_options.shard_id = config_.shard_id;
  accum_options.num_shards = config_.num_shards;
  accum_options.plan_digest = dist::PlanDigest(*pipeline_);
  if (!config_.snapshot_dir.empty()) {
    // Every incarnation serves a larger epoch, so the root discards the
    // frames of dead ones.
    StatusOr<uint64_t> epoch = dist::BumpShardEpoch(config_.snapshot_dir);
    if (!epoch.ok()) {
      return Status(epoch.status().code(), epoch.status().ToString());
    }
    accum_options.epoch = *epoch;
  }
  shard_epoch_ = accum_options.epoch;
  accum_ = std::make_unique<dist::ShardAccumulatorServer>(
      transport_, Endpoint(config_.accum_port), sink_.get(), accum_options);
  if (!accum_->Start()) {
    return Status::Unavailable("could not bind accumulator " +
                               Endpoint(config_.accum_port));
  }
  return Status::Ok();
}

Status Node::StartEpochs() {
  const auto keep = static_cast<size_t>(config_.epoch_keep);
  epoch_store_ = std::make_unique<stream::EpochStore>(config_.epoch_dir, keep);
  epochs_ = std::make_unique<stream::EpochSet>(keep);
  rotation_ = std::make_unique<stream::EpochRotationService>(
      epoch_store_.get(), epochs_.get());
  stream::EpochRotationService::RecoveredEpochs sealed =
      rotation_->RecoverSegments();
  recovery_.segments_loaded = sealed.segments_loaded;
  recovery_.segments_skipped = sealed.segments_skipped;
  recovery_.open_epoch = rotation_->open_epoch_index();

  const core::FelipConfig open_config =
      stream::EpochConfig(config_.config, recovery_.open_epoch);
  const std::vector<uint64_t> open_keys = AdoptSnapshot(open_config.seed);
  sealed.dedup_keys.insert(sealed.dedup_keys.end(), open_keys.begin(),
                           open_keys.end());
  if (pipeline_ == nullptr) {
    pipeline_ = std::make_unique<core::FelipPipeline>(
        config_.schema, config_.epoch_users, open_config);
  }
  sink_ = std::make_unique<svc::PipelineSink>(pipeline_.get());

  svc::IngestServerOptions options;
  if (config_.epoch_interval_ms == 0) {
    // Count-driven: rotate the moment the open epoch reaches its
    // population, on the drain path itself.
    options.after_drain = [this](const svc::DrainCut& cut) {
      if (pipeline_->reports_ingested() >= config_.epoch_users) Rotate(cut);
    };
  }
  FELIP_RETURN_IF_ERROR(StartIngest(std::move(options), sealed.dedup_keys));

  // Queries are answered from the sealed window for the whole run, so
  // they never touch the open, still-mutating epoch.
  if (config_.serve_queries) {
    queries_ = std::make_unique<svc::QueryServer>(
        transport_, Endpoint(config_.query_port), /*pipeline=*/nullptr,
        svc::QueryServerOptions{}, epochs_.get());
    if (!queries_->Start()) {
      return Status::Unavailable("could not bind query endpoint " +
                                 Endpoint(config_.query_port));
    }
  }
  if (config_.epoch_interval_ms > 0) {
    // Clock-driven: take a drain cut every interval and seal whatever the
    // open epoch collected.
    rotator_ = std::thread([this] {
      while (!stop_rotation_.load()) {
        std::this_thread::sleep_for(milliseconds(config_.epoch_interval_ms));
        if (stop_rotation_.load()) break;
        ingest_->WithDrainCut(
            [this](const svc::DrainCut& cut) { Rotate(cut); });
      }
    });
  }
  return Status::Ok();
}

void Node::Rotate(const svc::DrainCut& cut) {
  // An epoch is only sealable once every grid has a report (estimation
  // debiases by each grid's own n); a clock tick mid-ramp leaves it open.
  if (pipeline_->min_grid_reports() == 0) return;
  auto next = std::make_unique<core::FelipPipeline>(
      config_.schema, config_.epoch_users,
      stream::EpochConfig(config_.config, rotation_->open_epoch_index() + 1));
  sink_->SwapPipeline(next.get());
  if (checkpointer_ != nullptr) checkpointer_->set_pipeline(next.get());
  std::unique_ptr<core::FelipPipeline> closed =
      std::exchange(pipeline_, std::move(next));
  const core::FelipPipeline& sealed = *closed;  // the window keeps it
  EpochSeal seal;
  seal.written = rotation_->SealEpoch(std::move(closed), cut.Keys()).ok();
  seal.seq = epochs_->newest_seq();
  seal.reports = sealed.reports_ingested();
  seal.digest = core::GridFrequencyDigest(sealed);
  if (on_seal_) on_seal_(seal);
}

Status Node::AwaitRound() {
  switch (mode_) {
    case Mode::kRoot:
      FELIP_RETURN_IF_ERROR(root_->PullUntilComplete(config_.timeout_ms));
      return root_->MergeInto(pipeline_.get());
    case Mode::kShard:
      // Only the root can tell when the global population is in.
      return accum_->WaitForSeal(config_.timeout_ms) ? Status::Ok()
                                                      : TimedOut();
    case Mode::kSingle:
      // A recovered pipeline already counts part of the population; resends
      // of those batches ack kAlreadyExists and never reach the sink.
      return ingest_->WaitForReports(
                 config_.users -
                     std::min(config_.users, recovery_.snapshot_reports),
                 config_.timeout_ms)
                 ? Status::Ok()
                 : TimedOut();
    case Mode::kEpoch: {
      // Epochs recovered from a previous incarnation count.
      const auto deadline = Clock::now() + milliseconds(config_.timeout_ms);
      while (epochs_->newest_seq() < config_.epochs) {
        if (Clock::now() >= deadline) return TimedOut();
        std::this_thread::sleep_for(milliseconds(10));
      }
      return Status::Ok();
    }
  }
  return TimedOut();
}

Status Node::Stop() {
  if (stopped_) return log_sealed_;
  stopped_ = true;
  stop_rotation_.store(true);
  if (rotator_.joinable()) rotator_.join();
  if (ingest_ != nullptr) ingest_->Stop();
  if (accum_ != nullptr) accum_->Stop();
  if (mode_ == Mode::kSingle && sink_ != nullptr) sink_->Finish();
  if (log_ != nullptr) log_sealed_ = log_->Seal();
  return log_sealed_;
}

Status Node::Finalize() {
  // The wait completes on reports *seen*; a population the sink rejected
  // (devices planning with other flags) would finalize empty oracles.
  if (mode_ == Mode::kSingle && sink_->rejected() > 0) {
    return Status::FailedPrecondition(
        std::to_string(sink_->rejected()) + " reports rejected (accepted=" +
        std::to_string(sink_->accepted()) + "/" +
        std::to_string(config_.users) +
        "); client and server must share --epsilon/--strategy/--protocols/"
        "--report-budget-bytes so devices perturb the plan this server "
        "expects");
  }
  pipeline_->Finalize();
  return Status::Ok();
}

Status Node::StartQueries() {
  queries_ = std::make_unique<svc::QueryServer>(
      transport_, Endpoint(config_.query_port), pipeline_.get());
  if (!queries_->Start()) {
    return Status::Unavailable("could not bind query endpoint " +
                               Endpoint(config_.query_port));
  }
  return Status::Ok();
}

bool Node::AwaitQueries() {
  if (mode_ != Mode::kEpoch) {
    const bool served = queries_->WaitForBatches(config_.query_batches,
                                                 config_.query_timeout_ms);
    queries_->Stop();
    return served;
  }
  // Epoch queries were served all run (pacing polls, mid-run windows), so
  // a fixed post-seal count would race the client: serve until no batch
  // arrived for half a second and the total reached query_batches.
  const auto deadline = Clock::now() + milliseconds(config_.query_timeout_ms);
  uint64_t answered = queries_->batches_answered();
  while (Clock::now() < deadline &&
         (queries_->WaitForBatches(answered + 1, 500) ||
          answered < config_.query_batches)) {
    answered = queries_->batches_answered();
  }
  queries_->Stop();
  return queries_->batches_answered() >= config_.query_batches;
}

}  // namespace felip::node
