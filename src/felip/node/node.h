// One FELIP service node: ingest, snapshots, report log, shard
// accumulator, epoch rotation and query serving composed in one place,
// with the order in which they recover durable state. felip_server is flag
// parsing plus a Node; the service tests build the same Node over a
// loopback transport. The mode follows from the config as felip_server's
// flags derive it: `root` set — pull, merge and finalize the shards;
// `epoch_dir` set — rotate sealed epochs; `num_shards` > 1 — ingest one
// shard's partition; otherwise a single node. The recovery order is in
// docs/service.md, "Composition and recovery order".

#ifndef FELIP_NODE_NODE_H_
#define FELIP_NODE_NODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "felip/common/status.h"
#include "felip/core/felip.h"
#include "felip/dist/accumulator.h"
#include "felip/dist/root.h"
#include "felip/replaylog/store.h"
#include "felip/snapshot/checkpoint.h"
#include "felip/stream/epoch_service.h"
#include "felip/svc/query_service.h"
#include "felip/svc/server.h"

namespace felip::node {

// Every field is a felip_server flag (named after it) or an
// IngestServerOptions field.
struct NodeConfig {
  // The plan: --attributes/--num-domain/--cat-domain give the schema and
  // --epsilon/--strategy/--protocols/--report-budget-bytes/--seed/
  // --normalization the config.
  std::vector<data::AttributeInfo> schema;
  uint64_t users = 100000;
  core::FelipConfig config;

  std::string host = "127.0.0.1";
  uint64_t port = 7071;
  uint64_t queue_capacity = 64;   // IngestServerOptions::queue_capacity
  int timeout_ms = 60000;

  bool serve_queries = false;
  uint64_t query_port = 0;
  uint64_t query_batches = 1;
  int query_timeout_ms = 60000;

  std::string snapshot_dir;
  uint64_t snapshot_interval = 8;
  uint64_t snapshot_interval_ms = 0;
  uint64_t snapshot_keep = 3;

  std::string report_log_dir;
  uint64_t report_log_segment_mb = 64;
  uint64_t report_log_keep = 0;

  std::string epoch_dir;
  uint64_t epoch_keep = 8;
  uint64_t epoch_interval_ms = 0;
  // Reports per epoch; felip_server defaults --epoch-users to --users.
  uint64_t epoch_users = 0;
  uint64_t epochs = 4;

  uint32_t num_shards = 1;
  uint32_t shard_id = 0;
  uint64_t accum_port = 0;
  std::vector<std::string> root;

  // kInvalidArgument, naming the flags, for combinations no mode serves.
  Status Validate() const;
};

enum class Mode { kSingle, kShard, kRoot, kEpoch };

// What Start() found on disk: the newest verifiable snapshot (no path:
// `snapshot_status` says why) and whether it was adopted, and in epoch
// mode the sealed segments reloaded and the epoch left open.
struct Recovery {
  Status snapshot_status;
  std::string snapshot_path;
  size_t snapshots_skipped = 0;
  bool snapshot_adopted = false;
  uint64_t snapshot_reports = 0;
  size_t segments_loaded = 0;
  size_t segments_skipped = 0;
  uint64_t open_epoch = 0;
};

// One epoch seal, reported as it happens.
struct EpochSeal {
  uint64_t seq = 0;
  uint64_t reports = 0;
  uint64_t digest = 0;   // core::GridFrequencyDigest of the sealed epoch
  bool written = false;  // false: the segment commit failed
};

class Node {
 public:
  // `transport` must outlive the node. `on_seal` (epoch mode) runs under
  // the ingest drain lock after each seal.
  Node(NodeConfig config, svc::Transport* transport,
       std::function<void(const EpochSeal&)> on_seal = {});
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Mode mode() const { return mode_; }
  const NodeConfig& config() const { return config_; }

  // Recovers durable state, then binds (epoch mode also serves windowed
  // queries and starts the rotation clock); a root binds nothing.
  // kUnavailable when an endpoint cannot bind or the log cannot open.
  Status Start();
  const Recovery& recovery() const { return recovery_; }

  // Blocks up to timeout_ms until the round is done: the population has
  // reported (single), the root sealed this shard, `epochs` epochs are
  // sealed, or every shard is pulled and merged (root). kUnavailable on
  // timeout.
  Status AwaitRound();

  // Stops the rotation clock, ingest (draining every accepted batch into a
  // final checkpoint) and the accumulator, closes a single node's round,
  // and returns the report log's seal status. Idempotent.
  Status Stop();

  // Single and root: finalizes the round; kFailedPrecondition when the
  // sink rejected reports (devices planned with other flags).
  Status Finalize();

  // Single and root: serves the finalized pipeline (an epoch node serves
  // from Start()). AwaitQueries waits for query_batches answered batches
  // (epoch mode: and clients quiet for 500 ms), stops serving, and is
  // false on timeout.
  Status StartQueries();
  bool AwaitQueries();

  // The round's pipeline; in epoch mode the open epoch's (stable once
  // Stop() returned). The parts below are null where the mode has none.
  core::FelipPipeline& pipeline() { return *pipeline_; }
  svc::IngestServer* ingest() { return ingest_.get(); }
  const svc::PipelineSink* sink() const { return sink_.get(); }
  const dist::ShardAccumulatorServer* accumulator() const {
    return accum_.get();
  }
  const dist::RootAggregator* root() const { return root_.get(); }
  const replaylog::LogWriter* report_log() const { return log_.get(); }
  const svc::QueryServer* query_server() const { return queries_.get(); }
  const stream::EpochSet* epochs() const { return epochs_.get(); }
  const stream::EpochRotationService* rotation() const {
    return rotation_.get();
  }
  uint64_t shard_epoch() const { return shard_epoch_; }

 private:
  std::string Endpoint(uint64_t port) const;
  Status StartRound();
  Status StartEpochs();
  // Fills recovery_ and adopts the newest snapshot into pipeline_ while it
  // is still collecting and, given `seed`, carries it; returns its keys.
  std::vector<uint64_t> AdoptSnapshot(std::optional<uint64_t> seed);
  Status StartIngest(svc::IngestServerOptions options,
                     const std::vector<uint64_t>& dedup_keys);
  // Seals the open epoch and opens the next; runs under the drain lock.
  void Rotate(const svc::DrainCut& cut);

  NodeConfig config_;
  svc::Transport* transport_;
  std::function<void(const EpochSeal&)> on_seal_;
  Mode mode_;
  Recovery recovery_;

  std::unique_ptr<stream::EpochStore> epoch_store_;
  std::unique_ptr<stream::EpochSet> epochs_;
  std::unique_ptr<stream::EpochRotationService> rotation_;
  std::unique_ptr<core::FelipPipeline> pipeline_;
  std::unique_ptr<svc::PipelineSink> sink_;
  std::unique_ptr<snapshot::SnapshotStore> snapshots_;
  std::unique_ptr<snapshot::Checkpointer> checkpointer_;
  std::unique_ptr<replaylog::LogWriter> log_;
  std::unique_ptr<svc::IngestServer> ingest_;
  std::unique_ptr<dist::ShardAccumulatorServer> accum_;
  std::unique_ptr<dist::RootAggregator> root_;
  std::unique_ptr<svc::QueryServer> queries_;
  uint64_t shard_epoch_ = 0;
  std::atomic<bool> stop_rotation_{false};
  std::thread rotator_;
  bool stopped_ = false;
  Status log_sealed_;
};

}  // namespace felip::node

#endif  // FELIP_NODE_NODE_H_
