// Periodic checkpointing and crash recovery for a serving pipeline.
//
// Checkpointer glues the ingest service to the snapshot store: its
// Checkpoint() method matches svc::CheckpointFn, so an IngestServer
// configured with checkpoint_every_batches / checkpoint_every_ms calls it
// under the server's drain lock with the drained dedup keys of a
// consistent cut. Each call encodes the pipeline + keys and commits them
// through the store's atomic write + rotation.
//
// RecoverFromStore walks the store newest-first and returns the first
// snapshot that fully verifies and decodes, so one corrupted (truncated,
// bit-flipped, half-written-by-a-dying-kernel) newest file degrades to
// the previous rotation instead of failing recovery. kNotFound only when
// no verifiable snapshot exists at all.
//
// Recovery protocol (see docs/snapshots.md): restore the pipeline, seed
// the restarted IngestServer's dedup windows with the recovered keys
// (IngestServer::PreseedDedup), and let clients resend. Batches that were
// drained before the checkpoint are recognized as duplicates; batches
// acked but not yet captured are admitted fresh. Aggregation is
// integer-count based, so the final estimates are bit-identical to a run
// that never crashed.

#ifndef FELIP_SNAPSHOT_CHECKPOINT_H_
#define FELIP_SNAPSHOT_CHECKPOINT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "felip/common/status.h"
#include "felip/core/felip.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/snapshot/store.h"

namespace felip::snapshot {

class Checkpointer {
 public:
  // `store` and `pipeline` must outlive this object. The caller is
  // responsible for serializing Checkpoint() calls against pipeline
  // mutation (IngestServer invokes it under its drain lock).
  Checkpointer(SnapshotStore* store, const core::FelipPipeline* pipeline);

  // Encodes the pipeline plus `drained_keys` and commits one snapshot.
  // Matches svc::CheckpointFn.
  Status Checkpoint(std::span<const uint64_t> drained_keys);

  // Redirects subsequent checkpoints to `pipeline` (which must outlive
  // this object). The epoch-rotation path calls this after swapping the
  // ingest sink to a fresh open-epoch pipeline, under the same drain lock
  // that serializes Checkpoint() — the sealed epoch has its own segment;
  // checkpoints only ever cover the open epoch.
  void set_pipeline(const core::FelipPipeline* pipeline);

  uint64_t snapshots_written() const { return snapshots_written_; }

 private:
  SnapshotStore* store_;
  const core::FelipPipeline* pipeline_;
  uint64_t snapshots_written_ = 0;
};

// Result of a successful recovery: which file won, what it held.
struct Recovered {
  RecoveredPipeline state;
  std::string path;        // the snapshot file that verified
  size_t files_skipped = 0;  // newer files rejected as corrupt
};

// Restores the newest verifiable snapshot in `store`. Increments
// felip_snapshot_recoveries_total on success; kNotFound when the store
// holds no snapshot that verifies.
StatusOr<Recovered> RecoverFromStore(const SnapshotStore& store);

}  // namespace felip::snapshot

#endif  // FELIP_SNAPSHOT_CHECKPOINT_H_
