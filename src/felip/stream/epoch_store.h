// On-disk store for sealed epoch segments.
//
// The service-tier promotion of the in-process streaming collector
// (streaming.h) seals each finished epoch's pipeline into one immutable
// segment file, epoch-<seq>.fesg. A segment is a sealed FSNP snapshot
// (felip/snapshot/format.h): the PipelineCodec encoding of the finalized
// (kQueryable) pipeline and the batch dedup keys drained into that epoch,
// plus a kEpoch section holding the sequence. A restarted server can both
// answer windowed queries from the segment set and recognize resent
// batches the sealed epochs already counted. The epoch's report count and
// privacy budget are the snapshot's kState and kConfig values.
//
// EpochStore is the epoch-segment schema of storage::FileSeries: atomic,
// durable commits, keep-last-N compaction after each seal, and a sequence
// resumed past existing files so a restart never clobbers a committed
// epoch (the rules are in felip/storage/storage.h and docs/snapshots.md,
// "On-disk storage"). Reading is recovery-oriented: LoadAll() decodes
// every segment that verifies and accounts for the ones that do not, so
// one damaged file costs one epoch of history, not the whole window.

#ifndef FELIP_STREAM_EPOCH_STORE_H_
#define FELIP_STREAM_EPOCH_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "felip/common/status.h"
#include "felip/core/felip.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/storage/storage.h"

namespace felip::stream {

// One sealed epoch, as recovered. `seq` is 1-based and equals the 0-based
// epoch index + 1 (epoch 0 seals as epoch-1.fesg), so the highest sealed
// sequence is also the count of epochs ever sealed.
struct EpochSegment {
  uint64_t seq = 0;
  // The queryable pipeline and the drained keys sealed with it.
  snapshot::RecoveredPipeline state;

  // Users counted by the sealed pipeline.
  uint64_t reports() const { return state.pipeline.reports_ingested(); }
  // Per-epoch privacy budget spent (eps-LDP).
  double epsilon() const { return state.pipeline.config().epsilon; }
};

// Everything LoadAll could recover from a segment directory.
struct LoadedEpochs {
  std::vector<EpochSegment> segments;  // oldest first (ascending seq)
  // Present but unusable: unreadable, damaged, not an epoch segment,
  // renamed to another sequence, or not queryable.
  size_t files_skipped = 0;
};

class EpochStore {
 public:
  // `dir` is created by the first Write if absent, so inspecting a
  // missing directory (LoadAll) creates nothing. `keep_last_n` >= 1
  // bounds how many sealed segments survive compaction — it should be at
  // least the query window, or windowed answers lose their oldest epochs
  // to compaction.
  explicit EpochStore(std::string dir, size_t keep_last_n = 8);

  // Encodes the finalized `pipeline` and `drained_keys` as segment `seq`,
  // commits it and compacts segments beyond keep_last_n; returns the
  // committed file's path. `seq` must be >= next_seq() — seals are
  // sequential, but a failed commit may leave a gap the next seal skips
  // over (degraded durability for that one epoch, never a clobbered
  // committed file).
  StatusOr<std::string> Write(uint64_t seq,
                              const core::FelipPipeline& pipeline,
                              std::span<const uint64_t> drained_keys);

  // Decodes every usable segment in the directory, oldest first.
  // Unusable files are skipped and counted, never fatal.
  LoadedEpochs LoadAll() const;

  // The sequence the next sealed epoch will take; equivalently, one past
  // the highest sequence ever committed to this directory (compaction
  // never lowers it because the newest segment always survives).
  uint64_t next_seq() const { return series_.next_seq(); }

  const std::string& dir() const { return series_.dir(); }

 private:
  storage::FileSeries series_;
};

}  // namespace felip::stream

#endif  // FELIP_STREAM_EPOCH_STORE_H_
