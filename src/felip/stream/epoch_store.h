// On-disk store for sealed epoch segments.
//
// The service-tier promotion of the in-process streaming collector
// (streaming.h) seals each finished epoch's pipeline into one immutable
// segment file, epoch-<seq>.fesg:
//
//   [magic 'FESG' u32][version u8][seq u64][reports u64][epsilon f64]
//   [snapshot_len u64][PipelineCodec bytes][salted xxHash64 trailer]
//
// The embedded snapshot is the full PipelineCodec encoding of the sealed
// (kQueryable) pipeline plus the batch dedup keys drained into that epoch,
// so a restarted server can both answer windowed queries from the segment
// set and recognize resent batches the sealed epochs already counted.
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
#include <string>
#include <vector>

#include "felip/common/status.h"
#include "felip/storage/storage.h"

namespace felip::stream {

// One sealed epoch, as persisted. `seq` is 1-based and equals the 0-based
// epoch index + 1 (epoch 0 seals as epoch-1.fesg), so the highest sealed
// sequence is also the count of epochs ever sealed.
struct EpochSegment {
  uint64_t seq = 0;
  uint64_t reports = 0;   // users counted by the sealed pipeline
  double epsilon = 0.0;   // per-epoch privacy budget spent (eps-LDP)
  std::vector<uint8_t> snapshot;  // PipelineCodec bytes (pipeline + keys)
};

// Serializes `segment` with the sealed checksum trailer. Never fails.
std::vector<uint8_t> EncodeEpochSegment(const EpochSegment& segment);

// Verifies and decodes segment bytes. kDataLoss on truncation or checksum
// mismatch, kInvalidArgument on wrong magic / unsupported version /
// non-finite budget — these bytes come from disk and must fail cleanly.
StatusOr<EpochSegment> DecodeEpochSegment(const std::vector<uint8_t>& bytes);

// Everything LoadAll could recover from a segment directory.
struct LoadedEpochs {
  std::vector<EpochSegment> segments;  // oldest first (ascending seq)
  size_t files_skipped = 0;            // present but damaged / undecodable
};

class EpochStore {
 public:
  // `dir` is created by the first Write if absent, so inspecting a
  // missing directory (LoadAll) creates nothing. `keep_last_n` >= 1
  // bounds how many sealed segments survive compaction — it should be at
  // least the query window, or windowed answers lose their oldest epochs
  // to compaction.
  explicit EpochStore(std::string dir, size_t keep_last_n = 8);

  // Commits `segment` and compacts segments beyond keep_last_n; returns
  // the committed file's path. segment.seq must be >= next_seq() — seals
  // are sequential, but a failed commit may leave a gap the next seal
  // skips over (degraded durability for that one epoch, never a clobbered
  // committed file).
  StatusOr<std::string> Write(const EpochSegment& segment);

  // Decodes every verifiable segment in the directory, oldest first.
  // Damaged files are skipped and counted, never fatal.
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
