// Pipeline <-> snapshot codec.
//
// PipelineCodec serializes a FelipPipeline's *complete* state into the
// section container (felip/snapshot/format.h) and reconstructs an
// equivalent pipeline from those bytes:
//
//   * kConfig / kSchema — the full FelipConfig and attribute schema, so a
//     loaded snapshot replans the exact same grid layout with no
//     out-of-band context.
//   * kState — lifecycle state + reports ingested so far.
//   * kOracles (kCollecting / kSealed) — every grid's oracle accumulator
//     (fo::OracleState: integer counts or raw OLH reports). Restoring and
//     continuing ingestion is bit-identical to never having stopped,
//     because estimates depend only on the multiset of accepted reports.
//   * kGridFrequencies (kQueryable) — the post-processed per-grid
//     estimates; response matrices are derived state, rebuilt on load
//     exactly as Finalize() builds them.
//   * kDedup — the ingest service's drained trailer keys, oldest first, so
//     a restarted server recognizes resent batches it already counted.
//   * kEpoch (epoch segments only) — the sealed epoch's sequence number.
//     An epoch segment is the sealed pipeline's snapshot plus this one
//     section; its reports and epsilon are the kState and kConfig values.
//
// Decode validates everything semantically (shape against the replanned
// layout, oracle state via FrequencyOracle::RestoreState) and returns
// Status on any mismatch: a checksum-valid snapshot from a different
// config must fail cleanly, never abort or silently mis-restore.

#ifndef FELIP_SNAPSHOT_PIPELINE_SNAPSHOT_H_
#define FELIP_SNAPSHOT_PIPELINE_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "felip/common/status.h"
#include "felip/core/felip.h"

namespace felip::snapshot {

// A decoded snapshot: the reconstructed pipeline plus the service-layer
// dedup keys that were captured with it.
struct RecoveredPipeline {
  core::FelipPipeline pipeline;
  std::vector<uint64_t> dedup_keys;
  // The kEpoch sequence (>= 1) of an epoch segment; 0 for a checkpoint.
  uint64_t epoch_seq = 0;
};

// --- Shared section codecs ---
//
// The kConfig / kSchema sections double as the plan of a report-log
// segment (felip/replaylog writes both at the head of every segment), so
// their codecs are exposed here.
// Grid planning is deterministic in (schema, num_users, config): any two
// artifacts carrying equal section bytes replan the identical layout.
// Decoding validates semantically (enum ranges, positive epsilon,
// non-empty schema) and returns Status — these bytes come from disk.

std::vector<uint8_t> EncodeConfigSection(const core::FelipConfig& config,
                                         uint64_t num_users);
Status DecodeConfigSection(const std::vector<uint8_t>& payload,
                           core::FelipConfig* config, uint64_t* num_users);

std::vector<uint8_t> EncodeSchemaSection(
    const std::vector<data::AttributeInfo>& schema);
Status DecodeSchemaSection(const std::vector<uint8_t>& payload,
                           std::vector<data::AttributeInfo>* schema);

class PipelineCodec {
 public:
  // Serializes `pipeline` (any state) and `dedup_keys` to snapshot bytes;
  // a nonzero `epoch_seq` adds the kEpoch section of an epoch segment.
  // Never fails: encoding reads only in-memory state the pipeline already
  // validated.
  static std::vector<uint8_t> Encode(const core::FelipPipeline& pipeline,
                                     std::span<const uint64_t> dedup_keys,
                                     uint64_t epoch_seq = 0);

  // Verifies and decodes `bytes` into a pipeline in the captured state.
  // A kEpoch section must hold a sequence >= 1.
  static StatusOr<RecoveredPipeline> Decode(
      const std::vector<uint8_t>& bytes);

  // --- Accumulator section codec (shared with felip/dist) ---
  //
  // The kOracles section payload doubles as the body of a distributed
  // accumulator frame: EncodeOracleSection serializes every grid oracle's
  // exported state (count 0 before BeginIngest), and DecodeOracleSection
  // parses the states back for FelipPipeline::MergeAccumulators. Reusing
  // the snapshot bytes means the on-disk and on-wire accumulator formats
  // can never drift apart.
  static std::vector<uint8_t> EncodeOracleSection(
      const core::FelipPipeline& pipeline);
  static Status DecodeOracleSection(const std::vector<uint8_t>& payload,
                                    std::vector<fo::OracleState>* states);
};

}  // namespace felip::snapshot

#endif  // FELIP_SNAPSHOT_PIPELINE_SNAPSHOT_H_
