// Offline replay engine: pipeline state from a report log.
//
// ReplayLog walks every segment of a report log (oldest first),
// reconstructs the pipeline the log's plan describes, and re-ingests
// every logged batch through the exact server path — checksum-trailer
// verification, trailer-keyed idempotency window, the drain thread's
// structural validation and chunked decode (wire::ReportChunkDecoder),
// the grid-run sink path, per-report oracle validation — so the replayed
// pipeline is bit-identical to the live one that wrote the log:
// aggregation is integer-count based and depends only on the multiset of
// accepted reports, never on order, batching, threads, or SIMD dispatch.
//
// The dedup window matters beyond tidiness: with checkpointing enabled, a
// SIGKILLed server re-drains (and re-logs) every batch its clients resend
// past the last snapshot cut, so a crash-spanning log legitimately holds
// duplicate records. Replaying with the same bounded FIFO window the
// server dedups with drops exactly the batches the server would have
// (the server's admission horizon is the same kDefaultDedupCapacity; a
// log long enough to wrap it would double-count on the live side too).
//
// Reading is recovery-oriented, like snapshot recovery: a segment whose
// header or plan sections do not verify is skipped whole, a segment with
// a torn or corrupt tail contributes every batch up to the last good
// section boundary, and both are counted in ReplayStats rather than
// failing the replay. The only hard failures are an empty/unreadable log
// and segments whose plans disagree — byte-identical plan sections are
// how two segments prove they belong to one collection round.
//
// ReplayOverrides is the estimator-comparison surface (ROADMAP item 5):
// every field re-runs post-processing a different way against the frozen
// corpus. All overridable fields are layout-neutral — they never change
// grid planning — so the overridden pipeline still accepts every logged
// report. See docs/replay.md for the comparison workflow.

#ifndef FELIP_REPLAYLOG_REPLAY_H_
#define FELIP_REPLAYLOG_REPLAY_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "felip/common/status.h"
#include "felip/core/felip.h"
#include "felip/post/norm_sub.h"
#include "felip/replaylog/store.h"

namespace felip::replaylog {

// Post-processing knobs to swap out relative to the logged plan. Every
// field is layout-neutral (grid planning never reads it).
struct ReplayOverrides {
  std::optional<post::Normalization> normalization;
  std::optional<int> consistency_rounds;
  std::optional<double> lambda_threshold;
  std::optional<bool> lambda_quadrant_fit;
};

struct ReplayStats {
  uint64_t segments_read = 0;     // headers and plans that verified
  uint64_t segments_damaged = 0;  // skipped segments + torn/corrupt tails
  uint64_t batches_replayed = 0;
  uint64_t batches_duplicate = 0;    // dropped by the idempotency window
  uint64_t batches_undecodable = 0;  // bad trailer or structural decode
  uint64_t reports_accepted = 0;
  uint64_t reports_rejected = 0;  // per-report oracle validation failures
};

struct ReplayResult {
  // kSealed: the round is closed; Finalize() it to estimate and query.
  core::FelipPipeline pipeline;
  ReplayStats stats;
};

// Replays every segment under `dir`. kNotFound when the directory holds
// no segments, kDataLoss when no segment header and plan verify,
// kFailedPrecondition when verified segments carry different plans, and
// any plan-decode failure as-is.
StatusOr<ReplayResult> ReplayLog(const std::string& dir,
                                 const ReplayOverrides& overrides = {});

// Multi-log variant for auditing a distributed round offline: replays the
// union of every directory's segments (directory-major, oldest first
// within each) into ONE pipeline, with a single shared dedup window.
// Every shard of a round logs the identical plan — shards plan with
// the global population — so the cross-segment plan check spans
// directories unchanged, and the shared window drops a batch that somehow
// appears in two shard logs exactly like one server would have.
// ReplayLogs({dir}) == ReplayLog(dir).
StatusOr<ReplayResult> ReplayLogs(std::span<const std::string> dirs,
                                  const ReplayOverrides& overrides = {});

}  // namespace felip::replaylog

#endif  // FELIP_REPLAYLOG_REPLAY_H_
