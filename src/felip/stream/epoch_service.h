// Service-tier epoch rotation: the in-process streaming collector
// (streaming.h), promoted to sealed on-disk segments and a concurrently
// queryable window.
//
// Division of labor:
//
//   * EpochSet — the in-memory window of sealed epochs. The transport IO
//     thread answers sliding-window / decay-mixed query batches from it
//     (svc::QueryServer) while the rotation path appends freshly sealed
//     epochs; one mutex serializes the two. Answers are computed with the
//     exact same per-epoch batch engine and the shared
//     DecayMix fold as StreamingCollector, so a served windowed answer is
//     bit-identical to the in-process collector over the same arrivals.
//
//   * EpochRotationService — seals pipelines into the EpochStore and
//     reloads the segment set on restart. SealEpoch runs on the ingest
//     drain path under the server's drain lock (see IngestServerOptions::
//     after_drain / IngestServer::WithDrainCut): the open pipeline and the
//     drained dedup keys it captures are one consistent cut, exactly like
//     a checkpoint. Each sealed segment embeds the full drained-key window
//     at seal time, so a restarted server preseeds its dedup windows from
//     the segments and resent batches from sealed epochs are recognized
//     instead of double-counted into the new open epoch.
//
// Privacy-budget accounting: each user reports once, in their arrival
// epoch, so one epoch costs its epsilon for its reporters and nothing for
// anyone else. The per-epoch epsilon is carried in every segment, and
// WindowEpsilon() surfaces the maximum budget any single user in a served
// window could have spent (= that epoch's epsilon; the sum over the window
// is also exported as a worst-case-composition gauge for operators who
// cannot rule out repeat reporters).

#ifndef FELIP_STREAM_EPOCH_SERVICE_H_
#define FELIP_STREAM_EPOCH_SERVICE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "felip/common/status.h"
#include "felip/core/felip.h"
#include "felip/data/dataset.h"
#include "felip/query/query.h"
#include "felip/stream/epoch_store.h"

namespace felip::stream {

// One sealed epoch held in memory: its sequence, report count and budget
// plus its queryable pipeline. The pipeline is shared because an answer
// in flight on the IO thread may still be reading an epoch the rotation
// path is evicting from the window.
struct SealedEpoch {
  uint64_t seq = 0;
  uint64_t reports = 0;
  double epsilon = 0.0;
  std::shared_ptr<const core::FelipPipeline> pipeline;
};

class EpochSet {
 public:
  // Retains the newest `max_epochs` sealed epochs (>= 1) — the serving
  // window; it should match the store's keep_last_n so disk and memory
  // agree about history.
  explicit EpochSet(size_t max_epochs);

  EpochSet(const EpochSet&) = delete;
  EpochSet& operator=(const EpochSet&) = delete;

  // Appends a freshly sealed epoch (pipeline must be kQueryable, sequence
  // strictly increasing, schema identical to the retained epochs') and
  // evicts beyond the window. Thread-safe against concurrent answering.
  void Append(SealedEpoch epoch);

  size_t size() const;
  // Highest sealed sequence, which (seals being sequential from 1) is also
  // the count of epochs ever sealed — the client-visible progress marker
  // echoed in windowed query responses. 0 when nothing is sealed yet.
  uint64_t newest_seq() const;
  // Schema served by the window; empty before the first seal.
  std::vector<data::AttributeInfo> schema() const;

  // Decay-weighted answers over the newest `window` retained epochs
  // (0 = every retained epoch; a window deeper than the retained history
  // answers from what is retained). decay follows the StreamConfig
  // contract: (0, 1], with 1.0 the exact sliding mean. One answer per
  // query, each the DecayMix of that query's per-epoch answers — the
  // bit-identical twin of StreamingCollector::AnswerQuery over the same
  // arrivals. kFailedPrecondition before the first seal (retryable: the
  // next seal satisfies it).
  StatusOr<std::vector<double>> AnswerWindowed(
      std::span<const query::Query> queries, uint32_t window,
      double decay) const;

  // Answers from the newest sealed epoch only (the epoch-mode service of
  // plain query batches). Same empty-window contract as AnswerWindowed.
  StatusOr<std::vector<double>> AnswerLatest(
      std::span<const query::Query> queries) const;

  // Worst-case privacy budget across the newest `window` epochs
  // (0 = all retained): `max` is the per-user guarantee under the
  // report-once model (the largest single epoch epsilon); `sum` is the
  // sequential-composition bound if one user reported in every epoch.
  struct BudgetReport {
    double max_epoch_epsilon = 0.0;
    double sum_epsilon = 0.0;
    uint64_t reports = 0;
    size_t epochs = 0;
  };
  BudgetReport WindowBudget(uint32_t window = 0) const;

 private:
  const size_t max_epochs_;
  mutable std::mutex mutex_;
  std::deque<SealedEpoch> epochs_;  // oldest first, newest at the back
};

class EpochRotationService {
 public:
  // `store` and `epochs` must outlive the service.
  EpochRotationService(EpochStore* store, EpochSet* epochs);

  // What RecoverSegments could reconstruct from the store's directory.
  struct RecoveredEpochs {
    size_t segments_loaded = 0;
    // Files that are damaged, fail to decode, or are not queryable epoch
    // segments: one bad epoch costs that epoch, never recovery.
    size_t segments_skipped = 0;
    // Union of every recovered segment's drained batch keys, oldest
    // segment first — preseed the ingest server's dedup windows with
    // these so resends of batches sealed epochs already counted are
    // recognized (IngestServer::PreseedDedup dedups the union).
    std::vector<uint64_t> dedup_keys;
  };
  RecoveredEpochs RecoverSegments();

  // The 0-based index of the epoch currently collecting: equal to the
  // number of epochs ever sealed (the in-memory set can run ahead of the
  // store by the epochs whose commit failed). Derive its per-epoch config
  // with EpochConfig(base, open_epoch_index()).
  uint64_t open_epoch_index() const;

  // Seals `pipeline` as the next epoch: finishes ingestion (any
  // collecting or sealed state is accepted; the pipeline must have
  // ingested at least one report through the networked report path —
  // Collect()-sealed pipelines do not track reports_ingested and are not
  // service epochs), finalizes, encodes the segment with the drained
  // keys of the caller's consistent cut, commits it atomically, and
  // appends the epoch to the set. The caller must hold the ingest
  // server's drain lock (or otherwise guarantee no concurrent ingestion
  // into `pipeline`). On a write failure the epoch is still appended to
  // the in-memory set and served — losing durability degrades restart
  // fidelity, not live answers — and the failure is counted.
  StatusOr<std::string> SealEpoch(
      std::unique_ptr<core::FelipPipeline> pipeline,
      std::span<const uint64_t> drained_keys);

  uint64_t epochs_sealed() const { return epochs_sealed_; }
  uint64_t seal_failures() const { return seal_failures_; }

 private:
  EpochStore* store_;
  EpochSet* epochs_;
  uint64_t epochs_sealed_ = 0;
  uint64_t seal_failures_ = 0;
};

}  // namespace felip::stream

#endif  // FELIP_STREAM_EPOCH_SERVICE_H_
