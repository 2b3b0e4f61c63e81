// Streaming FELIP — the paper's closing future-work direction ("leverage
// low-dimensional grids to answer queries over data streams").
//
// Users arrive over time in epochs and each user reports exactly once, in
// their arrival epoch, so the per-user privacy guarantee is the plain
// eps-LDP of that epoch's collection (no budget accumulation over time).
// The aggregator runs one FELIP round per epoch and answers queries against
// an exponentially decayed mixture of the per-epoch estimates:
//
//   answer_t(q) = Σ_e decay^(t-e) · answer_e(q) / Σ_e decay^(t-e)
//
// keeping only the most recent `max_epochs` rounds, which bounds memory and
// lets the estimate track drifting populations.
//
// The service-tier epoch layer (epoch_store.h / epoch_service.h) promotes
// this in-process loop to sealed on-disk segments; both layers share
// EpochConfig and DecayMix below so a served windowed answer is bit-identical
// to the in-process collector over the same arrivals.

#ifndef FELIP_STREAM_STREAMING_H_
#define FELIP_STREAM_STREAMING_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "felip/common/status.h"
#include "felip/core/felip.h"
#include "felip/data/dataset.h"
#include "felip/query/query.h"

namespace felip::stream {

struct StreamConfig {
  core::FelipConfig felip;   // per-epoch collection configuration
  double decay = 0.6;        // weight ratio between consecutive epochs, (0, 1]
  uint32_t max_epochs = 8;   // history window (older epochs are dropped)
};

// The per-epoch collection config for epoch `epoch_index` (0-based): the
// base config with the seed decorrelated per epoch while keeping runs
// reproducible. Every layer that replays an epoch round — the in-process
// collector, the epoch rotation service, and the population simulator in
// felip_client — must derive seeds through this one function, or served
// answers stop being bit-identical to in-process ones.
core::FelipConfig EpochConfig(const core::FelipConfig& base,
                              uint64_t epoch_index);

// Decay-weighted mixture of per-epoch answers, oldest epoch first. Folded
// as a Horner evaluation with a running weight — one multiply per epoch, no
// pow() — so long windows neither underflow to subnormals nor depend on the
// fold direction:
//
//   total = total·decay + answer_e;  norm = norm·decay + 1
//
// after which the newest epoch carries weight 1 and epoch t-k carries
// decay^k exactly as documented above. Requires a nonempty span and
// decay ∈ (0, 1] (callers validate; see StreamConfig).
double DecayMix(std::span<const double> answers_oldest_first, double decay);

class StreamingCollector {
 public:
  StreamingCollector(std::vector<data::AttributeInfo> schema,
                     StreamConfig config);

  // Runs one full FELIP round over this epoch's arrivals. The epoch's
  // schema must match; each record is one (new) user.
  void IngestEpoch(const data::Dataset& epoch);

  // Decay-weighted estimate over the retained epochs. Fails with
  // kFailedPrecondition before the first epoch is ingested (a retryable
  // condition for a service — the next epoch seal satisfies it).
  StatusOr<double> AnswerQuery(const query::Query& query) const;

  // Estimate from the newest epoch only (no history smoothing). Same
  // empty-history contract as AnswerQuery.
  StatusOr<double> AnswerQueryLatest(const query::Query& query) const;

  uint64_t epochs_ingested() const { return epochs_ingested_; }
  size_t epochs_retained() const { return history_.size(); }

 private:
  std::vector<data::AttributeInfo> schema_;
  StreamConfig config_;
  uint64_t epochs_ingested_ = 0;
  // Newest epoch at the back.
  std::deque<std::unique_ptr<core::FelipPipeline>> history_;
};

}  // namespace felip::stream

#endif  // FELIP_STREAM_STREAMING_H_
