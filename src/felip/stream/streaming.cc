#include "felip/stream/streaming.h"

#include <cstdio>

#include "felip/common/check.h"
#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"

namespace felip::stream {

namespace {

// Rejects degenerate stream configurations at construction, naming the
// field and the value (the lifecycle-machine convention): decay outside
// (0, 1] either zeroes every non-newest weight (degenerating the mix
// normalizer) or weights stale epochs above fresh ones, and max_epochs = 0
// would evict the epoch that was just ingested.
void ValidateStreamConfig(const StreamConfig& config) {
  if (!(config.decay > 0.0 && config.decay <= 1.0)) {
    std::fprintf(stderr,
                 "invalid stream config: StreamConfig.decay = %g is outside "
                 "(0, 1]\n",
                 config.decay);
    FELIP_CHECK_MSG(false, "StreamConfig.decay must be in (0, 1]");
  }
  if (config.max_epochs < 1) {
    std::fprintf(stderr,
                 "invalid stream config: StreamConfig.max_epochs = %u must "
                 "be >= 1 (a zero window evicts the epoch just ingested)\n",
                 config.max_epochs);
    FELIP_CHECK_MSG(false, "StreamConfig.max_epochs must be >= 1");
  }
}

}  // namespace

core::FelipConfig EpochConfig(const core::FelipConfig& base,
                              uint64_t epoch_index) {
  core::FelipConfig felip = base;
  // Decorrelate epoch randomness while keeping runs reproducible.
  felip.seed = felip.seed * 1000003 + epoch_index + 1;
  return felip;
}

double DecayMix(std::span<const double> answers_oldest_first, double decay) {
  FELIP_CHECK_MSG(!answers_oldest_first.empty(),
                  "DecayMix over an empty window");
  double total = 0.0;
  double norm = 0.0;
  for (const double answer : answers_oldest_first) {
    total = total * decay + answer;
    norm = norm * decay + 1.0;
  }
  return total / norm;
}

StreamingCollector::StreamingCollector(
    std::vector<data::AttributeInfo> schema, StreamConfig config)
    : schema_(std::move(schema)), config_(std::move(config)) {
  FELIP_CHECK(!schema_.empty());
  ValidateStreamConfig(config_);
}

void StreamingCollector::IngestEpoch(const data::Dataset& epoch) {
  obs::ScopedTimer span("felip_stream_ingest_epoch");
  FELIP_CHECK(epoch.num_attributes() == schema_.size());
  FELIP_CHECK_MSG(epoch.num_rows() > 0, "empty epoch");
  for (uint32_t a = 0; a < epoch.num_attributes(); ++a) {
    FELIP_CHECK(epoch.attribute(a).domain == schema_[a].domain);
  }
  auto pipeline = std::make_unique<core::FelipPipeline>(
      schema_, epoch.num_rows(),
      EpochConfig(config_.felip, epochs_ingested_));
  pipeline->Collect(epoch);
  pipeline->Finalize();
  history_.push_back(std::move(pipeline));
  if (history_.size() > config_.max_epochs) history_.pop_front();
  ++epochs_ingested_;
  obs::Registry& registry = obs::Registry::Default();
  registry.GetCounter("felip_stream_epochs_ingested_total").Increment();
  registry.GetCounter("felip_stream_users_total")
      .Increment(epoch.num_rows());
  registry.GetGauge("felip_stream_epochs_retained")
      .Set(static_cast<double>(history_.size()));
}

StatusOr<double> StreamingCollector::AnswerQuery(
    const query::Query& query) const {
  if (history_.empty()) {
    return Status::FailedPrecondition("no epochs ingested");
  }
  std::vector<double> answers;
  answers.reserve(history_.size());
  for (const auto& pipeline : history_) {  // oldest first
    answers.push_back(pipeline->AnswerQuery(query));
  }
  return DecayMix(answers, config_.decay);
}

StatusOr<double> StreamingCollector::AnswerQueryLatest(
    const query::Query& query) const {
  if (history_.empty()) {
    return Status::FailedPrecondition("no epochs ingested");
  }
  return history_.back()->AnswerQuery(query);
}

}  // namespace felip::stream
