#include "felip/stream/epoch_store.h"

#include <utility>

#include "felip/common/check.h"

namespace felip::stream {

EpochStore::EpochStore(std::string dir, size_t keep_last_n)
    : series_(std::move(dir), "epoch-", {".fesg"}, keep_last_n) {
  FELIP_CHECK_MSG(keep_last_n >= 1, "keep_last_n must be at least 1");
}

StatusOr<std::string> EpochStore::Write(
    uint64_t seq, const core::FelipPipeline& pipeline,
    std::span<const uint64_t> drained_keys) {
  return series_.Commit(
      seq, snapshot::PipelineCodec::Encode(pipeline, drained_keys, seq));
}

LoadedEpochs EpochStore::LoadAll() const {
  LoadedEpochs loaded;
  for (const storage::SeriesFile& file : series_.List()) {
    const StatusOr<std::vector<uint8_t>> bytes = storage::ReadFile(file.path);
    if (!bytes.ok()) {
      ++loaded.files_skipped;
      continue;
    }
    StatusOr<snapshot::RecoveredPipeline> state =
        snapshot::PipelineCodec::Decode(*bytes);
    // The file name is untrusted; the sealed kEpoch section is the
    // identity, and a checkpoint (no kEpoch) is no epoch at all.
    if (!state.ok() || state->epoch_seq != file.seq ||
        state->pipeline.state() != core::PipelineState::kQueryable) {
      ++loaded.files_skipped;
      continue;
    }
    loaded.segments.push_back({file.seq, *std::move(state)});
  }
  return loaded;
}

}  // namespace felip::stream
