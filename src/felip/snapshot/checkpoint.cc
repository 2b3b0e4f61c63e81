#include "felip/snapshot/checkpoint.h"

#include <chrono>
#include <utility>

#include "felip/common/check.h"
#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/storage/storage.h"

namespace felip::snapshot {

Checkpointer::Checkpointer(SnapshotStore* store,
                           const core::FelipPipeline* pipeline,
                           core::SnapshotOptions options)
    : store_(store), pipeline_(pipeline), options_(options) {
  FELIP_CHECK(store != nullptr);
  FELIP_CHECK(pipeline != nullptr);
}

void Checkpointer::set_pipeline(const core::FelipPipeline* pipeline) {
  FELIP_CHECK(pipeline != nullptr);
  pipeline_ = pipeline;
}

Status Checkpointer::Checkpoint(std::span<const uint64_t> drained_keys) {
  obs::ScopedTimer span("felip_snapshot_write");
  const auto start = std::chrono::steady_clock::now();
  const std::vector<uint8_t> bytes =
      PipelineCodec::Encode(*pipeline_, options_, drained_keys);
  FELIP_ASSIGN_OR_RETURN(const std::string path, store_->Write(bytes));
  (void)path;
  ++snapshots_written_;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  obs::Registry::Default()
      .GetGauge("felip_snapshot_bytes")
      .Set(static_cast<double>(bytes.size()));
  obs::Registry::Default()
      .GetHistogram("felip_snapshot_write_seconds")
      .Observe(elapsed.count());
  return Status::Ok();
}

StatusOr<Recovered> RecoverFromStore(const SnapshotStore& store) {
  size_t skipped = 0;
  for (const std::string& path : store.ListNewestFirst()) {
    const StatusOr<std::vector<uint8_t>> bytes = storage::ReadFile(path);
    if (!bytes.ok()) {
      ++skipped;
      continue;
    }
    StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(*bytes);
    if (!decoded.ok()) {
      // Truncated or bit-flipped snapshot: fall back to the previous
      // rotation rather than failing recovery outright.
      ++skipped;
      continue;
    }
    obs::Registry::Default()
        .GetCounter("felip_snapshot_recoveries_total")
        .Increment();
    return Recovered{std::move(decoded).value(), path, skipped};
  }
  return Status::NotFound("no verifiable snapshot in the store");
}

}  // namespace felip::snapshot
