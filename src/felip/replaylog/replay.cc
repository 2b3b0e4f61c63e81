#include "felip/replaylog/replay.h"

#include <utility>

#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/replaylog/format.h"
#include "felip/replaylog/store.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/storage/storage.h"
#include "felip/svc/dedup.h"
#include "felip/svc/message.h"
#include "felip/svc/sink.h"
#include "felip/wire/framing.h"
#include "felip/wire/wire.h"

namespace felip::replaylog {

std::vector<uint8_t> EncodePlan(
    const core::FelipConfig& config, uint64_t num_users,
    const std::vector<data::AttributeInfo>& schema) {
  const std::vector<uint8_t> config_bytes =
      snapshot::EncodeConfigSection(config, num_users);
  const std::vector<uint8_t> schema_bytes =
      snapshot::EncodeSchemaSection(schema);
  std::vector<uint8_t> plan;
  wire::Writer w(&plan);
  w.Put<uint32_t>(static_cast<uint32_t>(config_bytes.size()));
  w.PutBytes(config_bytes.data(), config_bytes.size());
  w.Put<uint32_t>(static_cast<uint32_t>(schema_bytes.size()));
  w.PutBytes(schema_bytes.data(), schema_bytes.size());
  return plan;
}

Status DecodePlan(const std::vector<uint8_t>& plan, core::FelipConfig* config,
                  uint64_t* num_users,
                  std::vector<data::AttributeInfo>* schema) {
  wire::Reader r(plan);
  uint32_t config_len = 0;
  if (!r.GetLength(&config_len, 1)) {
    return Status::InvalidArgument("replay log plan is truncated");
  }
  std::vector<uint8_t> config_bytes(r.cursor(), r.cursor() + config_len);
  r.Skip(config_len);
  uint32_t schema_len = 0;
  if (!r.GetLength(&schema_len, 1)) {
    return Status::InvalidArgument("replay log plan is truncated");
  }
  std::vector<uint8_t> schema_bytes(r.cursor(), r.cursor() + schema_len);
  r.Skip(schema_len);
  if (r.remaining() != 0) {
    return Status::InvalidArgument("replay log plan has trailing bytes");
  }
  FELIP_RETURN_IF_ERROR(
      snapshot::DecodeConfigSection(config_bytes, config, num_users));
  return snapshot::DecodeSchemaSection(schema_bytes, schema);
}

StatusOr<ReplayResult> ReplayLog(const std::string& dir,
                                 const ReplayOverrides& overrides) {
  return ReplayLogs(std::span<const std::string>(&dir, 1), overrides);
}

StatusOr<ReplayResult> ReplayLogs(std::span<const std::string> dirs,
                                  const ReplayOverrides& overrides) {
  obs::ScopedTimer span("felip_replay");
  static obs::Counter& replayed_total = obs::Registry::Default().GetCounter(
      "felip_replay_batches_total");
  static obs::Counter& damaged_total = obs::Registry::Default().GetCounter(
      "felip_replay_segments_damaged_total");

  if (dirs.empty()) {
    return Status::InvalidArgument("no report log directories to replay");
  }
  // Directory-major order: a shard's segments stay oldest-first relative
  // to each other. Cross-directory order cannot matter — the accepted
  // multiset (hence the estimate) is order-independent, and the shared
  // dedup window sees each unique batch once wherever it appears first.
  std::vector<std::string> segments;
  for (const std::string& dir : dirs) {
    const std::vector<std::string> dir_segments =
        ListSegmentsOldestFirst(dir);
    segments.insert(segments.end(), dir_segments.begin(), dir_segments.end());
  }
  if (segments.empty()) {
    return Status::NotFound("no report log segments under: " + dirs.front());
  }

  // Pass 1 over headers happens lazily inside the single pass below: the
  // first verified header fixes the plan; later headers must match it
  // byte for byte.
  ReplayStats stats;
  std::optional<core::FelipPipeline> pipeline;
  std::vector<uint8_t> plan;
  svc::DedupWindow dedup;

  for (const std::string& path : segments) {
    StatusOr<std::vector<uint8_t>> bytes = storage::ReadFile(path);
    if (!bytes.ok()) {
      stats.segments_damaged += 1;
      damaged_total.Increment();
      continue;
    }
    StatusOr<SegmentParser> parser = SegmentParser::Open(*std::move(bytes));
    if (!parser.ok()) {
      stats.segments_damaged += 1;
      damaged_total.Increment();
      continue;
    }
    if (!pipeline.has_value()) {
      plan = parser->plan();
      core::FelipConfig config;
      uint64_t num_users = 0;
      std::vector<data::AttributeInfo> schema;
      FELIP_RETURN_IF_ERROR(
          DecodePlan(plan, &config, &num_users, &schema));
      if (overrides.normalization.has_value()) {
        config.normalization = *overrides.normalization;
      }
      if (overrides.consistency_rounds.has_value()) {
        config.consistency_rounds = *overrides.consistency_rounds;
      }
      if (overrides.lambda_threshold.has_value()) {
        config.lambda_threshold = *overrides.lambda_threshold;
      }
      if (overrides.lambda_quadrant_fit.has_value()) {
        config.lambda_quadrant_fit = *overrides.lambda_quadrant_fit;
      }
      if (overrides.aggregation_threads.has_value()) {
        config.aggregation_threads = *overrides.aggregation_threads;
      }
      pipeline.emplace(std::move(schema), num_users, std::move(config));
      pipeline->BeginIngest();
    } else if (parser->plan() != plan) {
      return Status::FailedPrecondition(
          "report log segments carry different plans: " + path);
    }
    stats.segments_read += 1;

    LogRecord record;
    // Decode and grid-run buffers reused for every batch of this segment,
    // like a server worker's; scoped to the segment so what they retain
    // stays proportional to the segment bytes already in memory.
    std::vector<wire::ReportMessage> messages;
    svc::GridRunIngester grid_runs;
    while (true) {
      StatusOr<bool> next = parser->Next(&record);
      if (!next.ok()) {
        // Torn or corrupt tail: everything before it already replayed.
        stats.segments_damaged += 1;
        damaged_total.Increment();
        break;
      }
      if (!*next) break;

      // Mirror the live server's gates: trailer verification
      // (HandleFrame), trailer-keyed dedup, then the structural decode
      // (WorkerLoop).
      if (!svc::VerifyChecksumTrailer(record.payload) ||
          svc::ChecksumTrailer(record.payload).value_or(0) != record.key) {
        stats.batches_undecodable += 1;
        continue;
      }
      if (!dedup.Insert(record.key)) {
        stats.batches_duplicate += 1;
        continue;
      }
      if (!wire::DecodeReportBatch(record.payload, &messages).ok()) {
        stats.batches_undecodable += 1;
        continue;
      }
      // The live sink's grid-run path, so replay validates and orders
      // reports exactly as the server did.
      const size_t accepted = grid_runs.Ingest(*pipeline, messages);
      stats.reports_accepted += accepted;
      stats.reports_rejected += messages.size() - accepted;
      stats.batches_replayed += 1;
      replayed_total.Increment();
    }
  }

  if (!pipeline.has_value()) {
    return Status::DataLoss("no report log segment verified under: " +
                            dirs.front());
  }
  pipeline->FinishIngest();
  return ReplayResult{*std::move(pipeline), stats};
}

}  // namespace felip::replaylog
