#include "felip/replaylog/replay.h"

#include <cstring>
#include <utility>

#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/snapshot/format.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/storage/storage.h"
#include "felip/svc/dedup.h"
#include "felip/svc/message.h"
#include "felip/wire/wire.h"

namespace felip::replaylog {

namespace {

// Reads the section at the head of `reader` when it has `id`.
bool NextIs(snapshot::SectionReader* reader, snapshot::SectionId id,
            snapshot::Section* section) {
  const StatusOr<bool> next = reader->Next(section);
  return next.ok() && *next && section->id == id;
}

}  // namespace

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

  // The first segment whose header and plan verify fixes the plan; later
  // segments must carry the same plan section payloads.
  ReplayStats stats;
  std::optional<core::FelipPipeline> pipeline;
  std::vector<uint8_t> plan_config;
  std::vector<uint8_t> plan_schema;
  svc::DedupWindow dedup;
  // The drain thread's decoder, reused for every batch of the log; it
  // bounds what it retains between batches.
  wire::ReportChunkDecoder decoder;
  snapshot::Section section;
  std::vector<uint8_t> frame;

  for (const std::string& path : segments) {
    StatusOr<std::vector<uint8_t>> bytes = storage::ReadFile(path);
    StatusOr<snapshot::SectionReader> reader =
        bytes.ok() ? snapshot::SectionReader::Open(*std::move(bytes))
                   : StatusOr<snapshot::SectionReader>(bytes.status());
    snapshot::Section config_section;
    snapshot::Section schema_section;
    if (!reader.ok() || reader->state_byte() != snapshot::kLogSegment ||
        !NextIs(&*reader, snapshot::SectionId::kConfig, &config_section) ||
        !NextIs(&*reader, snapshot::SectionId::kSchema, &schema_section)) {
      stats.segments_damaged += 1;
      damaged_total.Increment();
      continue;
    }
    if (!pipeline.has_value()) {
      core::FelipConfig config;
      uint64_t num_users = 0;
      std::vector<data::AttributeInfo> schema;
      FELIP_RETURN_IF_ERROR(snapshot::DecodeConfigSection(
          config_section.payload, &config, &num_users));
      FELIP_RETURN_IF_ERROR(
          snapshot::DecodeSchemaSection(schema_section.payload, &schema));
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
      pipeline.emplace(std::move(schema), num_users, std::move(config));
      pipeline->BeginIngest();
      plan_config = std::move(config_section.payload);
      plan_schema = std::move(schema_section.payload);
    } else if (config_section.payload != plan_config ||
               schema_section.payload != plan_schema) {
      return Status::FailedPrecondition(
          "report log segments carry different plans: " + path);
    }
    stats.segments_read += 1;

    while (true) {
      const StatusOr<bool> next = reader->Next(&section);
      if (next.ok() && !*next) break;
      if (!next.ok() || section.id != snapshot::SectionId::kBatch ||
          section.payload.size() < sizeof(uint64_t)) {
        // Torn or corrupt tail, or a section a log never holds:
        // everything before it already replayed.
        stats.segments_damaged += 1;
        damaged_total.Increment();
        break;
      }
      uint64_t key = 0;
      std::memcpy(&key, section.payload.data(), sizeof(key));
      frame.assign(section.payload.begin() + sizeof(key),
                   section.payload.end());

      // Mirror the live server's gates: trailer verification
      // (HandleFrame), trailer-keyed dedup, then the structural validation
      // and chunked decode of the verified frame (DrainLoop), so replay
      // validates and orders reports exactly as the server did.
      if (!svc::VerifyChecksumTrailer(frame) ||
          svc::ChecksumTrailer(frame).value_or(0) != key) {
        stats.batches_undecodable += 1;
        continue;
      }
      if (!dedup.Insert(key)) {
        stats.batches_duplicate += 1;
        continue;
      }
      if (!decoder.Validate(frame).ok()) {
        stats.batches_undecodable += 1;
        continue;
      }
      size_t accepted = 0;
      decoder.Decode([&](std::span<const wire::ReportMessage> chunk) {
        accepted += pipeline->IngestReports(chunk);
      });
      stats.reports_accepted += accepted;
      stats.reports_rejected += decoder.report_count() - accepted;
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
