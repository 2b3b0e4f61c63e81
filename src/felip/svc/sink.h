// Where decoded reports go: the boundary between the ingest service and
// the aggregation pipeline.
//
// IngestServer workers hand fully decoded, structurally valid batches to a
// ReportSink. PipelineSink is the production sink: under a mutex it feeds
// each batch to a planned FelipPipeline one grid run at a time
// (GridRunIngester): a stable counting sort by grid index, then one
// FelipPipeline::IngestReports call per grid the batch touches. Per-report
// validation (grid index in range, protocol matching the grid's plan,
// payload within the grid's domain) still happens report by report inside
// the pipeline's oracles, and rejected reports are counted, never fatal —
// these bytes come from the network.
//
// Aggregation counts are integers, so the final estimates depend only on
// the multiset of accepted reports — never on batch arrival order or
// which worker ingested what. That is what makes the networked path
// bit-identical to the in-process pipeline. The one order that state does
// keep, OLH per-user raw report lists, is each grid's reports in frame
// order, which the stable sort preserves.

#ifndef FELIP_SVC_SINK_H_
#define FELIP_SVC_SINK_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "felip/core/felip.h"
#include "felip/wire/wire.h"

namespace felip::svc {

class ReportSink {
 public:
  virtual ~ReportSink() = default;

  // Ingests one decoded batch; returns how many reports were accepted.
  // Called concurrently by server workers; implementations synchronize.
  virtual size_t IngestBatch(
      std::span<const wire::ReportMessage> reports) = 0;
};

// The grid-run ingest path PipelineSink and the replay engine share. It
// reuses its partition buffers across batches and is not thread-safe. A
// report naming an unplanned grid is rejected. The result equals
// FelipPipeline::IngestReport on every report in batch order: the same
// accepted reports and the same oracle states.
class GridRunIngester {
 public:
  // Ingests `reports` into `pipeline` (kCollecting) and returns how many
  // were accepted.
  size_t Ingest(core::FelipPipeline& pipeline,
                std::span<const wire::ReportMessage> reports);

 private:
  // Per grid: the start of its run, then, once placed, its end.
  std::vector<size_t> run_ends_;
  // The batch's in-range reports, grouped by grid.
  std::vector<const fo::ReportData*> sorted_;
};

// Thread-safe sink over a planned (not yet collected) FelipPipeline.
// Calls pipeline->BeginIngest() on construction when the pipeline is
// still kConfigured; a pipeline restored from a snapshot arrives already
// kCollecting and is adopted as-is (any other state is programmer error).
// Call Finish() once all batches are in, then Finalize() the pipeline as
// usual.
class PipelineSink final : public ReportSink {
 public:
  explicit PipelineSink(core::FelipPipeline* pipeline);

  size_t IngestBatch(std::span<const wire::ReportMessage> reports) override;

  // Marks the collection round complete (FelipPipeline::FinishIngest).
  void Finish();

  // Runs `fn` on the pipeline under the sink's ingest mutex. Every
  // pipeline mutation flows through IngestBatch under that same mutex, so
  // `fn` observes a consistent accumulator cut (reports_ingested in step
  // with the oracle states) — this is how a shard exports accumulator
  // frames while ingestion is live (felip/dist). `fn` must not call back
  // into the sink.
  void WithPipelineLocked(const std::function<void(core::FelipPipeline&)>& fn);

  // Atomically redirects ingestion to `next` (BeginIngest is called when
  // it is still kConfigured, mirroring construction) and returns the
  // previous pipeline. Batches already drained went to the old pipeline
  // in full; batches drained after go to `next` in full — no batch is
  // split across the two. This is the epoch-rotation cut: the caller
  // seals the returned pipeline while the sink keeps ingesting into
  // `next`. The caller keeps ownership of both pipelines.
  core::FelipPipeline* SwapPipeline(core::FelipPipeline* next);

  uint64_t accepted() const { return accepted_; }
  uint64_t rejected() const { return rejected_; }

 private:
  std::mutex mutex_;
  core::FelipPipeline* pipeline_;
  GridRunIngester grid_runs_;
  uint64_t accepted_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace felip::svc

#endif  // FELIP_SVC_SINK_H_
