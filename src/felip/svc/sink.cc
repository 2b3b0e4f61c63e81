#include "felip/svc/sink.h"

#include "felip/common/check.h"
#include "felip/obs/metrics.h"

namespace felip::svc {

PipelineSink::PipelineSink(core::FelipPipeline* pipeline)
    : pipeline_(pipeline) {
  FELIP_CHECK(pipeline != nullptr);
  if (pipeline_->state() == core::PipelineState::kConfigured) {
    pipeline_->BeginIngest();
  } else {
    FELIP_CHECK_MSG(pipeline_->state() == core::PipelineState::kCollecting,
                    "PipelineSink needs a configured or collecting pipeline");
  }
}

size_t GridRunIngester::Ingest(core::FelipPipeline& pipeline,
                               std::span<const wire::ReportMessage> reports) {
  const size_t num_grids = pipeline.num_groups();
  run_ends_.assign(num_grids, 0);
  for (const wire::ReportMessage& m : reports) {
    if (m.grid_index < num_grids) ++run_ends_[m.grid_index];
  }
  size_t placed = 0;
  for (size_t& run : run_ends_) {
    const size_t count = run;
    run = placed;
    placed += count;
  }
  sorted_.resize(placed);
  // In batch order, so each run keeps its reports' relative order.
  for (const wire::ReportMessage& m : reports) {
    if (m.grid_index < num_grids) sorted_[run_ends_[m.grid_index]++] = &m;
  }
  const std::span<const fo::ReportData* const> sorted(sorted_);
  size_t accepted = 0;
  size_t begin = 0;
  for (size_t g = 0; g < num_grids; ++g) {
    const size_t end = run_ends_[g];
    if (end > begin) {
      accepted += pipeline.IngestReports(static_cast<uint32_t>(g),
                                         sorted.subspan(begin, end - begin));
    }
    begin = end;
  }
  return accepted;
}

size_t PipelineSink::IngestBatch(std::span<const wire::ReportMessage> reports) {
  static obs::Counter& rejected_total = obs::Registry::Default().GetCounter(
      "felip_svc_reports_rejected_total");
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t accepted = grid_runs_.Ingest(*pipeline_, reports);
  const size_t rejected = reports.size() - accepted;
  if (rejected > 0) rejected_total.Increment(rejected);
  accepted_ += accepted;
  rejected_ += rejected;
  return accepted;
}

void PipelineSink::Finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  pipeline_->FinishIngest();
}

void PipelineSink::WithPipelineLocked(
    const std::function<void(core::FelipPipeline&)>& fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  fn(*pipeline_);
}

core::FelipPipeline* PipelineSink::SwapPipeline(core::FelipPipeline* next) {
  FELIP_CHECK(next != nullptr);
  if (next->state() == core::PipelineState::kConfigured) {
    next->BeginIngest();
  } else {
    FELIP_CHECK_MSG(next->state() == core::PipelineState::kCollecting,
                    "SwapPipeline needs a configured or collecting pipeline");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  core::FelipPipeline* prev = pipeline_;
  pipeline_ = next;
  return prev;
}

}  // namespace felip::svc
