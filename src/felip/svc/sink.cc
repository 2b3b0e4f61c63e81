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
  reports_.resize(reports.size());
  for (size_t i = 0; i < reports.size(); ++i) reports_[i] = &reports[i];
  const std::span<const fo::ReportData* const> all(reports_);
  size_t accepted = 0;
  for (size_t begin = 0; begin < reports.size();) {
    const uint32_t grid = reports[begin].grid_index;
    size_t end = begin + 1;
    while (end < reports.size() && reports[end].grid_index == grid) ++end;
    accepted += pipeline.IngestReports(grid, all.subspan(begin, end - begin));
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
