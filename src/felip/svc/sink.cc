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

size_t PipelineSink::IngestBatch(std::span<const wire::ReportMessage> reports) {
  static obs::Counter& rejected_total = obs::Registry::Default().GetCounter(
      "felip_svc_reports_rejected_total");
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t accepted = pipeline_->IngestReports(reports);
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
