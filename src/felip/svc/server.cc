#include "felip/svc/server.h"

#include <chrono>
#include <utility>
#include <vector>

#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/svc/message.h"
#include "felip/wire/wire.h"

namespace felip::svc {

namespace {

struct ServerCounters {
  obs::Counter& accepted;
  obs::Counter& duplicate;
  obs::Counter& rejected;
  obs::Counter& malformed;
  obs::Counter& reports;
  obs::Gauge& queue_depth;
  obs::Counter& checkpoints;
  obs::Counter& checkpoint_failures;
  obs::Counter& logged;
  obs::Counter& log_failures;

  static ServerCounters& Get() {
    static ServerCounters counters{
        obs::Registry::Default().GetCounter(
            "felip_svc_batches_accepted_total"),
        obs::Registry::Default().GetCounter(
            "felip_svc_batches_duplicate_total"),
        obs::Registry::Default().GetCounter(
            "felip_svc_batches_rejected_total"),
        obs::Registry::Default().GetCounter(
            "felip_svc_batches_malformed_total"),
        obs::Registry::Default().GetCounter("felip_svc_reports_total"),
        obs::Registry::Default().GetGauge("felip_svc_queue_depth"),
        obs::Registry::Default().GetCounter(
            "felip_svc_checkpoints_total"),
        obs::Registry::Default().GetCounter(
            "felip_svc_checkpoint_failures_total"),
        obs::Registry::Default().GetCounter("felip_svc_batches_logged_total"),
        obs::Registry::Default().GetCounter("felip_svc_log_failures_total"),
    };
    return counters;
  }
};

}  // namespace

IngestServer::IngestServer(Transport* transport, const std::string& endpoint,
                           ReportSink* sink, IngestServerOptions options)
    : transport_(transport),
      endpoint_(endpoint),
      sink_(sink),
      options_(options),
      queue_(options.queue_capacity),
      seen_(options.dedup_capacity),
      drained_(options.dedup_capacity) {
  FELIP_CHECK(transport != nullptr);
  FELIP_CHECK(sink != nullptr);
}

IngestServer::~IngestServer() { Stop(); }

void IngestServer::PreseedDedup(std::span<const uint64_t> drained_keys) {
  FELIP_CHECK_MSG(!started_, "PreseedDedup() after Start()");
  std::lock_guard<std::mutex> seen_lock(seen_mutex_);
  std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  for (const uint64_t key : drained_keys) {
    if (options_.owns_key && !options_.owns_key(key)) {
      preseed_filtered_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    seen_.Insert(key);
    drained_.Insert(key);
  }
}

bool IngestServer::Start() {
  FELIP_CHECK_MSG(!started_, "Start() called twice");
  frame_server_ = transport_->NewServer(endpoint_);
  if (frame_server_ == nullptr) return false;
  if (!frame_server_->Start([this](uint64_t connection_id,
                                   std::vector<uint8_t>&& payload) {
        return HandleFrame(connection_id, std::move(payload));
      })) {
    frame_server_.reset();
    return false;
  }
  last_checkpoint_ = std::chrono::steady_clock::now();
  drainer_ = std::thread([this] { DrainLoop(); });
  started_ = true;
  return true;
}

void IngestServer::Stop() {
  if (!started_) return;
  started_ = false;
  // Order matters: no new frames first, then let the drain thread drain
  // what was already accepted (acked batches must be aggregated exactly
  // once).
  frame_server_->Stop();
  queue_.Shutdown();
  drainer_.join();
  frame_server_.reset();
  // Final checkpoint: a clean shutdown leaves nothing unpersisted.
  if (options_.checkpoint) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    if (batches_since_checkpoint_ > 0) CheckpointLocked();
  }
}

std::string IngestServer::endpoint() const {
  return frame_server_ != nullptr ? frame_server_->endpoint() : endpoint_;
}

uint64_t IngestServer::reports_seen() const {
  std::lock_guard<std::mutex> lock(reports_mutex_);
  return reports_seen_;
}

uint64_t IngestServer::dedup_evictions() const {
  std::lock_guard<std::mutex> lock(seen_mutex_);
  return seen_.evictions();
}

bool IngestServer::WaitForReports(uint64_t count, int timeout_ms) {
  std::unique_lock<std::mutex> lock(reports_mutex_);
  return reports_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              [&] { return reports_seen_ >= count; });
}

void IngestServer::WithDrainCut(
    const std::function<void(const DrainCut& cut)>& fn) {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  fn(DrainCut(this));
}

std::vector<uint64_t> DrainCut::Keys() const {
  return server_->DrainedKeysLocked();
}

std::vector<uint64_t> IngestServer::DrainedKeysLocked() {
  drained_key_copies_.fetch_add(1, std::memory_order_relaxed);
  return drained_.Keys();
}

std::vector<uint8_t> IngestServer::HandleFrame(
    uint64_t /*connection_id*/, std::vector<uint8_t>&& payload) {
  ServerCounters& counters = ServerCounters::Get();
  Ack ack;
  ack.batch_checksum = ChecksumTrailer(payload).value_or(0);

  // Checksum verification happens synchronously on the IO thread so a
  // truncated or corrupted frame is rejected before it costs queue space.
  if (!VerifyChecksumTrailer(payload)) {
    batches_malformed_.fetch_add(1);
    counters.malformed.Increment();
    ack.status = StatusCode::kDataLoss;
    return EncodeAck(ack);
  }

  {
    std::lock_guard<std::mutex> lock(seen_mutex_);
    if (seen_.Contains(ack.batch_checksum)) {
      batches_duplicate_.fetch_add(1);
      counters.duplicate.Increment();
      ack.status = StatusCode::kAlreadyExists;
      return EncodeAck(ack);
    }
    if (!queue_.TryPush(std::move(payload))) {
      // Backpressure: not recorded as seen — the resend is a fresh try.
      batches_rejected_.fetch_add(1);
      counters.rejected.Increment();
      ack.status = StatusCode::kResourceExhausted;
      ack.retry_after_ms = options_.retry_after_ms;
      return EncodeAck(ack);
    }
    seen_.Insert(ack.batch_checksum);
  }
  counters.queue_depth.Set(static_cast<double>(queue_.size()));
  batches_accepted_.fetch_add(1);
  counters.accepted.Increment();
  ack.status = StatusCode::kOk;
  return EncodeAck(ack);
}

void IngestServer::CheckpointLocked() {
  ServerCounters& counters = ServerCounters::Get();
  const Status status = options_.checkpoint(DrainedKeysLocked());
  if (status.ok()) {
    checkpoints_written_.fetch_add(1);
    counters.checkpoints.Increment();
    batches_since_checkpoint_ = 0;
  } else {
    // Keep serving: the next trigger retries with a fresh cut. The
    // counter is the operator's signal that durability is degraded.
    checkpoint_failures_.fetch_add(1);
    counters.checkpoint_failures.Increment();
  }
  last_checkpoint_ = std::chrono::steady_clock::now();
}

void IngestServer::DrainLoop() {
  ServerCounters& counters = ServerCounters::Get();
  // Built once, before any frame is read: every frame decodes through its
  // fixed-capacity chunk buffer, so nothing here is sized by a frame.
  wire::ReportChunkDecoder decoder;
  while (true) {
    std::optional<std::vector<uint8_t>> frame = queue_.Pop();
    if (!frame.has_value()) return;
    counters.queue_depth.Set(static_cast<double>(queue_.size()));

    obs::ScopedTimer span("felip_svc_drain");
    // HandleFrame verified the checksum trailer, so the frame is validated
    // structurally without a second hashing pass, and in full before the
    // first sink call: structurally bad batches (checksum-valid garbage
    // from an adversarial client — honest retries can't produce them)
    // are dropped whole.
    if (!decoder.Validate(*frame).ok()) {
      batches_undecodable_.fetch_add(1);
      continue;
    }
    const size_t count = decoder.report_count();
    {
      // Sink mutation, drained-key append, and any checkpoint form one
      // critical section: a checkpoint can never see the batch's reports
      // without its key or vice versa. Every chunk of the frame reaches
      // the sink under this one hold.
      std::lock_guard<std::mutex> lock(drain_mutex_);
      const uint64_t key = ChecksumTrailer(*frame).value_or(0);
      decoder.Decode([this](std::span<const wire::ReportMessage> chunk) {
        sink_->IngestBatch(chunk);
      });
      drained_.Insert(key);
      // Log before any checkpoint trigger: a checkpoint cut must never
      // include a batch the report log is missing (docs/replay.md).
      if (options_.report_log) {
        if (options_.report_log(key, *frame).ok()) {
          batches_logged_.fetch_add(1);
          counters.logged.Increment();
        } else {
          log_failures_.fetch_add(1);
          counters.log_failures.Increment();
        }
      }
      ++batches_since_checkpoint_;
      if (options_.checkpoint) {
        const bool batch_due =
            options_.checkpoint_every_batches > 0 &&
            batches_since_checkpoint_ >= options_.checkpoint_every_batches;
        const bool time_due =
            options_.checkpoint_every_ms > 0 &&
            std::chrono::steady_clock::now() - last_checkpoint_ >=
                std::chrono::milliseconds(options_.checkpoint_every_ms);
        if (batch_due || time_due) CheckpointLocked();
      }
      // Rotation hook last: if it swaps the sink's pipeline, the batch
      // just drained (and any checkpoint of it) belongs wholly to the
      // epoch being sealed.
      if (options_.after_drain) options_.after_drain(DrainCut(this));
    }
    counters.reports.Increment(count);
    {
      std::lock_guard<std::mutex> lock(reports_mutex_);
      reports_seen_ += count;
    }
    reports_cv_.notify_all();
  }
}

}  // namespace felip::svc
