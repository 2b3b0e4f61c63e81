#include "felip/svc/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "felip/obs/metrics.h"
#include "felip/svc/message.h"

namespace felip::svc {

RetryingClient::RetryingClient(Transport* transport, std::string endpoint,
                               const ClientOptions& options,
                               const std::string& metrics)
    : options_(options),
      transport_(transport),
      endpoint_(std::move(endpoint)),
      retries_total_(
          obs::Registry::Default().GetCounter(metrics + "_retries_total")),
      reconnects_total_(
          obs::Registry::Default().GetCounter(metrics + "_reconnects_total")),
      rng_(options.jitter_seed) {
  FELIP_CHECK(transport != nullptr);
  FELIP_CHECK(options_.max_attempts > 0);
}

Status RetryingClient::Exchange(int attempt,
                                const std::vector<uint8_t>& frame,
                                std::vector<uint8_t>* response) {
  if (attempt > 1) {
    retries_total_.Increment();
    retries_.fetch_add(1);
  }
  if (connection_ == nullptr) {
    connection_ = transport_->Connect(endpoint_, options_.connect_timeout_ms);
    if (connection_ == nullptr) {
      return Status::Unavailable("cannot connect to the server");
    }
    reconnects_total_.Increment();
    reconnects_.fetch_add(1);
  }
  if (!connection_->SendFrame(frame)) {
    DropConnection();
    return Status::Unavailable("send failed; reconnecting");
  }
  if (connection_->RecvFrame(response, options_.response_timeout_ms) !=
      RecvStatus::kOk) {
    // After a timeout a late response could desynchronize request/response
    // pairing on this connection, so both failure kinds reconnect.
    DropConnection();
    return Status::Unavailable("no response before the timeout");
  }
  return Status::Ok();
}

void RetryingClient::DropConnection() {
  if (connection_ == nullptr) return;
  connection_->Close();
  connection_.reset();
}

void RetryingClient::Backoff(int attempt) {
  const int shift = std::min(attempt - 1, 16);
  const uint64_t base = std::min<uint64_t>(
      static_cast<uint64_t>(options_.backoff_initial_ms) << shift,
      options_.backoff_cap_ms);
  SleepMs(static_cast<uint32_t>(base) + Jitter(static_cast<uint32_t>(base)));
}

uint32_t RetryingClient::Jitter(uint32_t bound_ms) {
  if (bound_ms == 0) return 0;
  std::lock_guard<std::mutex> lock(rng_mutex_);
  return static_cast<uint32_t>(rng_.UniformU64(bound_ms + 1));
}

void RetryingClient::SleepMs(uint32_t ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

IngestClient::IngestClient(Transport* transport, std::string endpoint,
                           IngestClientOptions options)
    : RetryingClient(transport, std::move(endpoint), options,
                     "felip_svc_client") {}

SendOutcome IngestClient::SendBatch(
    const std::vector<wire::ReportMessage>& batch) {
  return SendEncodedBatch(wire::EncodeReportBatch(batch));
}

SendOutcome IngestClient::SendEncodedBatch(
    const std::vector<uint8_t>& frame) {
  static obs::Counter& batches_total = obs::Registry::Default().GetCounter(
      "felip_svc_client_batches_total");
  batches_total.Increment();

  SendOutcome outcome;
  const std::optional<uint64_t> checksum = ChecksumTrailer(frame);
  FELIP_CHECK_MSG(checksum.has_value(), "batch frame has no checksum trailer");

  std::vector<uint8_t> response;
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    outcome.attempts = attempt;
    outcome.status = Exchange(attempt, frame, &response);
    if (!outcome.status.ok()) {
      Backoff(attempt);
      continue;
    }
    const StatusOr<Ack> ack = DecodeAck(response);
    if (!ack.ok() || ack->batch_checksum != *checksum) {
      outcome.status =
          Status::Unavailable("ack was undecodable or mismatched");
      DropConnection();
      Backoff(attempt);
      continue;
    }
    switch (ack->status) {
      case StatusCode::kOk:
        outcome.status = Status::Ok();
        return outcome;
      case StatusCode::kAlreadyExists:
        outcome.status =
            Status::AlreadyExists("batch counted by a prior attempt");
        outcome.duplicate = true;
        return outcome;
      case StatusCode::kResourceExhausted:
        outcome.status =
            Status::ResourceExhausted("server backpressure; retrying");
        SleepMs(ack->retry_after_ms + Jitter(options_.backoff_initial_ms));
        continue;
      case StatusCode::kDataLoss:
        // Damaged in flight; the frame itself is fine — resend.
        outcome.status = Status::DataLoss("frame damaged in flight");
        Backoff(attempt);
        continue;
      default:
        // DecodeAck only yields the four codes above.
        FELIP_CHECK_MSG(false, "unreachable ack status");
    }
  }
  return outcome;
}

}  // namespace felip::svc
