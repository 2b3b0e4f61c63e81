// Report-submitting client: at-least-once delivery, exactly-once counting.
//
// IngestClient sends encoded report batches over a Transport and drives
// the retry loop against the server's ack protocol (StatusCodes; see
// svc/message.h for the wire mapping):
//
//   * kOk / kAlreadyExists — done. AlreadyExists means an earlier attempt
//     landed but its ack was lost; the xxHash64 trailer the server dedups
//     on makes the resend harmless, so retries never double-count.
//   * kResourceExhausted — server backpressure; wait the suggested
//     retry_after_ms (plus deterministic jitter) and resend.
//   * kDataLoss — the frame was damaged in flight; resend.
//   * timeout / connection loss — reconnect and resend under capped
//     exponential backoff with deterministic jitter.
//
// Every ack must echo the batch checksum; a mismatched or undecodable
// response is treated like a lost one. All waits are bounded, all retry
// randomness comes from the seeded Rng, so a fixed seed replays the same
// schedule.

#ifndef FELIP_SVC_CLIENT_H_
#define FELIP_SVC_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "felip/common/rng.h"
#include "felip/common/status.h"
#include "felip/svc/transport.h"
#include "felip/wire/wire.h"

namespace felip::obs {
class Counter;
}  // namespace felip::obs

namespace felip::svc {

// Connection and retry pacing of a retrying client.
struct ClientOptions {
  int connect_timeout_ms = 2000;
  int response_timeout_ms = 2000;
  // Delivery attempts per request before giving up.
  int max_attempts = 16;
  // Capped exponential backoff between failed attempts.
  uint32_t backoff_initial_ms = 1;
  uint32_t backoff_cap_ms = 64;
  // Seeds the jitter Rng; fixed seed => identical retry schedule.
  uint64_t jitter_seed = 1;
};
using IngestClientOptions = ClientOptions;

// The transport half both retrying clients share (IngestClient below,
// QueryClient in svc/query_service.h): one lazily (re)connected
// connection, one request/response exchange per attempt, and capped
// exponential backoff with jitter from the seeded Rng.
class RetryingClient {
 public:
  uint64_t retries() const { return retries_.load(); }
  uint64_t reconnects() const { return reconnects_.load(); }

 protected:
  // `transport` must outlive the client. Retries and reconnects are also
  // counted in <metrics>_retries_total and <metrics>_reconnects_total.
  RetryingClient(Transport* transport, std::string endpoint,
                 const ClientOptions& options, const std::string& metrics);

  // Attempt `attempt` (1-based; later ones count as retries): connects
  // when needed, sends `frame` and waits for one response. A failure
  // drops the connection and says why.
  Status Exchange(int attempt, const std::vector<uint8_t>& frame,
                  std::vector<uint8_t>* response);
  void DropConnection();
  // Sleeps the capped exponential backoff + jitter for `attempt`.
  void Backoff(int attempt);
  uint32_t Jitter(uint32_t bound_ms);
  static void SleepMs(uint32_t ms);

  const ClientOptions options_;

 private:
  Transport* transport_;
  std::string endpoint_;
  obs::Counter& retries_total_;
  obs::Counter& reconnects_total_;
  std::unique_ptr<FrameConnection> connection_;
  std::mutex rng_mutex_;
  Rng rng_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> reconnects_{0};
};

struct SendOutcome {
  // Final status of the delivery. kOk: accepted; kAlreadyExists: counted
  // by a prior attempt (success for the caller); anything else: the last
  // failure after max_attempts were exhausted.
  Status status = Status::Unavailable("batch was never sent");
  int attempts = 0;
  // True when the batch had already been aggregated by a prior attempt
  // whose ack was lost (the idempotent-resend path).
  bool duplicate = false;

  // The batch is durably counted exactly once server-side.
  bool ok() const {
    return status.ok() || status.code() == StatusCode::kAlreadyExists;
  }
};

class IngestClient : public RetryingClient {
 public:
  // `transport` must outlive the client.
  IngestClient(Transport* transport, std::string endpoint,
               IngestClientOptions options = {});

  // Encodes `batch` and delivers it (at least once; counted exactly once).
  SendOutcome SendBatch(const std::vector<wire::ReportMessage>& batch);

  // Delivers an already-encoded batch frame (wire::EncodeReportBatch).
  SendOutcome SendEncodedBatch(const std::vector<uint8_t>& frame);
};

}  // namespace felip::svc

#endif  // FELIP_SVC_CLIENT_H_
