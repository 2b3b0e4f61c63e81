// Networked query answering over the ingest service's transport stack.
//
// A QueryServer binds a Transport endpoint and serves wire::QueryBatch
// frames from a finalized FelipPipeline. Every inbound frame passes the
// same synchronous integrity gate as ingest:
//
//   1. Verify the wire checksum trailer. Frames damaged in flight are
//      acked kDataLoss (svc::Ack) and never decoded.
//   2. Decode with wire::DecodeQueryBatch (structural validation; an
//      undecodable but checksum-valid frame is a bad client, not
//      corruption, and gets a kInvalidArgument response instead of an
//      ack).
//   3. Validate every query against the pipeline's schema
//      (query::ValidateQuery): out-of-domain predicates are rejected with
//      kInvalidArgument and the offending query's index — never silently
//      mis-answered, and never fatal (network input is untrusted).
//   4. Answer via FelipPipeline::AnswerQueries and respond kOk with one
//      answer per query. The response echoes the request's checksum
//      trailer so clients can never pair a stale response with the wrong
//      request.
//
// Answering runs on the transport's IO thread: queries are pure reads of
// immutable queryable-state, the batch engine answers each batch with
// its defaults (the exact pair path, bit-identical to in-process
// AnswerQuery, on the calling thread), and one response per connection
// at a time matches the request/response framing. A pipeline that is not
// queryable yet answers kFailedPrecondition, which clients treat as
// retryable (see IsRetryable()).
//
// QueryClient drives the same retry loop as IngestClient (queries are
// idempotent reads, so resending is always safe): capped exponential
// backoff with deterministic jitter on connection failures, timeouts,
// damaged frames, and kFailedPrecondition; kOk and kInvalidArgument are
// terminal.

#ifndef FELIP_SVC_QUERY_SERVICE_H_
#define FELIP_SVC_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "felip/common/rng.h"
#include "felip/common/status.h"
#include "felip/core/felip.h"
#include "felip/stream/epoch_service.h"
#include "felip/svc/client.h"
#include "felip/svc/dedup.h"
#include "felip/svc/transport.h"
#include "felip/wire/wire.h"

namespace felip::svc {

struct QueryServerOptions {
  // Batches with more queries than this are rejected kInvalid — bounds
  // per-frame answer memory independently of the frame-size cap.
  size_t max_batch_queries = 1u << 20;
};

class QueryServer {
 public:
  // `transport`, `pipeline`, and `epochs` must outlive this server; at
  // least one of `pipeline` / `epochs` must be set.
  //
  // Backends:
  //   * `pipeline` serves plain QueryBatch frames from one finalized
  //     round (kFailedPrecondition until it reaches kQueryable).
  //   * `epochs` (an epoch-rotated server's sealed window) serves
  //     WindowedQuery frames — and, when `pipeline` is null, plain
  //     batches too, from the newest sealed epoch. Before the first seal
  //     both answer kFailedPrecondition (retryable: the next seal
  //     satisfies it). Every response reports epochs.newest_seq() in
  //     sealed_epochs so clients can pace against rotation.
  // A windowed frame sent to a server without `epochs` is a terminal
  // kInvalidArgument: this server will never grow a window.
  QueryServer(Transport* transport, const std::string& endpoint,
              const core::FelipPipeline* pipeline,
              QueryServerOptions options = {},
              const stream::EpochSet* epochs = nullptr);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds the endpoint and starts serving. False if the transport could
  // not bind.
  bool Start();

  // Stops serving and closes every connection. Idempotent.
  void Stop();

  // Resolved endpoint (e.g. the actual TCP port when bound to port 0).
  std::string endpoint() const;

  // Blocks until `count` batches have been answered kOk or `timeout_ms`
  // elapses; true on success. Lets drivers await a known workload without
  // polling.
  bool WaitForBatches(uint64_t count, int timeout_ms);

  // --- Stats ---
  // Batches answered kOk; a plain batch resent after a lost response
  // counts once (as do its queries).
  uint64_t batches_answered() const { return batches_answered_.load(); }
  uint64_t queries_answered() const { return queries_answered_.load(); }
  uint64_t batches_malformed() const { return batches_malformed_.load(); }
  uint64_t batches_invalid() const { return batches_invalid_.load(); }
  uint64_t batches_not_ready() const { return batches_not_ready_.load(); }
  uint64_t windowed_answered() const { return windowed_answered_.load(); }

 private:
  std::vector<uint8_t> HandleFrame(uint64_t connection_id,
                                   std::vector<uint8_t>&& payload);

  Transport* transport_;
  std::string endpoint_;
  const core::FelipPipeline* pipeline_;
  const stream::EpochSet* epochs_;
  QueryServerOptions options_;

  std::unique_ptr<FrameServer> frame_server_;
  bool started_ = false;

  mutable std::mutex answered_mutex_;
  std::condition_variable answered_cv_;
  // Checksums of the plain batches answered so far, so a resend counts
  // once; guarded by answered_mutex_.
  DedupWindow answered_keys_{size_t{1} << 16};

  std::atomic<uint64_t> batches_answered_{0};
  std::atomic<uint64_t> queries_answered_{0};
  std::atomic<uint64_t> batches_malformed_{0};
  std::atomic<uint64_t> batches_invalid_{0};
  std::atomic<uint64_t> batches_not_ready_{0};
  std::atomic<uint64_t> windowed_answered_{0};
};

// A query batch takes longer to answer than a report batch to ack.
struct QueryClientOptions : ClientOptions {
  QueryClientOptions() { response_timeout_ms = 5000; }
};

struct QueryOutcome {
  // Final status: kOk with one answer per query, kInvalidArgument with
  // the server's verdict (see bad_query), or the last transport failure
  // after max_attempts were exhausted.
  Status status = Status::Unavailable("no response was ever received");
  uint32_t bad_query = wire::kBadQueryNone;  // kInvalidArgument only
  std::vector<double> answers;               // kOk only
  // Server seal progress from the last pairable response (0 when the
  // server does not run epochs) — what an epoch-pacing client polls.
  uint64_t sealed_epochs = 0;
  int attempts = 0;

  bool ok() const { return status.ok(); }
};

class QueryClient : public RetryingClient {
 public:
  // `transport` must outlive the client.
  QueryClient(Transport* transport, std::string endpoint,
              QueryClientOptions options = {});

  // Encodes `queries` and delivers them, retrying until a terminal
  // response (kOk / kInvalid) or max_attempts. Queries are idempotent
  // reads, so resending after a lost response is always safe.
  QueryOutcome AnswerQueries(const std::vector<query::Query>& queries);

  // Asks an epoch-rotated server for decay-mixed answers over its newest
  // `window` sealed epochs (0 = every retained epoch; decay in (0, 1]).
  // Same retry loop as AnswerQueries — a server that has not sealed its
  // first epoch answers kFailedPrecondition, which retries until a seal
  // lands or attempts run out.
  QueryOutcome AnswerWindowed(const std::vector<query::Query>& queries,
                              uint32_t window, double decay);

 private:
  // The shared send-retry-pair loop over one encoded request frame.
  QueryOutcome Deliver(const std::vector<uint8_t>& frame);
};

}  // namespace felip::svc

#endif  // FELIP_SVC_QUERY_SERVICE_H_
