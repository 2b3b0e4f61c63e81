#include "felip/svc/query_service.h"

#include <chrono>
#include <optional>
#include <span>
#include <utility>

#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/svc/message.h"

namespace felip::svc {

namespace {

struct QueryCounters {
  obs::Counter& batches;
  obs::Counter& queries;
  obs::Counter& invalid;
  obs::Counter& malformed;
  obs::Counter& not_ready;
  obs::Counter& windowed;
  obs::Counter& windowed_queries;

  static QueryCounters& Get() {
    static QueryCounters counters{
        obs::Registry::Default().GetCounter("felip_svc_query_batches_total"),
        obs::Registry::Default().GetCounter("felip_svc_queries_total"),
        obs::Registry::Default().GetCounter("felip_svc_query_invalid_total"),
        obs::Registry::Default().GetCounter(
            "felip_svc_query_malformed_total"),
        obs::Registry::Default().GetCounter(
            "felip_svc_query_not_ready_total"),
        obs::Registry::Default().GetCounter(
            "felip_svc_windowed_batches_total"),
        obs::Registry::Default().GetCounter(
            "felip_svc_windowed_queries_total"),
    };
    return counters;
  }
};

}  // namespace

QueryServer::QueryServer(Transport* transport, const std::string& endpoint,
                         const core::FelipPipeline* pipeline,
                         QueryServerOptions options,
                         const stream::EpochSet* epochs)
    : transport_(transport),
      endpoint_(endpoint),
      pipeline_(pipeline),
      epochs_(epochs),
      options_(options) {
  FELIP_CHECK(transport != nullptr);
  FELIP_CHECK_MSG(pipeline != nullptr || epochs != nullptr,
                  "a query server needs a pipeline or an epoch window");
}

QueryServer::~QueryServer() { Stop(); }

bool QueryServer::Start() {
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
  started_ = true;
  return true;
}

void QueryServer::Stop() {
  if (!started_) return;
  started_ = false;
  frame_server_->Stop();
  frame_server_.reset();
}

std::string QueryServer::endpoint() const {
  return frame_server_ != nullptr ? frame_server_->endpoint() : endpoint_;
}

bool QueryServer::WaitForBatches(uint64_t count, int timeout_ms) {
  std::unique_lock<std::mutex> lock(answered_mutex_);
  return answered_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&] { return batches_answered_.load() >= count; });
}

std::vector<uint8_t> QueryServer::HandleFrame(
    uint64_t /*connection_id*/, std::vector<uint8_t>&& payload) {
  obs::ScopedTimer span("felip_svc_query_batch");
  QueryCounters& counters = QueryCounters::Get();

  // Gate 1: integrity. A frame that fails its checksum was damaged in
  // flight; ack kDataLoss so the client resends the same bytes.
  if (!VerifyChecksumTrailer(payload)) {
    batches_malformed_.fetch_add(1);
    counters.malformed.Increment();
    Ack ack;
    ack.status = StatusCode::kDataLoss;
    ack.batch_checksum = ChecksumTrailer(payload).value_or(0);
    return EncodeAck(ack);
  }
  const uint64_t checksum = *ChecksumTrailer(payload);
  wire::QueryResponseMessage response;
  response.request_checksum = checksum;
  const auto reply = [&](StatusCode code, obs::Counter& counter,
                         std::atomic<uint64_t>& stat) {
    stat.fetch_add(1);
    counter.Increment();
    response.status = code;
    return wire::EncodeQueryResponse(response);
  };

  // Gate 2: structure. Checksum-valid but undecodable (including a
  // windowed frame's out-of-range decay) means a bad client, not
  // corruption — a resend would fail identically, so the response is a
  // terminal kInvalidArgument rather than an ack. A windowed frame to a
  // server without an epoch window is terminal too: it will never grow
  // one.
  const bool windowed = wire::IsWindowedQueryFrame(payload);
  std::optional<obs::ScopedTimer> windowed_span;
  wire::WindowedQueryMessage request;
  bool decoded = false;
  if (windowed) {
    windowed_span.emplace("felip_svc_windowed_batch");
    auto message = wire::DecodeWindowedQuery(payload);
    decoded = message.ok() && epochs_ != nullptr;
    if (decoded) request = *std::move(message);
  } else {
    auto queries = wire::DecodeQueryBatch(payload);
    decoded = queries.ok();
    if (decoded) request.queries = *std::move(queries);
  }
  const std::vector<query::Query>& queries = request.queries;
  response.bad_query = wire::kBadQueryNone;
  if (epochs_ != nullptr) response.sealed_epochs = epochs_->newest_seq();
  if (!decoded || queries.size() > options_.max_batch_queries) {
    return reply(StatusCode::kInvalidArgument, counters.invalid,
                 batches_invalid_);
  }

  // Readiness gate: a pipeline serves once it is queryable, an epoch
  // window once its first epoch sealed. This check must come before
  // schema validation, because the window's schema is empty until the
  // first seal and would wrongly turn valid queries into a terminal
  // kInvalidArgument.
  const core::FelipPipeline* pipeline = windowed ? nullptr : pipeline_;
  if (pipeline != nullptr
          ? pipeline->state() != core::PipelineState::kQueryable
          : response.sealed_epochs == 0) {
    return reply(StatusCode::kFailedPrecondition, counters.not_ready,
                 batches_not_ready_);
  }

  // Gate 3: schema domains. AnswerQuery treats out-of-domain predicates
  // as fatal programmer error in-process; over the network they are an
  // untrusted client's input and get a terminal kInvalidArgument naming
  // the first offending query.
  const std::vector<data::AttributeInfo> schema =
      pipeline != nullptr ? pipeline->schema() : epochs_->schema();
  for (size_t q = 0; q < queries.size(); ++q) {
    if (query::ValidateQuery(queries[q], schema)) {
      response.bad_query = static_cast<uint32_t>(q);
      return reply(StatusCode::kInvalidArgument, counters.invalid,
                   batches_invalid_);
    }
  }

  const std::span<const query::Query> batch(queries);
  StatusOr<std::vector<double>> answers =
      windowed ? epochs_->AnswerWindowed(batch, request.window,
                                         request.decay)
      : pipeline != nullptr
          ? StatusOr<std::vector<double>>(pipeline->AnswerQueries(batch))
          : epochs_->AnswerLatest(batch);
  if (!answers.ok()) {
    // Unreachable once sealed_epochs > 0 (the window only grows), but
    // degrade to retryable rather than crash on a contract drift.
    return reply(StatusCode::kFailedPrecondition, counters.not_ready,
                 batches_not_ready_);
  }
  response.status = StatusCode::kOk;
  response.answers = *std::move(answers);

  {
    // A plain batch whose response was lost comes back as the same bytes:
    // it is answered again but counted once, so WaitForBatches(n) waits
    // for n distinct batches. Windowed polls repeat on purpose and count
    // every time.
    std::lock_guard<std::mutex> lock(answered_mutex_);
    if (windowed || answered_keys_.Insert(checksum)) {
      (windowed ? counters.windowed : counters.batches).Increment();
      (windowed ? counters.windowed_queries : counters.queries)
          .Increment(queries.size());
      if (windowed) windowed_answered_.fetch_add(1);
      queries_answered_.fetch_add(queries.size());
      batches_answered_.fetch_add(1);
    }
  }
  answered_cv_.notify_all();
  return wire::EncodeQueryResponse(response);
}

QueryClient::QueryClient(Transport* transport, std::string endpoint,
                         QueryClientOptions options)
    : RetryingClient(transport, std::move(endpoint), options,
                     "felip_svc_query_client") {}

QueryOutcome QueryClient::AnswerQueries(
    const std::vector<query::Query>& queries) {
  static obs::Counter& batches_total = obs::Registry::Default().GetCounter(
      "felip_svc_query_client_batches_total");
  batches_total.Increment();
  return Deliver(wire::EncodeQueryBatch(queries));
}

QueryOutcome QueryClient::AnswerWindowed(
    const std::vector<query::Query>& queries, uint32_t window, double decay) {
  static obs::Counter& windowed_total = obs::Registry::Default().GetCounter(
      "felip_svc_query_client_windowed_total");
  windowed_total.Increment();
  wire::WindowedQueryMessage request;
  request.window = window;
  request.decay = decay;  // EncodeWindowedQuery checks the (0, 1] contract.
  request.queries = queries;
  return Deliver(wire::EncodeWindowedQuery(request));
}

QueryOutcome QueryClient::Deliver(const std::vector<uint8_t>& frame) {
  const std::optional<uint64_t> checksum = ChecksumTrailer(frame);
  FELIP_CHECK_MSG(checksum.has_value(), "query frame has no checksum trailer");

  QueryOutcome outcome;
  std::vector<uint8_t> response;
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    outcome.attempts = attempt;
    outcome.status = Exchange(attempt, frame, &response);
    if (!outcome.status.ok()) {
      Backoff(attempt);
      continue;
    }
    if (auto decoded = wire::DecodeQueryResponse(response);
        decoded.ok() && decoded->request_checksum == *checksum) {
      outcome.sealed_epochs = decoded->sealed_epochs;
      switch (decoded->status) {
        case StatusCode::kOk:
          outcome.status = Status::Ok();
          outcome.answers = std::move(decoded->answers);
          return outcome;
        case StatusCode::kInvalidArgument:
          // Terminal: resending the same queries cannot succeed.
          outcome.status =
              Status::InvalidArgument("the server rejected a query");
          outcome.bad_query = decoded->bad_query;
          return outcome;
        case StatusCode::kFailedPrecondition:
          // The round is still finalizing (or the first epoch has not
          // sealed yet); retry after backoff.
          outcome.status = Status::FailedPrecondition(
              "the serving backend is not queryable yet");
          Backoff(attempt);
          continue;
        default:
          // DecodeQueryResponse only yields the three codes above.
          FELIP_CHECK_MSG(false, "unreachable query-response status");
      }
    }

    // A kDataLoss ack means the frame was damaged in flight: resend on
    // the same connection. Anything else is an unpairable response.
    const StatusOr<Ack> ack = DecodeAck(response);
    if (ack.ok() && ack->status == StatusCode::kDataLoss) {
      outcome.status = Status::DataLoss("frame damaged in flight");
      Backoff(attempt);
      continue;
    }
    outcome.status = Status::Unavailable("unpairable response; reconnecting");
    DropConnection();
    Backoff(attempt);
  }
  return outcome;
}

}  // namespace felip::svc
