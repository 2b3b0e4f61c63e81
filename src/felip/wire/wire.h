// Wire format for client↔aggregator messages.
//
// A real FELIP deployment ships three kinds of messages:
//   * GridConfig (aggregator -> client): which grid the client is assigned,
//     its cell layout, the protocol and epsilon to perturb with.
//   * Report (client -> aggregator): one perturbed cell report, an
//     fo::ReportData whose payload is framed by its type.
//   * ReportBatch: length-prefixed sequence of reports from a relay.
//
// Encoding is a compact little-endian binary format with a 4-byte magic, a
// format version, and an xxHash64 trailer so truncation and corruption are
// detected instead of silently mis-decoded (primitives shared with the
// snapshot format live in felip/wire/framing.h). Decoding never aborts:
// all failures surface as a non-ok Status (reports come from untrusted
// devices), with kInvalidArgument for malformed or corrupt frames.

#ifndef FELIP_WIRE_WIRE_H_
#define FELIP_WIRE_WIRE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "felip/common/status.h"
#include "felip/core/felip.h"
#include "felip/fo/olh.h"
#include "felip/fo/protocol.h"
#include "felip/fo/registry.h"
#include "felip/fo/report.h"
#include "felip/query/query.h"

namespace felip::wire {

inline constexpr uint32_t kMagic = 0x46454c50;  // "FELP"
inline constexpr uint8_t kVersion = 1;
// Salt of the xxHash64 trailer sealing every message ("wirecsum"). Part of
// the format: a relay re-framing messages must use the same salt.
inline constexpr uint64_t kChecksumSalt = 0x77697265'6373756dULL;

// Aggregator -> client: everything a device needs to produce its report.
struct GridConfigMessage {
  uint32_t grid_index = 0;  // index into the aggregator's assignment list
  bool is_2d = false;
  uint32_t attr_x = 0;
  uint32_t attr_y = 0;
  uint32_t domain_x = 1;
  uint32_t domain_y = 1;
  uint32_t lx = 1;
  uint32_t ly = 1;
  fo::Protocol protocol = fo::Protocol::kOlh;
  double epsilon = 1.0;
  // OLH only:
  uint32_t seed_pool_size = 0;
  uint64_t pool_salt = 0;
  // FLDP only: the public subset-pool parameters every device must share.
  uint32_t fldp_report_bits = 0;
  uint32_t fldp_pool_size = 0;
  uint64_t fldp_salt = 0;

  friend bool operator==(const GridConfigMessage&,
                         const GridConfigMessage&) = default;
};

// Client -> aggregator: one perturbed report — an fo::ReportData
// addressed to a grid. On the wire a report is its grid index, its
// protocol byte (the payload's alternative index, see fo/report.h), and
// the payload framed by its type: a uint64 or uint32 value as is, an OLH
// report as seed/hashed report/seed index, and a bit vector as a uint32
// length plus one byte per bit (FLDP prefixes its uint32 subset index).
struct ReportMessage : public fo::ReportData {
  uint32_t grid_index = 0;

  friend bool operator==(const ReportMessage&, const ReportMessage&) = default;
};

// --- Encoding (never fails) ---
std::vector<uint8_t> EncodeGridConfig(const GridConfigMessage& message);
std::vector<uint8_t> EncodeReport(const ReportMessage& message);
std::vector<uint8_t> EncodeReportBatch(
    const std::vector<ReportMessage>& reports);

// --- Decoding (kInvalidArgument on any malformed input) ---
StatusOr<GridConfigMessage> DecodeGridConfig(
    const std::vector<uint8_t>& buffer);
StatusOr<ReportMessage> DecodeReport(const std::vector<uint8_t>& buffer);
StatusOr<std::vector<ReportMessage>> DecodeReportBatch(
    const std::vector<uint8_t>& buffer);

// The report-batch decoder every other one wraps: one validating pass
// (envelope, checksum, a count bounded by the bytes present, every record,
// no trailing bytes) that reads record i straight into (*out)[i]. `out` is
// resized to the batch's report count, and an element whose payload
// already holds the record's alternative keeps its storage, so a caller
// that reuses one vector across frames allocates only when a batch
// outgrows it. On error `out` is left empty. The per-protocol
// felip_fo_report_bytes_total_* counters move only for a batch that
// decoded whole.
Status DecodeReportBatch(const std::vector<uint8_t>& buffer,
                         std::vector<ReportMessage>* out);

// --- Query frames (the networked query service, felip/svc) ---
//
// A QueryBatch frame carries λ-dimensional counting queries from a client
// to a serving aggregator; a QueryResponse frame carries back one answer
// per query, or the index of the first query the server rejected. Both use
// the same magic/version/xxHash64-trailer envelope as every other wire
// message. Decoding validates structure (operator tags, predicate shape,
// duplicate attributes) so a decoded batch can always be materialized as
// query::Query values without tripping their constructor checks; *domain*
// validation needs a schema and happens in the service layer
// (query::ValidateQuery).
//
// The response carries a StatusCode instead of a bespoke enum. Only three
// codes are representable on the wire:
//   kOk                 -> answers[i] answers queries[i]
//   kInvalidArgument    -> a query failed validation; see bad_query
//   kFailedPrecondition -> the serving pipeline is not queryable yet
// EncodeQueryResponse FELIP_CHECKs the code is one of these; decode
// rejects any other byte as malformed.

// bad_query value when no single query can be blamed (e.g. the batch
// frame itself was structurally undecodable).
inline constexpr uint32_t kBadQueryNone = 0xffffffffu;

struct QueryResponseMessage {
  StatusCode status = StatusCode::kInvalidArgument;
  uint32_t bad_query = kBadQueryNone;  // meaningful for kInvalidArgument
  // Echo of the request frame's checksum trailer so a client can never
  // pair a stale response with the wrong request (mirrors svc::Ack).
  uint64_t request_checksum = 0;
  // Epochs sealed by the server when it answered (0 when the server does
  // not run epochs). Carried on every response, so a client pacing an
  // epoch-rotated server can observe seal progress from any query — and
  // a kFailedPrecondition tells it how far the server actually is.
  uint64_t sealed_epochs = 0;
  std::vector<double> answers;  // kOk only: one per query, in [0, 1]

  friend bool operator==(const QueryResponseMessage&,
                         const QueryResponseMessage&) = default;
};

std::vector<uint8_t> EncodeQueryBatch(
    const std::vector<query::Query>& queries);
StatusOr<std::vector<query::Query>> DecodeQueryBatch(
    const std::vector<uint8_t>& buffer);

std::vector<uint8_t> EncodeQueryResponse(const QueryResponseMessage& message);
StatusOr<QueryResponseMessage> DecodeQueryResponse(
    const std::vector<uint8_t>& buffer);

// --- Windowed query frames (the epoch-rotated service tier) ---
//
// A WindowedQuery frame asks an epoch-rotating server for decay-mixed
// answers over its newest sealed epochs instead of one pipeline's
// estimates. The query list is the QueryBatch record format verbatim
// (same structural validation); `window` and `decay` prefix it. Answers
// come back in the same QueryResponse frame as plain batches, with
// `sealed_epochs` reporting the server's seal progress.
//
// Decoding rejects a decay outside (0, 1] (or non-finite) structurally —
// the stream layer FELIP_CHECKs the same contract, and network bytes must
// never reach a check that aborts the server.

struct WindowedQueryMessage {
  uint32_t window = 0;  // newest epochs to mix; 0 = every retained epoch
  double decay = 1.0;   // (0, 1]; 1.0 = exact sliding mean
  std::vector<query::Query> queries;
};

std::vector<uint8_t> EncodeWindowedQuery(const WindowedQueryMessage& message);
StatusOr<WindowedQueryMessage> DecodeWindowedQuery(
    const std::vector<uint8_t>& buffer);

// True when `buffer` is shaped like a windowed-query frame (header peek
// only — no checksum or payload validation). The query server uses this
// to route a received frame to the right decoder; a torn frame still
// fails that decoder's full validation.
bool IsWindowedQueryFrame(const std::vector<uint8_t>& buffer);

// --- Accumulator frames (distributed aggregation tier, felip/dist) ---
//
// A root aggregator pulls per-shard accumulator state by sending an
// AccumulatorPullMessage; the shard answers with an AccumulatorFrameMessage
// whose `oracle_section` is the snapshot format's kOracles payload
// (snapshot::PipelineCodec::EncodeOracleSection) — the wire layer carries
// those bytes opaquely, so the on-disk and on-wire accumulator formats are
// one codec. Frames are cumulative exports, ordered per shard by
// (epoch, sequence): the sequence counts exports within one process
// incarnation, and the epoch bumps on every warm restart, so the root keeps
// exactly the newest frame per shard and frames from a pre-crash
// incarnation are discarded as stale. Both messages use the standard
// checksummed envelope.

struct AccumulatorPullMessage {
  uint32_t shard_id = 0;  // the shard the root believes it is addressing
  bool seal = false;      // notify the shard the round is complete
  friend bool operator==(const AccumulatorPullMessage&,
                         const AccumulatorPullMessage&) = default;
};

struct AccumulatorFrameMessage {
  uint32_t shard_id = 0;
  uint32_t num_shards = 1;
  uint64_t epoch = 1;        // shard incarnation; bumps on warm restart
  uint64_t sequence = 0;     // export counter within the incarnation
  uint64_t plan_digest = 0;  // dist::PlanDigest of the shard's pipeline
  uint64_t reports_ingested = 0;
  bool sealed = false;  // the shard has seen the seal notification
  std::vector<uint8_t> oracle_section;  // snapshot kOracles payload
  friend bool operator==(const AccumulatorFrameMessage&,
                         const AccumulatorFrameMessage&) = default;
};

std::vector<uint8_t> EncodeAccumulatorPull(const AccumulatorPullMessage& m);
StatusOr<AccumulatorPullMessage> DecodeAccumulatorPull(
    const std::vector<uint8_t>& buffer);

std::vector<uint8_t> EncodeAccumulatorFrame(const AccumulatorFrameMessage& m);
StatusOr<AccumulatorFrameMessage> DecodeAccumulatorFrame(
    const std::vector<uint8_t>& buffer);

// --- Sharded batch decoding ---
//
// Decodes the whole batch with DecodeReportBatch (any malformed input
// fails before the sink sees a single report), then hands fixed shards of
// the decoded reports concurrently to `sink(shard_index, report_index,
// message)`.
//
// Shard boundaries depend only on the report count (never on
// `thread_count`), shard_index < ReportBatchShardCount(count), and reports
// within a shard arrive in increasing report_index order. Different shards
// may run on different threads, so the sink must only mutate state keyed
// by shard_index; fold the per-shard state in shard order afterwards for
// thread-count-independent results. With thread_count == 1 the sink runs
// entirely on the calling thread in increasing report_index order.
// Returns the report count.
StatusOr<size_t> DecodeReportBatchSharded(
    const std::vector<uint8_t>& buffer,
    const std::function<void(size_t shard_index, size_t report_index,
                             ReportMessage&& message)>& sink,
    unsigned thread_count = 0);

// Number of shards DecodeReportBatchSharded uses for `count` reports.
size_t ReportBatchShardCount(size_t count);

// Builds the config message for one of a pipeline's planned grids — the
// aggregator-side glue between planning and the wire. `options` supplies
// the per-protocol parameters devices must share (OLH seed pool, FLDP
// subset pool); only the planned protocol's fields are copied in.
GridConfigMessage MakeGridConfig(const core::FelipPipeline& pipeline,
                                 const std::vector<data::AttributeInfo>& schema,
                                 uint32_t grid_index, double epsilon,
                                 const fo::ProtocolOptions& options);

// --- Aggregator snapshots (legacy single-frame format) ---
//
// A snapshot persists a finalized pipeline's estimated grid frequencies
// plus everything needed to re-plan the identical grid layout (schema,
// population size, and the layout-affecting config fields). Response
// matrices are derived state and are rebuilt on load. The file uses the
// same checksummed envelope as the other wire messages.
//
// This format only captures a *queryable* pipeline and omits config
// fields that do not affect layout (OLH pool options, lambda threshold).
// The crash-safe sectioned format in felip/snapshot supersedes it for
// full pipeline state (including mid-collection accumulators); these
// entry points remain for published snapshot files and simple workflows.

// Serializes `pipeline` (must be queryable). `schema` and `config` must be
// the ones the pipeline was built with.
std::vector<uint8_t> EncodeSnapshot(
    const core::FelipPipeline& pipeline,
    const std::vector<data::AttributeInfo>& schema, uint64_t num_users,
    const core::FelipConfig& config);

// Rebuilds a queryable pipeline from an encoded snapshot; kInvalidArgument
// on any malformed input.
StatusOr<core::FelipPipeline> DecodeSnapshot(
    const std::vector<uint8_t>& buffer);

// File convenience wrappers over felip/storage. SaveSnapshot commits
// atomically and returns kUnavailable on I/O failure; LoadSnapshot
// returns kNotFound when the file cannot be opened.
Status SaveSnapshot(const core::FelipPipeline& pipeline,
                    const std::vector<data::AttributeInfo>& schema,
                    uint64_t num_users, const core::FelipConfig& config,
                    const std::string& path);
StatusOr<core::FelipPipeline> LoadSnapshot(const std::string& path);

}  // namespace felip::wire

#endif  // FELIP_WIRE_WIRE_H_
