#include "felip/wire/wire.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>

#include "felip/common/check.h"
#include "felip/common/hash.h"
#include "felip/common/parallel.h"
#include "felip/fo/registry.h"
#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/storage/storage.h"
#include "felip/wire/framing.h"

namespace felip::wire {

namespace {

enum class MessageKind : uint8_t {
  kGridConfig = 1,
  kReport = 2,
  kReportBatch = 3,
  kSnapshot = 4,
  kQueryBatch = 5,
  kQueryResponse = 6,
  kAccumulatorPull = 7,
  kAccumulatorFrame = 8,
  kWindowedQuery = 9,
};

// Every frame is magic(4) + version(1) + kind(1), its payload, then the
// xxHash64 trailer.
constexpr size_t kHeaderBytes = 4 + 1 + 1;
constexpr size_t kTrailerBytes = sizeof(uint64_t);

uint8_t* PutHeader(uint8_t* at, MessageKind kind) {
  at = PutAt<uint32_t>(at, kMagic);
  at = PutAt<uint8_t>(at, kVersion);
  return PutAt<uint8_t>(at, static_cast<uint8_t>(kind));
}

void WriteHeader(Writer& w, MessageKind kind) {
  uint8_t header[kHeaderBytes];
  PutHeader(header, kind);
  w.PutBytes(header, sizeof(header));
}

// Verifies magic/version/kind and the trailing checksum; on success returns
// the payload end (the checksum trailer stripped from the logical payload
// length).
std::optional<size_t> ValidateEnvelope(const std::vector<uint8_t>& buffer,
                                       MessageKind expected_kind) {
  if (buffer.size() < kHeaderBytes + kTrailerBytes) return std::nullopt;
  if (!CheckSealedChecksum(buffer, kChecksumSalt)) return std::nullopt;
  const size_t payload_end = buffer.size() - kTrailerBytes;
  uint32_t magic = 0;
  std::memcpy(&magic, buffer.data(), sizeof(magic));
  if (magic != kMagic) return std::nullopt;
  if (buffer[4] != kVersion) return std::nullopt;
  if (buffer[5] != static_cast<uint8_t>(expected_kind)) return std::nullopt;
  return payload_end;
}

// Per-protocol received-report byte counters
// (felip_fo_report_bytes_total_<protocol>), indexed by protocol byte and
// cached once per process. Incremented only for frames that decoded
// whole, so every accepted report is counted exactly once. The measured
// span is the protocol body after the grid-index/protocol header, so the
// counter agrees with ProtocolTraits::report_bytes — the per-report cost
// AFO budgets against.
obs::Counter& ReportBytesCounter(fo::Protocol protocol) {
  static std::array<obs::Counter*, fo::kNumProtocols> counters = [] {
    std::array<obs::Counter*, fo::kNumProtocols> c{};
    for (const fo::ProtocolTraits& traits : fo::AllProtocolTraits()) {
      std::string name = "felip_fo_report_bytes_total_";
      for (const char ch : traits.name) {
        name.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
      }
      c[static_cast<size_t>(traits.protocol)] =
          &obs::Registry::Default().GetCounter(name);
    }
    return c;
  }();
  return *counters[static_cast<size_t>(protocol)];
}

// Wire bytes of the query-response status. Part of the format: the
// StatusCode enum's numeric values are an in-memory detail and never
// touch the wire.
constexpr uint8_t kQueryStatusOk = 1;
constexpr uint8_t kQueryStatusInvalid = 2;
constexpr uint8_t kQueryStatusNotReady = 3;

uint8_t QueryStatusToWire(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return kQueryStatusOk;
    case StatusCode::kInvalidArgument:
      return kQueryStatusInvalid;
    case StatusCode::kFailedPrecondition:
      return kQueryStatusNotReady;
    default:
      FELIP_CHECK_MSG(false, "status code not representable on the wire");
      return 0;
  }
}

std::optional<StatusCode> QueryStatusFromWire(uint8_t byte) {
  switch (byte) {
    case kQueryStatusOk:
      return StatusCode::kOk;
    case kQueryStatusInvalid:
      return StatusCode::kInvalidArgument;
    case kQueryStatusNotReady:
      return StatusCode::kFailedPrecondition;
    default:
      return std::nullopt;
  }
}

// The report codec frames each payload by its type: one PayloadBytes,
// PutPayload and ReadPayload overload per fo::ReportPayload alternative,
// so nothing in this file enumerates protocols. The protocol byte is the
// payload's alternative index. PayloadBytes is exactly what PutPayload
// writes; PutPayload writes at `at` and returns the byte after it.
size_t PayloadBytes(uint64_t) { return sizeof(uint64_t); }
size_t PayloadBytes(uint32_t) { return sizeof(uint32_t); }
size_t PayloadBytes(const fo::OlhReport&) {
  return sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint32_t);
}
size_t PayloadBytes(const std::vector<uint8_t>& bits) {
  return sizeof(uint32_t) + bits.size();
}
size_t PayloadBytes(const fo::FldpReport& report) {
  return sizeof(uint32_t) + PayloadBytes(report.bits);
}

uint8_t* PutPayload(uint8_t* at, uint64_t value) {
  return PutAt<uint64_t>(at, value);
}
uint8_t* PutPayload(uint8_t* at, uint32_t value) {
  return PutAt<uint32_t>(at, value);
}
uint8_t* PutPayload(uint8_t* at, const fo::OlhReport& report) {
  at = PutAt<uint64_t>(at, report.seed);
  at = PutAt<uint32_t>(at, report.hashed_report);
  return PutAt<uint32_t>(at, report.seed_index);
}
uint8_t* PutPayload(uint8_t* at, const std::vector<uint8_t>& bits) {
  at = PutAt<uint32_t>(at, static_cast<uint32_t>(bits.size()));
  // An empty vector's data() may be null, and memcpy from null is
  // undefined even for zero bytes.
  if (!bits.empty()) std::memcpy(at, bits.data(), bits.size());
  return at + bits.size();
}
uint8_t* PutPayload(uint8_t* at, const fo::FldpReport& report) {
  return PutPayload(PutAt<uint32_t>(at, report.subset_index), report.bits);
}

bool ReadPayload(Reader& r, uint64_t* value) { return r.Get(value); }
bool ReadPayload(Reader& r, uint32_t* value) { return r.Get(value); }
bool ReadPayload(Reader& r, fo::OlhReport* report) {
  return r.Get(&report->seed) && r.Get(&report->hashed_report) &&
         r.Get(&report->seed_index);
}
// A length-prefixed bit vector, rejecting absurd lengths and non-bit
// bytes.
bool ReadPayload(Reader& r, std::vector<uint8_t>* bits) {
  uint32_t len = 0;
  if (!r.GetLength(&len, 1)) return false;  // reject absurd lengths early
  bits->resize(len);
  if (!r.GetBytes(bits->data(), len)) return false;
  for (const uint8_t b : *bits) {
    if (b > 1) return false;
  }
  return true;
}
bool ReadPayload(Reader& r, fo::FldpReport* report) {
  return r.Get(&report->subset_index) && ReadPayload(r, &report->bits);
}

// Reads alternative I of the payload in place, reusing the storage of a
// payload that already holds it (a batch decoded into a reused vector).
template <size_t I>
bool ReadAlternative(Reader& r, fo::ReportPayload* payload) {
  if (payload->index() != I) payload->emplace<I>();
  return ReadPayload(r, &std::get<I>(*payload));
}

using PayloadReader = bool (*)(Reader&, fo::ReportPayload*);

template <size_t... I>
constexpr std::array<PayloadReader, sizeof...(I)> PayloadReaders(
    std::index_sequence<I...>) {
  return {&ReadAlternative<I>...};
}

// Indexed by protocol byte.
constexpr std::array<PayloadReader, fo::kNumProtocols> kPayloadReaders =
    PayloadReaders(std::make_index_sequence<fo::kNumProtocols>());

// One report record: grid index, protocol byte, payload.
size_t ReportRecordBytes(const ReportMessage& m) {
  return sizeof(uint32_t) + sizeof(uint8_t) +
         std::visit([](const auto& payload) { return PayloadBytes(payload); },
                    m.payload);
}

// Writes one record of ReportRecordBytes(m) bytes at `at`.
uint8_t* PutReportRecord(uint8_t* at, const ReportMessage& m) {
  at = PutAt<uint32_t>(at, m.grid_index);
  at = PutAt<uint8_t>(at, static_cast<uint8_t>(m.protocol()));
  // The cursor goes in and comes back by value, so it stays in a
  // register across the records.
  return std::visit(
      [at](const auto& payload) { return PutPayload(at, payload); },
      m.payload);
}

// The encoder of both report frame kinds: a Report frame is one record, a
// ReportBatch frame a uint32 count and then its records. The frame is
// sized first, trailer included, so it is allocated once with
// capacity() == size(), written through one cursor and sealed in place.
std::vector<uint8_t> EncodeReportFrame(MessageKind kind,
                                       std::span<const ReportMessage> reports) {
  const bool counted = kind == MessageKind::kReportBatch;
  size_t size =
      kHeaderBytes + (counted ? sizeof(uint32_t) : 0) + kTrailerBytes;
  for (const ReportMessage& m : reports) size += ReportRecordBytes(m);
  std::vector<uint8_t> buffer(size);
  uint8_t* at = PutHeader(buffer.data(), kind);
  if (counted) {
    at = PutAt<uint32_t>(at, static_cast<uint32_t>(reports.size()));
  }
  for (const ReportMessage& m : reports) at = PutReportRecord(at, m);
  at = PutChecksumAt(buffer.data(), at, kChecksumSalt);
  FELIP_CHECK_MSG(at == buffer.data() + buffer.size(),
                  "report frame size disagrees with its records");
  return buffer;
}

// Per-protocol sums of received report body bytes, indexed by protocol
// byte. A decoder adds each record's body here and hands the sums to
// CountReportBytes only once its whole frame has validated, so a rejected
// frame counts nothing.
using ReportBodyBytes = std::array<uint64_t, fo::kNumProtocols>;

// Reads one report record into `m`, reusing the storage of its payload.
bool ReadReport(Reader& r, ReportMessage* m, ReportBodyBytes* body_bytes) {
  uint8_t protocol = 0;
  if (!r.Get(&m->grid_index) || !r.Get(&protocol)) return false;
  if (!fo::KnownProtocolByte(protocol)) return false;
  const size_t body_start = r.position();
  if (!kPayloadReaders[protocol](r, &m->payload)) return false;
  (*body_bytes)[protocol] += r.position() - body_start;
  return true;
}

void CountReportBytes(const ReportBodyBytes& body_bytes) {
  for (size_t p = 0; p < body_bytes.size(); ++p) {
    if (body_bytes[p] != 0) {
      ReportBytesCounter(static_cast<fo::Protocol>(p))
          .Increment(body_bytes[p]);
    }
  }
}

// Decode-path instruments, cached once per process. Every public decoder
// counts the bytes it inspected; malformed inputs are counted rather than
// being fatal, so untrusted-input rejection stays observable.
struct DecodeCounters {
  obs::Counter& bytes;
  obs::Counter& malformed;
  obs::Counter& batches;
  obs::Counter& reports;
  obs::Counter& query_batches;
  obs::Counter& queries;
};

DecodeCounters& Counters() {
  static DecodeCounters counters{
      obs::Registry::Default().GetCounter("felip_wire_decode_bytes_total"),
      obs::Registry::Default().GetCounter("felip_wire_malformed_total"),
      obs::Registry::Default().GetCounter("felip_wire_report_batches_total"),
      obs::Registry::Default().GetCounter("felip_wire_reports_decoded_total"),
      obs::Registry::Default().GetCounter(
          "felip_wire_query_batches_total"),
      obs::Registry::Default().GetCounter(
          "felip_wire_queries_decoded_total")};
  return counters;
}

// All decode failures collapse to one retryable-false code; the message
// names the frame kind so service logs stay diagnosable.
Status Malformed(const char* what) { return Status::InvalidArgument(what); }

// One validating pass over a ReportBatch frame: record i is read straight
// into (*out)[i], and the pass must end exactly at the checksum trailer.
bool DecodeReportBatchImpl(const std::vector<uint8_t>& buffer,
                           std::vector<ReportMessage>* out) {
  const auto payload_end =
      ValidateEnvelope(buffer, MessageKind::kReportBatch);
  if (!payload_end.has_value()) return false;
  Reader r(buffer);
  if (!r.Skip(6)) return false;
  // Every record is at least grid(4) + protocol(1) + a 4-byte payload
  // (PGR point or empty-OUE length), so an adversarial count is rejected
  // before anything proportional to it is allocated.
  constexpr size_t kMinReportBytes = 4 + 1 + 4;
  uint32_t count = 0;
  if (!r.GetCount(&count, kMinReportBytes, *payload_end)) return false;
  out->resize(count);
  ReportBodyBytes body_bytes{};
  for (ReportMessage& m : *out) {
    if (!ReadReport(r, &m, &body_bytes)) return false;
  }
  if (r.position() != *payload_end) return false;
  CountReportBytes(body_bytes);
  return true;
}

}  // namespace

Status DecodeReportBatch(const std::vector<uint8_t>& buffer,
                         std::vector<ReportMessage>* out) {
  obs::ScopedTimer span("felip_wire_decode_batch");
  DecodeCounters& counters = Counters();
  counters.bytes.Increment(buffer.size());
  if (!DecodeReportBatchImpl(buffer, out)) {
    out->clear();
    counters.malformed.Increment();
    return Malformed("malformed report-batch frame");
  }
  counters.batches.Increment();
  counters.reports.Increment(out->size());
  return Status::Ok();
}

size_t ReportBatchShardCount(size_t count) { return ReduceShardCount(count); }

StatusOr<size_t> DecodeReportBatchSharded(
    const std::vector<uint8_t>& buffer,
    const std::function<void(size_t shard_index, size_t report_index,
                             ReportMessage&& message)>& sink,
    unsigned thread_count) {
  std::vector<ReportMessage> reports;
  FELIP_RETURN_IF_ERROR(DecodeReportBatch(buffer, &reports));
  const size_t count = reports.size();
  const size_t num_shards = ReportBatchShardCount(count);
  ParallelFor(
      num_shards,
      [&](size_t s) {
        const auto [begin, end] = SliceRange(count, s, num_shards);
        for (size_t i = begin; i < end; ++i) {
          sink(s, i, std::move(reports[i]));
        }
      },
      thread_count);
  return count;
}

std::vector<uint8_t> EncodeGridConfig(const GridConfigMessage& m) {
  std::vector<uint8_t> buffer;
  Writer w(&buffer);
  WriteHeader(w, MessageKind::kGridConfig);
  w.Put<uint32_t>(m.grid_index);
  w.Put<uint8_t>(m.is_2d ? 1 : 0);
  w.Put<uint32_t>(m.attr_x);
  w.Put<uint32_t>(m.attr_y);
  w.Put<uint32_t>(m.domain_x);
  w.Put<uint32_t>(m.domain_y);
  w.Put<uint32_t>(m.lx);
  w.Put<uint32_t>(m.ly);
  w.Put<uint8_t>(static_cast<uint8_t>(m.protocol));
  w.Put<double>(m.epsilon);
  w.Put<uint32_t>(m.seed_pool_size);
  w.Put<uint64_t>(m.pool_salt);
  w.Put<uint32_t>(m.fldp_report_bits);
  w.Put<uint32_t>(m.fldp_pool_size);
  w.Put<uint64_t>(m.fldp_salt);
  SealChecksum(&buffer, kChecksumSalt);
  return buffer;
}

namespace {

std::optional<GridConfigMessage> DecodeGridConfigImpl(
    const std::vector<uint8_t>& buffer) {
  const auto payload_end = ValidateEnvelope(buffer, MessageKind::kGridConfig);
  if (!payload_end.has_value()) return std::nullopt;
  Reader r(buffer);
  uint8_t skip[6];
  if (!r.GetBytes(skip, sizeof(skip))) return std::nullopt;

  GridConfigMessage m;
  uint8_t is_2d = 0;
  uint8_t protocol = 0;
  if (!r.Get(&m.grid_index) || !r.Get(&is_2d) || !r.Get(&m.attr_x) ||
      !r.Get(&m.attr_y) || !r.Get(&m.domain_x) || !r.Get(&m.domain_y) ||
      !r.Get(&m.lx) || !r.Get(&m.ly) || !r.Get(&protocol) ||
      !r.Get(&m.epsilon) || !r.Get(&m.seed_pool_size) ||
      !r.Get(&m.pool_salt) || !r.Get(&m.fldp_report_bits) ||
      !r.Get(&m.fldp_pool_size) || !r.Get(&m.fldp_salt)) {
    return std::nullopt;
  }
  if (r.position() != *payload_end) return std::nullopt;
  if (!fo::KnownProtocolByte(protocol)) return std::nullopt;
  m.is_2d = is_2d != 0;
  m.protocol = static_cast<fo::Protocol>(protocol);
  // Semantic validation: layouts must be feasible.
  if (m.domain_x == 0 || m.domain_y == 0 || m.lx == 0 || m.ly == 0) {
    return std::nullopt;
  }
  if (m.lx > m.domain_x || m.ly > m.domain_y) return std::nullopt;
  if (!(m.epsilon > 0.0) || m.epsilon > 100.0) return std::nullopt;
  const uint64_t cells = static_cast<uint64_t>(m.lx) * m.ly;
  // An FLDP grid without the public pool parameters cannot perturb, and
  // its bucket indices are uint32 — cell domains past that would silently
  // wrap in the subset construction.
  if (m.protocol == fo::Protocol::kFldp &&
      (m.fldp_report_bits == 0 || m.fldp_pool_size == 0 ||
       cells > 0xffffffffull)) {
    return std::nullopt;
  }
  // A PGR grid whose (epsilon, cell count) the projective construction
  // cannot represent would abort (or, unscreened, hit undefined behavior)
  // in PgrParams::Make; untrusted configs are rejected instead.
  if (m.protocol == fo::Protocol::kPgr && !fo::PgrFeasible(m.epsilon, cells)) {
    return std::nullopt;
  }
  return m;
}

}  // namespace

StatusOr<GridConfigMessage> DecodeGridConfig(
    const std::vector<uint8_t>& buffer) {
  DecodeCounters& counters = Counters();
  counters.bytes.Increment(buffer.size());
  std::optional<GridConfigMessage> m = DecodeGridConfigImpl(buffer);
  if (!m.has_value()) {
    counters.malformed.Increment();
    return Malformed("malformed grid-config frame");
  }
  return *std::move(m);
}

std::vector<uint8_t> EncodeReport(const ReportMessage& m) {
  return EncodeReportFrame(MessageKind::kReport, {&m, 1});
}

namespace {

std::optional<ReportMessage> DecodeReportImpl(
    const std::vector<uint8_t>& buffer) {
  const auto payload_end = ValidateEnvelope(buffer, MessageKind::kReport);
  if (!payload_end.has_value()) return std::nullopt;
  Reader r(buffer);
  uint8_t skip[6];
  if (!r.GetBytes(skip, sizeof(skip))) return std::nullopt;
  ReportMessage m;
  ReportBodyBytes body_bytes{};
  if (!ReadReport(r, &m, &body_bytes)) return std::nullopt;
  if (r.position() != *payload_end) return std::nullopt;
  CountReportBytes(body_bytes);
  return m;
}

}  // namespace

StatusOr<ReportMessage> DecodeReport(const std::vector<uint8_t>& buffer) {
  DecodeCounters& counters = Counters();
  counters.bytes.Increment(buffer.size());
  std::optional<ReportMessage> m = DecodeReportImpl(buffer);
  if (!m.has_value()) {
    counters.malformed.Increment();
    return Malformed("malformed report frame");
  }
  counters.reports.Increment();
  return *std::move(m);
}

std::vector<uint8_t> EncodeReportBatch(
    const std::vector<ReportMessage>& reports) {
  return EncodeReportFrame(MessageKind::kReportBatch, reports);
}

StatusOr<std::vector<ReportMessage>> DecodeReportBatch(
    const std::vector<uint8_t>& buffer) {
  std::vector<ReportMessage> reports;
  FELIP_RETURN_IF_ERROR(DecodeReportBatch(buffer, &reports));
  return reports;
}

namespace {

// The query-list record format, shared verbatim by QueryBatch and
// WindowedQuery frames: count u32, then per query a u16 predicate count
// and the predicate records.
void EncodeQueryList(Writer& w, const std::vector<query::Query>& queries) {
  w.Put<uint32_t>(static_cast<uint32_t>(queries.size()));
  for (const query::Query& q : queries) {
    w.Put<uint16_t>(static_cast<uint16_t>(q.predicates().size()));
    for (const query::Predicate& p : q.predicates()) {
      w.Put<uint32_t>(p.attr);
      w.Put<uint8_t>(static_cast<uint8_t>(p.op));
      w.Put<uint32_t>(p.lo);
      w.Put<uint32_t>(p.hi);
      w.Put<uint32_t>(static_cast<uint32_t>(p.values.size()));
      for (const uint32_t v : p.values) w.Put<uint32_t>(v);
    }
  }
}

}  // namespace

std::vector<uint8_t> EncodeQueryBatch(
    const std::vector<query::Query>& queries) {
  std::vector<uint8_t> buffer;
  Writer w(&buffer);
  WriteHeader(w, MessageKind::kQueryBatch);
  EncodeQueryList(w, queries);
  SealChecksum(&buffer, kChecksumSalt);
  return buffer;
}

namespace {

// One predicate record: attr(4) + op(1) + lo(4) + hi(4) + value_count(4).
constexpr uint64_t kMinPredicateBytes = 4 + 1 + 4 + 4 + 4;

bool DecodePredicateBody(Reader& r, query::Predicate* p) {
  uint8_t op = 0;
  uint32_t value_count = 0;
  if (!r.Get(&p->attr) || !r.Get(&op) || !r.Get(&p->lo) || !r.Get(&p->hi) ||
      !r.Get(&value_count)) {
    return false;
  }
  if (op > static_cast<uint8_t>(query::Op::kBetween)) return false;
  p->op = static_cast<query::Op>(op);
  if (static_cast<uint64_t>(value_count) * sizeof(uint32_t) > r.remaining()) {
    return false;
  }
  p->values.resize(value_count);
  for (uint32_t i = 0; i < value_count; ++i) {
    if (!r.Get(&p->values[i])) return false;
  }
  // Structural constraints query::Query's constructor enforces fatally;
  // network bytes are untrusted, so they must be rejected here instead.
  switch (p->op) {
    case query::Op::kEquals:
      break;
    case query::Op::kBetween:
      if (p->lo > p->hi) return false;
      break;
    case query::Op::kIn:
      if (p->values.empty()) return false;
      break;
  }
  return true;
}

// Decodes a query-list record from `r`, consuming exactly up to
// `payload_end`. The structural guarantees (operator tags, predicate
// shape, duplicate attributes, adversarial counts) are identical for
// every frame kind that carries a query list.
std::optional<std::vector<query::Query>> DecodeQueryList(
    Reader& r, size_t payload_end) {
  // A query is at least predicate_count(2) + one predicate record; reject
  // adversarial counts before reserving anything proportional to them.
  uint32_t count = 0;
  if (!r.GetCount(&count, 2 + kMinPredicateBytes, payload_end)) {
    return std::nullopt;
  }
  std::vector<query::Query> queries;
  queries.reserve(count);
  std::vector<query::Predicate> predicates;
  std::vector<uint32_t> attrs_seen;
  for (uint32_t q = 0; q < count; ++q) {
    uint16_t predicate_count = 0;
    if (!r.Get(&predicate_count)) return std::nullopt;
    if (predicate_count == 0) return std::nullopt;
    if (static_cast<uint64_t>(predicate_count) * kMinPredicateBytes >
        payload_end - r.position()) {
      return std::nullopt;
    }
    predicates.clear();
    attrs_seen.clear();
    for (uint16_t i = 0; i < predicate_count; ++i) {
      query::Predicate p;
      if (!DecodePredicateBody(r, &p)) return std::nullopt;
      attrs_seen.push_back(p.attr);
      predicates.push_back(std::move(p));
    }
    std::sort(attrs_seen.begin(), attrs_seen.end());
    if (std::adjacent_find(attrs_seen.begin(), attrs_seen.end()) !=
        attrs_seen.end()) {
      return std::nullopt;  // duplicate attribute in one query
    }
    queries.emplace_back(predicates);
  }
  if (r.position() != payload_end) return std::nullopt;
  return queries;
}

std::optional<std::vector<query::Query>> DecodeQueryBatchImpl(
    const std::vector<uint8_t>& buffer) {
  const auto payload_end = ValidateEnvelope(buffer, MessageKind::kQueryBatch);
  if (!payload_end.has_value()) return std::nullopt;
  Reader r(buffer);
  if (!r.Skip(6)) return std::nullopt;
  return DecodeQueryList(r, *payload_end);
}

}  // namespace

StatusOr<std::vector<query::Query>> DecodeQueryBatch(
    const std::vector<uint8_t>& buffer) {
  DecodeCounters& counters = Counters();
  counters.bytes.Increment(buffer.size());
  auto queries = DecodeQueryBatchImpl(buffer);
  if (!queries.has_value()) {
    counters.malformed.Increment();
    return Malformed("malformed query-batch frame");
  }
  counters.query_batches.Increment();
  counters.queries.Increment(queries->size());
  return *std::move(queries);
}

std::vector<uint8_t> EncodeQueryResponse(const QueryResponseMessage& m) {
  std::vector<uint8_t> buffer;
  Writer w(&buffer);
  WriteHeader(w, MessageKind::kQueryResponse);
  w.Put<uint8_t>(QueryStatusToWire(m.status));
  w.Put<uint32_t>(m.bad_query);
  w.Put<uint64_t>(m.request_checksum);
  w.Put<uint64_t>(m.sealed_epochs);
  w.Put<uint32_t>(static_cast<uint32_t>(m.answers.size()));
  for (const double a : m.answers) w.Put<double>(a);
  SealChecksum(&buffer, kChecksumSalt);
  return buffer;
}

namespace {

std::optional<QueryResponseMessage> DecodeQueryResponseImpl(
    const std::vector<uint8_t>& buffer) {
  const auto payload_end =
      ValidateEnvelope(buffer, MessageKind::kQueryResponse);
  if (!payload_end.has_value()) return std::nullopt;
  Reader r(buffer);
  if (!r.Skip(6)) return std::nullopt;
  QueryResponseMessage m;
  uint8_t status = 0;
  uint32_t count = 0;
  if (!r.Get(&status) || !r.Get(&m.bad_query) ||
      !r.Get(&m.request_checksum) || !r.Get(&m.sealed_epochs) ||
      !r.Get(&count)) {
    return std::nullopt;
  }
  const std::optional<StatusCode> code = QueryStatusFromWire(status);
  if (!code.has_value()) return std::nullopt;
  m.status = *code;
  if (static_cast<uint64_t>(count) * sizeof(double) !=
      *payload_end - r.position()) {
    return std::nullopt;
  }
  m.answers.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!r.Get(&m.answers[i])) return std::nullopt;
    if (!std::isfinite(m.answers[i])) return std::nullopt;
  }
  if (r.position() != *payload_end) return std::nullopt;
  return m;
}

}  // namespace

StatusOr<QueryResponseMessage> DecodeQueryResponse(
    const std::vector<uint8_t>& buffer) {
  DecodeCounters& counters = Counters();
  counters.bytes.Increment(buffer.size());
  auto m = DecodeQueryResponseImpl(buffer);
  if (!m.has_value()) {
    counters.malformed.Increment();
    return Malformed("malformed query-response frame");
  }
  return *std::move(m);
}

std::vector<uint8_t> EncodeWindowedQuery(const WindowedQueryMessage& m) {
  FELIP_CHECK_MSG(std::isfinite(m.decay) && m.decay > 0.0 && m.decay <= 1.0,
                  "windowed-query decay must be in (0, 1]");
  std::vector<uint8_t> buffer;
  Writer w(&buffer);
  WriteHeader(w, MessageKind::kWindowedQuery);
  w.Put<uint32_t>(m.window);
  w.Put<double>(m.decay);
  EncodeQueryList(w, m.queries);
  SealChecksum(&buffer, kChecksumSalt);
  return buffer;
}

namespace {

std::optional<WindowedQueryMessage> DecodeWindowedQueryImpl(
    const std::vector<uint8_t>& buffer) {
  const auto payload_end =
      ValidateEnvelope(buffer, MessageKind::kWindowedQuery);
  if (!payload_end.has_value()) return std::nullopt;
  Reader r(buffer);
  if (!r.Skip(6)) return std::nullopt;
  WindowedQueryMessage m;
  if (!r.Get(&m.window) || !r.Get(&m.decay)) return std::nullopt;
  // The stream layer FELIP_CHECKs this contract; adversarial bytes must
  // be rejected here, not crash the server there.
  if (!std::isfinite(m.decay) || m.decay <= 0.0 || m.decay > 1.0) {
    return std::nullopt;
  }
  auto queries = DecodeQueryList(r, *payload_end);
  if (!queries.has_value()) return std::nullopt;
  m.queries = *std::move(queries);
  return m;
}

}  // namespace

StatusOr<WindowedQueryMessage> DecodeWindowedQuery(
    const std::vector<uint8_t>& buffer) {
  DecodeCounters& counters = Counters();
  counters.bytes.Increment(buffer.size());
  auto m = DecodeWindowedQueryImpl(buffer);
  if (!m.has_value()) {
    counters.malformed.Increment();
    return Malformed("malformed windowed-query frame");
  }
  counters.query_batches.Increment();
  counters.queries.Increment(m->queries.size());
  return *std::move(m);
}

bool IsWindowedQueryFrame(const std::vector<uint8_t>& buffer) {
  if (buffer.size() < 6) return false;
  uint32_t magic = 0;
  std::memcpy(&magic, buffer.data(), sizeof(magic));
  return magic == kMagic && buffer[4] == kVersion &&
         buffer[5] == static_cast<uint8_t>(MessageKind::kWindowedQuery);
}

std::vector<uint8_t> EncodeAccumulatorPull(const AccumulatorPullMessage& m) {
  std::vector<uint8_t> buffer;
  Writer w(&buffer);
  WriteHeader(w, MessageKind::kAccumulatorPull);
  w.Put<uint32_t>(m.shard_id);
  w.Put<uint8_t>(m.seal ? 1 : 0);
  SealChecksum(&buffer, kChecksumSalt);
  return buffer;
}

StatusOr<AccumulatorPullMessage> DecodeAccumulatorPull(
    const std::vector<uint8_t>& buffer) {
  DecodeCounters& counters = Counters();
  counters.bytes.Increment(buffer.size());
  const auto payload_end =
      ValidateEnvelope(buffer, MessageKind::kAccumulatorPull);
  auto malformed = [&counters]() -> Status {
    counters.malformed.Increment();
    return Malformed("malformed accumulator-pull frame");
  };
  if (!payload_end.has_value()) return malformed();
  Reader r(buffer);
  if (!r.Skip(6)) return malformed();
  AccumulatorPullMessage m;
  uint8_t seal = 0;
  if (!r.Get(&m.shard_id) || !r.Get(&seal)) return malformed();
  if (r.position() != *payload_end) return malformed();
  m.seal = seal != 0;
  return m;
}

std::vector<uint8_t> EncodeAccumulatorFrame(const AccumulatorFrameMessage& m) {
  std::vector<uint8_t> buffer;
  Writer w(&buffer);
  WriteHeader(w, MessageKind::kAccumulatorFrame);
  w.Put<uint32_t>(m.shard_id);
  w.Put<uint32_t>(m.num_shards);
  w.Put<uint64_t>(m.epoch);
  w.Put<uint64_t>(m.sequence);
  w.Put<uint64_t>(m.plan_digest);
  w.Put<uint64_t>(m.reports_ingested);
  w.Put<uint8_t>(m.sealed ? 1 : 0);
  w.Put<uint64_t>(m.oracle_section.size());
  w.PutBytes(m.oracle_section.data(), m.oracle_section.size());
  SealChecksum(&buffer, kChecksumSalt);
  return buffer;
}

StatusOr<AccumulatorFrameMessage> DecodeAccumulatorFrame(
    const std::vector<uint8_t>& buffer) {
  DecodeCounters& counters = Counters();
  counters.bytes.Increment(buffer.size());
  const auto payload_end =
      ValidateEnvelope(buffer, MessageKind::kAccumulatorFrame);
  auto malformed = [&counters]() -> Status {
    counters.malformed.Increment();
    return Malformed("malformed accumulator frame");
  };
  if (!payload_end.has_value()) return malformed();
  Reader r(buffer);
  if (!r.Skip(6)) return malformed();
  AccumulatorFrameMessage m;
  uint8_t sealed = 0;
  uint64_t section_len = 0;
  if (!r.Get(&m.shard_id) || !r.Get(&m.num_shards) || !r.Get(&m.epoch) ||
      !r.Get(&m.sequence) || !r.Get(&m.plan_digest) ||
      !r.Get(&m.reports_ingested) || !r.Get(&sealed) ||
      !r.Get(&section_len)) {
    return malformed();
  }
  if (m.num_shards == 0 || m.shard_id >= m.num_shards) return malformed();
  if (section_len != *payload_end - r.position()) return malformed();
  m.sealed = sealed != 0;
  m.oracle_section.assign(buffer.begin() + static_cast<ptrdiff_t>(r.position()),
                          buffer.begin() + static_cast<ptrdiff_t>(*payload_end));
  return m;
}

std::vector<uint8_t> EncodeSnapshot(
    const core::FelipPipeline& pipeline,
    const std::vector<data::AttributeInfo>& schema, uint64_t num_users,
    const core::FelipConfig& config) {
  FELIP_CHECK_MSG(pipeline.finalized(), "snapshot requires Finalize()");
  std::vector<uint8_t> buffer;
  Writer w(&buffer);
  WriteHeader(w, MessageKind::kSnapshot);

  // Layout-affecting configuration.
  w.Put<uint8_t>(static_cast<uint8_t>(config.strategy));
  w.Put<uint8_t>(static_cast<uint8_t>(config.partitioning));
  w.Put<double>(config.epsilon);
  w.Put<double>(config.alpha1);
  w.Put<double>(config.alpha2);
  w.Put<double>(config.default_selectivity);
  w.Put<uint32_t>(static_cast<uint32_t>(config.attribute_selectivity.size()));
  for (const double s : config.attribute_selectivity) w.Put<double>(s);
  w.Put<uint8_t>(config.allow_grr ? 1 : 0);
  w.Put<uint8_t>(config.allow_olh ? 1 : 0);
  w.Put<uint8_t>(config.allow_oue ? 1 : 0);
  w.Put<uint8_t>(config.allow_pgr ? 1 : 0);
  w.Put<uint8_t>(config.allow_fldp ? 1 : 0);
  w.Put<uint64_t>(config.report_budget_bytes);
  // FLDP options shift its variance model, so they affect the layout.
  w.Put<uint32_t>(config.fldp_options.report_bits);
  w.Put<uint32_t>(config.fldp_options.subset_pool_size);
  w.Put<uint64_t>(config.fldp_options.pool_salt);
  w.Put<uint8_t>(config.lambda_quadrant_fit ? 1 : 0);
  w.Put<uint64_t>(num_users);

  // Schema.
  w.Put<uint32_t>(static_cast<uint32_t>(schema.size()));
  for (const data::AttributeInfo& a : schema) {
    w.Put<uint32_t>(static_cast<uint32_t>(a.name.size()));
    w.PutBytes(reinterpret_cast<const uint8_t*>(a.name.data()),
               a.name.size());
    w.Put<uint32_t>(a.domain);
    w.Put<uint8_t>(a.categorical ? 1 : 0);
  }

  // Estimated grid frequencies, assignment order.
  const std::vector<std::vector<double>> grids =
      pipeline.ExportGridFrequencies();
  w.Put<uint32_t>(static_cast<uint32_t>(grids.size()));
  for (const std::vector<double>& f : grids) {
    w.Put<uint32_t>(static_cast<uint32_t>(f.size()));
    for (const double v : f) w.Put<double>(v);
  }
  SealChecksum(&buffer, kChecksumSalt);
  return buffer;
}

namespace {

std::optional<core::FelipPipeline> DecodeSnapshotImpl(
    const std::vector<uint8_t>& buffer) {
  const auto payload_end = ValidateEnvelope(buffer, MessageKind::kSnapshot);
  if (!payload_end.has_value()) return std::nullopt;
  Reader r(buffer);
  uint8_t skip[6];
  if (!r.GetBytes(skip, sizeof(skip))) return std::nullopt;

  core::FelipConfig config;
  uint8_t strategy = 0;
  uint8_t partitioning = 0;
  uint32_t num_selectivities = 0;
  uint8_t allow_grr = 0;
  uint8_t allow_olh = 0;
  uint8_t allow_oue = 0;
  uint8_t allow_pgr = 0;
  uint8_t allow_fldp = 0;
  uint8_t quadrant = 0;
  uint64_t num_users = 0;
  if (!r.Get(&strategy) || !r.Get(&partitioning) || !r.Get(&config.epsilon) ||
      !r.Get(&config.alpha1) || !r.Get(&config.alpha2) ||
      !r.Get(&config.default_selectivity) || !r.Get(&num_selectivities)) {
    return std::nullopt;
  }
  if (strategy > 1 || partitioning > 1) return std::nullopt;
  if (!(config.epsilon > 0.0) || config.epsilon > 100.0) return std::nullopt;
  if (num_selectivities > 4096) return std::nullopt;
  config.strategy = static_cast<core::Strategy>(strategy);
  config.partitioning = static_cast<core::PartitioningMode>(partitioning);
  config.attribute_selectivity.resize(num_selectivities);
  for (double& s : config.attribute_selectivity) {
    if (!r.Get(&s)) return std::nullopt;
  }
  if (!r.Get(&allow_grr) || !r.Get(&allow_olh) || !r.Get(&allow_oue) ||
      !r.Get(&allow_pgr) || !r.Get(&allow_fldp) ||
      !r.Get(&config.report_budget_bytes) ||
      !r.Get(&config.fldp_options.report_bits) ||
      !r.Get(&config.fldp_options.subset_pool_size) ||
      !r.Get(&config.fldp_options.pool_salt) || !r.Get(&quadrant) ||
      !r.Get(&num_users)) {
    return std::nullopt;
  }
  config.allow_grr = allow_grr != 0;
  config.allow_olh = allow_olh != 0;
  config.allow_oue = allow_oue != 0;
  config.allow_pgr = allow_pgr != 0;
  config.allow_fldp = allow_fldp != 0;
  config.lambda_quadrant_fit = quadrant != 0;
  if (!(config.allow_grr || config.allow_olh || config.allow_oue ||
        config.allow_pgr || config.allow_fldp)) {
    return std::nullopt;
  }
  if (config.allow_fldp &&
      (config.fldp_options.report_bits == 0 ||
       config.fldp_options.subset_pool_size == 0)) {
    return std::nullopt;
  }
  if (num_users == 0) return std::nullopt;

  uint32_t num_attributes = 0;
  if (!r.Get(&num_attributes)) return std::nullopt;
  if (num_attributes == 0 || num_attributes > 4096) return std::nullopt;
  std::vector<data::AttributeInfo> schema(num_attributes);
  for (data::AttributeInfo& a : schema) {
    uint32_t name_len = 0;
    if (!r.GetLength(&name_len, 1)) return std::nullopt;
    a.name.resize(name_len);
    if (!r.GetBytes(reinterpret_cast<uint8_t*>(a.name.data()), name_len)) {
      return std::nullopt;
    }
    uint8_t categorical = 0;
    if (!r.Get(&a.domain) || !r.Get(&categorical)) return std::nullopt;
    if (a.domain == 0) return std::nullopt;
    a.categorical = categorical != 0;
  }

  uint32_t num_grids = 0;
  if (!r.Get(&num_grids)) return std::nullopt;
  if (num_grids > 1u << 20) return std::nullopt;
  std::vector<std::vector<double>> grids(num_grids);
  for (std::vector<double>& f : grids) {
    uint32_t cells = 0;
    if (!r.GetLength(&cells, sizeof(double))) return std::nullopt;
    f.resize(cells);
    for (double& v : f) {
      if (!r.Get(&v)) return std::nullopt;
      if (!std::isfinite(v)) return std::nullopt;
    }
  }
  if (r.position() != *payload_end) return std::nullopt;

  // Re-plan and verify the persisted grids fit the layout. A mismatched
  // grid count aborts inside FromEstimatedGrids; catch the cheap case
  // here and let cell-count mismatches be caught by SetFrequencies.
  core::FelipPipeline probe(schema, num_users, config);
  if (probe.assignments().size() != num_grids) return std::nullopt;
  const size_t n1 = probe.grids_1d().size();
  for (size_t g = 0; g < num_grids; ++g) {
    const size_t expected = g < n1
                                ? probe.grids_1d()[g].num_cells()
                                : probe.grids_2d()[g - n1].num_cells();
    if (grids[g].size() != expected) return std::nullopt;
  }
  return core::FelipPipeline::FromEstimatedGrids(
      std::move(schema), num_users, std::move(config), std::move(grids));
}

}  // namespace

StatusOr<core::FelipPipeline> DecodeSnapshot(
    const std::vector<uint8_t>& buffer) {
  obs::ScopedTimer span("felip_wire_decode_snapshot");
  DecodeCounters& counters = Counters();
  counters.bytes.Increment(buffer.size());
  std::optional<core::FelipPipeline> pipeline = DecodeSnapshotImpl(buffer);
  if (!pipeline.has_value()) {
    counters.malformed.Increment();
    return Malformed("malformed snapshot frame");
  }
  return *std::move(pipeline);
}

Status SaveSnapshot(const core::FelipPipeline& pipeline,
                    const std::vector<data::AttributeInfo>& schema,
                    uint64_t num_users, const core::FelipConfig& config,
                    const std::string& path) {
  return storage::WriteFileAtomic(
      path, EncodeSnapshot(pipeline, schema, num_users, config));
}

StatusOr<core::FelipPipeline> LoadSnapshot(const std::string& path) {
  FELIP_ASSIGN_OR_RETURN(const std::vector<uint8_t> buffer,
                         storage::ReadFile(path));
  return DecodeSnapshot(buffer);
}

GridConfigMessage MakeGridConfig(
    const core::FelipPipeline& pipeline,
    const std::vector<data::AttributeInfo>& schema, uint32_t grid_index,
    double epsilon, const fo::ProtocolOptions& options) {
  FELIP_CHECK(grid_index < pipeline.assignments().size());
  const core::GridAssignment& a = pipeline.assignments()[grid_index];
  GridConfigMessage m;
  m.grid_index = grid_index;
  m.is_2d = a.is_2d;
  m.attr_x = a.attr_x;
  m.attr_y = a.attr_y;
  FELIP_CHECK(a.attr_x < schema.size());
  m.domain_x = schema[a.attr_x].domain;
  m.domain_y = a.is_2d ? schema[a.attr_y].domain : 1;
  m.lx = a.plan.lx;
  m.ly = a.is_2d ? a.plan.ly : 1;
  m.protocol = a.plan.protocol;
  m.epsilon = epsilon;
  if (a.plan.protocol == fo::Protocol::kOlh) {
    m.seed_pool_size = options.olh.seed_pool_size;
    m.pool_salt = options.olh.pool_salt;
  }
  if (a.plan.protocol == fo::Protocol::kFldp) {
    m.fldp_report_bits = options.fldp.report_bits;
    m.fldp_pool_size = options.fldp.subset_pool_size;
    m.fldp_salt = options.fldp.pool_salt;
  }
  return m;
}

}  // namespace felip::wire
