#include "felip/wire/wire.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "felip/common/check.h"
#include "felip/common/hash.h"
#include "felip/common/parallel.h"
#include "felip/fo/pgr.h"
#include "felip/fo/registry.h"
#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/wire/framing.h"

namespace felip::wire {

namespace {

enum class MessageKind : uint8_t {
  // Retired kinds; never reuse them for another kind:
  //   1 the grid-config frame (devices get their GridConfigMessage from
  //     the planned pipeline; nothing sent it);
  //   2 the single-report frame, replaced by one-record report batches;
  //   3 the record-per-report batch frame, replaced by kReportRuns;
  //   4 the single-frame snapshot, replaced by the FSNP container
  //     (felip/snapshot).
  kQueryBatch = 5,
  kQueryResponse = 6,
  kAccumulatorPull = 7,
  kAccumulatorFrame = 8,
  kWindowedQuery = 9,
  kReportRuns = 10,
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

// Verifies magic/version/kind and the frame's minimum size, not the
// checksum; on success returns the payload end (the checksum trailer
// stripped from the logical payload length).
std::optional<size_t> CheckHeader(const std::vector<uint8_t>& buffer,
                                  MessageKind expected_kind) {
  if (buffer.size() < kHeaderBytes + kTrailerBytes) return std::nullopt;
  uint32_t magic = 0;
  std::memcpy(&magic, buffer.data(), sizeof(magic));
  if (magic != kMagic) return std::nullopt;
  if (buffer[4] != kVersion) return std::nullopt;
  if (buffer[5] != static_cast<uint8_t>(expected_kind)) return std::nullopt;
  return buffer.size() - kTrailerBytes;
}

// CheckHeader plus the trailing checksum.
std::optional<size_t> ValidateEnvelope(const std::vector<uint8_t>& buffer,
                                       MessageKind expected_kind) {
  if (!CheckSealedChecksum(buffer, kChecksumSalt)) return std::nullopt;
  return CheckHeader(buffer, expected_kind);
}

// Per-protocol received-report byte counters
// (felip_fo_report_bytes_total_<protocol>), indexed by protocol byte and
// cached once per process. Incremented only for frames that validated
// whole, so every accepted report is counted exactly once. The measured
// bytes are a run's records, not its header, so per report the counter
// stays at or below ProtocolTraits::report_bytes — the upper bound AFO
// budgets against.
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

// --- Report-batch frames: grid runs (layout in wire.h) ---

// Per-protocol sums of received record bytes, indexed by protocol byte.
// A validator adds each run's records here and hands the sums to
// CountReportBytes only once its whole frame has validated, so a rejected
// frame counts nothing.
using ReportBodyBytes = std::array<uint64_t, fo::kNumProtocols>;

void CountReportBytes(const ReportBodyBytes& body_bytes) {
  for (size_t p = 0; p < body_bytes.size(); ++p) {
    if (body_bytes[p] != 0) {
      ReportBytesCounter(static_cast<fo::Protocol>(p))
          .Increment(body_bytes[p]);
    }
  }
}

// Everything a run header says about its records: the protocol byte (the
// payload's alternative index), whether an OLH run is pooled, each
// fixed-width field's byte width in record order, and the bit length of
// bit-vector payloads.
struct RunShape {
  uint8_t protocol = 0;
  bool pooled = false;
  std::array<uint8_t, 2> widths{};
  uint32_t bits = 0;

  // Spelled out: the defaulted comparison compares `widths` through a
  // memcmp call, which the encoder's per-report shape check pays for.
  friend bool operator==(const RunShape& a, const RunShape& b) {
    return a.protocol == b.protocol && a.pooled == b.pooled &&
           a.widths[0] == b.widths[0] && a.widths[1] == b.widths[1] &&
           a.bits == b.bits;
  }
};

// A payload type's record layout: how many fixed-width fields a record
// has, the widest each may be (the size of the member it decodes into),
// whether a packed bit vector follows them, and whether the run header
// carries a pooled byte.
struct RecordLayout {
  size_t fields = 0;
  std::array<uint8_t, 2> max_width{};
  bool bits = false;
  bool pooled_byte = false;
};

bool ValidWidth(uint8_t width, uint8_t max_width) {
  return (width == 1 || width == 2 || width == 4 || width == 8) &&
         width <= max_width;
}

// Smallest field width that holds `value`.
uint8_t WidthOf(uint64_t value) {
  if (value <= 0xff) return 1;
  if (value <= 0xffff) return 2;
  if (value <= 0xffffffffu) return 4;
  return 8;
}

// Bytes a packed bit vector of `bits` bits takes: at least one, so no
// record is ever zero bytes and every run count is bounded by the bytes
// present.
size_t PackedBytes(uint32_t bits) {
  return bits == 0 ? 1 : (static_cast<size_t>(bits) + 7) / 8;
}

uint8_t* PutField(uint8_t* at, uint64_t value, uint8_t width) {
  switch (width) {
    case 1:
      return PutAt<uint8_t>(at, static_cast<uint8_t>(value));
    case 2:
      return PutAt<uint16_t>(at, static_cast<uint16_t>(value));
    case 4:
      return PutAt<uint32_t>(at, static_cast<uint32_t>(value));
    default:
      return PutAt<uint64_t>(at, value);
  }
}

uint64_t LoadField(const uint8_t* at, uint8_t width) {
  switch (width) {
    case 1:
      return at[0];
    case 2: {
      uint16_t value = 0;
      std::memcpy(&value, at, sizeof(value));
      return value;
    }
    case 4: {
      uint32_t value = 0;
      std::memcpy(&value, at, sizeof(value));
      return value;
    }
    default: {
      uint64_t value = 0;
      std::memcpy(&value, at, sizeof(value));
      return value;
    }
  }
}

uint32_t BitCount(const std::vector<uint8_t>& bits) {
  FELIP_CHECK_MSG(bits.size() <= UINT32_MAX, "bit vector too long to frame");
  return static_cast<uint32_t>(bits.size());
}

uint8_t* PutBits(uint8_t* at, const std::vector<uint8_t>& bits) {
  const size_t bytes = PackedBytes(BitCount(bits));
  std::memset(at, 0, bytes);
  for (size_t j = 0; j < bits.size(); ++j) {
    at[j >> 3] |= static_cast<uint8_t>((bits[j] != 0 ? 1 : 0) << (j & 7));
  }
  return at + bytes;
}

const uint8_t* LoadBits(const uint8_t* at, uint32_t count,
                        std::vector<uint8_t>* bits) {
  bits->resize(count);
  uint8_t* out = bits->data();
  for (uint32_t j = 0; j < count; ++j) {
    out[j] = static_cast<uint8_t>((at[j >> 3] >> (j & 7)) & 1);
  }
  return at + PackedBytes(count);
}

// True when the pad bits of the packed vector at `at` are zero: the bits
// of its last byte past its length, all eight for the one byte an empty
// vector takes.
bool PadBitsClear(const uint8_t* at, uint32_t bits) {
  const unsigned used = bits % 8;
  const uint8_t last = at[PackedBytes(bits) - 1];
  if (bits == 0) return last == 0;
  return used == 0 || (last >> used) == 0;
}

// The record codec of each fo::ReportPayload alternative, chosen by the
// payload's type, so nothing in this file enumerates protocols: the
// protocol byte indexes tables built from these. Each has
//   Layout(pooled)        its RecordLayout;
//   Shape(payload, f)     the payload's run shape (widths unset), its
//                         field values stored in f in record order;
//   Put(at, payload, s)   writes one record of shape s;
//   Load(at, s, payload)  reads one;
//   Valid(at, s)          the checks one record's widths cannot express.
template <typename T>
struct RecordCodec;

using Fields = std::array<uint64_t, 2>;

// A GRR value (uint64_t) or a PGR point (uint32_t): one field, at most as
// wide as the type.
template <typename T>
  requires std::is_unsigned_v<T>
struct RecordCodec<T> {
  static constexpr RecordLayout Layout(bool) { return {1, {sizeof(T), 0}}; }
  static RunShape Shape(T value, Fields* f) {
    (*f)[0] = value;
    return {};
  }
  static uint8_t* Put(uint8_t* at, T value, const RunShape& s) {
    return PutField(at, value, s.widths[0]);
  }
  static const uint8_t* Load(const uint8_t* at, const RunShape& s, T* value) {
    *value = static_cast<T>(LoadField(at, s.widths[0]));
    return at + s.widths[0];
  }
  static bool Valid(const uint8_t*, const RunShape&) { return true; }
};

// Pool index (pooled) or seed (per-user), then the hashed report. A
// pooled seed is PoolSeed(pool index), which the server derives itself,
// so it is not sent and decodes as 0.
template <>
struct RecordCodec<fo::OlhReport> {
  static constexpr RecordLayout Layout(bool pooled) {
    return {2, {static_cast<uint8_t>(pooled ? 4 : 8), 4}, false, true};
  }
  static RunShape Shape(const fo::OlhReport& r, Fields* f) {
    RunShape shape;
    shape.pooled = r.seed_index != fo::OlhReport::kNoPool;
    (*f)[0] = shape.pooled ? r.seed_index : r.seed;
    (*f)[1] = r.hashed_report;
    return shape;
  }
  static uint8_t* Put(uint8_t* at, const fo::OlhReport& r,
                      const RunShape& s) {
    at = PutField(at, s.pooled ? r.seed_index : r.seed, s.widths[0]);
    return PutField(at, r.hashed_report, s.widths[1]);
  }
  static const uint8_t* Load(const uint8_t* at, const RunShape& s,
                             fo::OlhReport* r) {
    const uint64_t key = LoadField(at, s.widths[0]);
    r->hashed_report =
        static_cast<uint32_t>(LoadField(at + s.widths[0], s.widths[1]));
    r->seed = s.pooled ? 0 : key;
    r->seed_index =
        s.pooled ? static_cast<uint32_t>(key) : fo::OlhReport::kNoPool;
    return at + s.widths[0] + s.widths[1];
  }
  // A pooled index of kNoPool would decode as a per-user report.
  static bool Valid(const uint8_t* at, const RunShape& s) {
    return !s.pooled || s.widths[0] < 4 ||
           LoadField(at, 4) != fo::OlhReport::kNoPool;
  }
};

template <>
struct RecordCodec<std::vector<uint8_t>> {  // packed bits
  static constexpr RecordLayout Layout(bool) { return {0, {0, 0}, true}; }
  static RunShape Shape(const std::vector<uint8_t>& bits, Fields*) {
    RunShape shape;
    shape.bits = BitCount(bits);
    return shape;
  }
  static uint8_t* Put(uint8_t* at, const std::vector<uint8_t>& bits,
                      const RunShape&) {
    return PutBits(at, bits);
  }
  static const uint8_t* Load(const uint8_t* at, const RunShape& s,
                             std::vector<uint8_t>* bits) {
    return LoadBits(at, s.bits, bits);
  }
  static bool Valid(const uint8_t* at, const RunShape& s) {
    return PadBitsClear(at, s.bits);
  }
};

template <>
struct RecordCodec<fo::FldpReport> {  // subset index, then packed bits
  static constexpr RecordLayout Layout(bool) { return {1, {4, 0}, true}; }
  static RunShape Shape(const fo::FldpReport& r, Fields* f) {
    RunShape shape;
    (*f)[0] = r.subset_index;
    shape.bits = BitCount(r.bits);
    return shape;
  }
  static uint8_t* Put(uint8_t* at, const fo::FldpReport& r,
                      const RunShape& s) {
    return PutBits(PutField(at, r.subset_index, s.widths[0]), r.bits);
  }
  static const uint8_t* Load(const uint8_t* at, const RunShape& s,
                             fo::FldpReport* r) {
    r->subset_index = static_cast<uint32_t>(LoadField(at, s.widths[0]));
    return LoadBits(at + s.widths[0], s.bits, &r->bits);
  }
  static bool Valid(const uint8_t* at, const RunShape& s) {
    return PadBitsClear(at + s.widths[0], s.bits);
  }
};

template <size_t I>
using Codec = RecordCodec<std::variant_alternative_t<I, fo::ReportPayload>>;

struct RunHeader {
  uint32_t grid = 0;
  uint32_t count = 0;
  RunShape shape;
};

// One run the encoder writes: its grid and shape, and its reports,
// the batch's [begin, begin + count).
struct EncodedRun {
  uint32_t grid = 0;
  size_t begin = 0;
  size_t count = 0;
  RunShape shape;
};

// The per-alternative steps the frame code dispatches to by protocol
// byte. Each loops over a whole run, so the loops over records are
// specialized per payload type.
template <size_t I>
struct RunOps {
  // Cuts the run that starts at reports[run->begin]: the reports from
  // there on that share the first one's grid and shape. Sets the run's
  // shape and count, and sizes its fields' widths: each the width of the
  // OR of the field's values, which is the width of their maximum.
  static void Scan(const std::vector<ReportMessage>& reports,
                   EncodedRun* run) {
    Fields field_bits{};
    size_t k = run->begin;
    for (; k < reports.size(); ++k) {
      const ReportMessage& m = reports[k];
      const auto* payload = std::get_if<I>(&m.payload);
      if (payload == nullptr || m.grid_index != run->grid) break;
      Fields fields{};
      RunShape shape = Codec<I>::Shape(*payload, &fields);
      shape.protocol = static_cast<uint8_t>(I);
      if (k == run->begin) {
        run->shape = shape;
      } else if (!(shape == run->shape)) {
        break;
      }
      field_bits[0] |= fields[0];
      field_bits[1] |= fields[1];
    }
    run->count = k - run->begin;
    const RecordLayout layout = Codec<I>::Layout(run->shape.pooled);
    for (size_t f = 0; f < layout.fields; ++f) {
      run->shape.widths[f] = WidthOf(field_bits[f]);
    }
  }
  static uint8_t* Put(uint8_t* at, const EncodedRun& run,
                      const std::vector<ReportMessage>& reports) {
    for (size_t k = run.begin; k < run.begin + run.count; ++k) {
      at = Codec<I>::Put(at, *std::get_if<I>(&reports[k].payload),
                         run.shape);
    }
    return at;
  }
  static bool Valid(const uint8_t* at, const RunHeader& header,
                    size_t record_bytes) {
    for (uint32_t k = 0; k < header.count; ++k, at += record_bytes) {
      if (!Codec<I>::Valid(at, header.shape)) return false;
    }
    return true;
  }
  // Decodes `n` records at `at` into out[0, n), keeping the storage of a
  // payload that already holds the alternative (a reused chunk buffer).
  static const uint8_t* Load(const uint8_t* at, const RunHeader& header,
                             size_t n, ReportMessage* out) {
    for (size_t k = 0; k < n; ++k) {
      ReportMessage& m = out[k];
      m.grid_index = header.grid;
      auto* held = std::get_if<I>(&m.payload);
      at = Codec<I>::Load(at, header.shape,
                          held != nullptr ? held : &m.payload.emplace<I>());
    }
    return at;
  }
};

struct RunOpsRow {
  std::array<RecordLayout, 2> layout;  // indexed by the pooled flag
  void (*scan)(const std::vector<ReportMessage>&, EncodedRun*);
  uint8_t* (*put)(uint8_t*, const EncodedRun&,
                  const std::vector<ReportMessage>&);
  bool (*valid)(const uint8_t*, const RunHeader&, size_t);
  const uint8_t* (*load)(const uint8_t*, const RunHeader&, size_t,
                         ReportMessage*);
};

template <size_t... I>
constexpr std::array<RunOpsRow, sizeof...(I)> MakeRunOps(
    std::index_sequence<I...>) {
  return {RunOpsRow{{Codec<I>::Layout(false), Codec<I>::Layout(true)},
                    &RunOps<I>::Scan, &RunOps<I>::Put, &RunOps<I>::Valid,
                    &RunOps<I>::Load}...};
}

// Indexed by protocol byte.
constexpr std::array<RunOpsRow, fo::kNumProtocols> kRunOps =
    MakeRunOps(std::make_index_sequence<fo::kNumProtocols>());

const RecordLayout& LayoutOf(const RunShape& shape) {
  return kRunOps[shape.protocol].layout[shape.pooled ? 1 : 0];
}

size_t RecordBytes(const RunShape& shape) {
  const RecordLayout& layout = LayoutOf(shape);
  size_t bytes = 0;
  for (size_t f = 0; f < layout.fields; ++f) bytes += shape.widths[f];
  return layout.bits ? bytes + PackedBytes(shape.bits) : bytes;
}

// grid u32, protocol u8, count u32, the pooled byte, one byte per field
// width, the bit length u32.
size_t RunHeaderBytes(const RunShape& shape) {
  const RecordLayout& layout = LayoutOf(shape);
  return 4 + 1 + 4 + (layout.pooled_byte ? 1 : 0) + layout.fields +
         (layout.bits ? 4 : 0);
}

// The smallest run: its header with one width byte, and one 1-byte
// record.
constexpr size_t kMinRunBytes = 4 + 1 + 4 + 1 + 1;

uint8_t* PutRunHeader(uint8_t* at, const EncodedRun& run) {
  const RunShape& shape = run.shape;
  const RecordLayout& layout = LayoutOf(shape);
  at = PutAt<uint32_t>(at, run.grid);
  at = PutAt<uint8_t>(at, shape.protocol);
  at = PutAt<uint32_t>(at, static_cast<uint32_t>(run.count));
  if (layout.pooled_byte) at = PutAt<uint8_t>(at, shape.pooled ? 1 : 0);
  for (size_t f = 0; f < layout.fields; ++f) {
    at = PutAt<uint8_t>(at, shape.widths[f]);
  }
  return layout.bits ? PutAt<uint32_t>(at, shape.bits) : at;
}

// Bounds-checked little-endian reads over [at, end).
struct ByteCursor {
  const uint8_t* at = nullptr;
  const uint8_t* end = nullptr;

  template <typename T>
  bool Get(T* value) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(value, at, sizeof(T));
    at += sizeof(T);
    return true;
  }
  size_t remaining() const { return static_cast<size_t>(end - at); }
};

// Reads one run header: a known protocol, a nonzero count, a pooled byte
// of 0 or 1, and every width in {1, 2, 4, 8} and no wider than its field.
bool ReadRunHeader(ByteCursor& c, RunHeader* header) {
  RunShape& shape = header->shape;
  shape = RunShape{};
  if (!c.Get(&header->grid) || !c.Get(&shape.protocol) ||
      !c.Get(&header->count)) {
    return false;
  }
  if (!fo::KnownProtocolByte(shape.protocol) || header->count == 0) {
    return false;
  }
  if (kRunOps[shape.protocol].layout[0].pooled_byte) {
    uint8_t pooled = 0;
    if (!c.Get(&pooled) || pooled > 1) return false;
    shape.pooled = pooled == 1;
  }
  const RecordLayout& layout = LayoutOf(shape);
  for (size_t f = 0; f < layout.fields; ++f) {
    if (!c.Get(&shape.widths[f]) ||
        !ValidWidth(shape.widths[f], layout.max_width[f])) {
      return false;
    }
  }
  return !layout.bits || c.Get(&shape.bits);
}

// A report-batch frame's run section, structurally validated.
struct ValidatedRuns {
  ByteCursor runs;
  size_t reports = 0;
};

// Validates a report-batch frame: its header (and its checksum when
// `verify_checksum`), the run count against the bytes present, every run
// header, each run's records against the bytes left, each record's
// checks, and an exact end at the trailer. Nothing is allocated. The
// per-protocol byte counters move only for a frame that validates.
std::optional<ValidatedRuns> ValidateReportBatch(
    const std::vector<uint8_t>& buffer, bool verify_checksum) {
  const std::optional<size_t> payload_end =
      verify_checksum ? ValidateEnvelope(buffer, MessageKind::kReportRuns)
                      : CheckHeader(buffer, MessageKind::kReportRuns);
  if (!payload_end.has_value()) return std::nullopt;
  ByteCursor c{buffer.data() + kHeaderBytes, buffer.data() + *payload_end};
  const ByteCursor runs = c;
  uint32_t run_count = 0;
  if (!c.Get(&run_count) ||
      static_cast<uint64_t>(run_count) * kMinRunBytes > c.remaining()) {
    return std::nullopt;
  }
  ReportBodyBytes body_bytes{};
  size_t reports = 0;
  for (uint32_t r = 0; r < run_count; ++r) {
    RunHeader header;
    if (!ReadRunHeader(c, &header)) return std::nullopt;
    const size_t record_bytes = RecordBytes(header.shape);
    const uint64_t bytes = static_cast<uint64_t>(header.count) * record_bytes;
    if (bytes > c.remaining() ||
        !kRunOps[header.shape.protocol].valid(c.at, header, record_bytes)) {
      return std::nullopt;
    }
    body_bytes[header.shape.protocol] += bytes;
    c.at += bytes;
    reports += header.count;
  }
  if (c.remaining() != 0) return std::nullopt;
  CountReportBytes(body_bytes);
  return ValidatedRuns{runs, reports};
}

// Decodes a validated run section in frame order, any number of reports
// at a time.
class RunReader {
 public:
  explicit RunReader(ByteCursor runs) : c_(runs) {
    FELIP_CHECK(c_.Get(&runs_left_));
  }

  // Decodes up to `capacity` next reports into out[0, capacity) and
  // returns how many (0 once the section is done). Adds the bits decoded
  // to *bits.
  size_t Next(ReportMessage* out, size_t capacity, size_t* bits) {
    size_t filled = 0;
    while (filled < capacity) {
      if (left_in_run_ == 0) {
        if (runs_left_ == 0) break;
        FELIP_CHECK(ReadRunHeader(c_, &header_));
        --runs_left_;
        left_in_run_ = header_.count;
      }
      const size_t take = std::min<size_t>(left_in_run_, capacity - filled);
      c_.at = kRunOps[header_.shape.protocol].load(c_.at, header_, take,
                                                   out + filled);
      *bits += take * header_.shape.bits;
      filled += take;
      left_in_run_ -= static_cast<uint32_t>(take);
    }
    return filled;
  }

 private:
  ByteCursor c_;
  uint32_t runs_left_ = 0;
  uint32_t left_in_run_ = 0;
  RunHeader header_;
};

}  // namespace

// A ReportBatch frame is a run count and then its runs. The batch is cut
// into runs in its own order, a new run wherever the grid or the report
// shape changes, and the runs are sized first, trailer included, so the
// frame is allocated once with capacity() == size() and written through
// one cursor.
std::vector<uint8_t> EncodeReportBatch(
    const std::vector<ReportMessage>& reports) {
  FELIP_CHECK_MSG(reports.size() <= UINT32_MAX,
                  "report batch too large to frame");
  std::vector<EncodedRun> runs;
  size_t size = kHeaderBytes + sizeof(uint32_t) + kTrailerBytes;
  for (size_t k = 0; k < reports.size();) {
    const ReportMessage& first = reports[k];
    EncodedRun run{first.grid_index, k};
    kRunOps[first.payload.index()].scan(reports, &run);
    size += RunHeaderBytes(run.shape) + run.count * RecordBytes(run.shape);
    k += run.count;
    runs.push_back(run);
  }

  std::vector<uint8_t> buffer(size);
  uint8_t* at = PutHeader(buffer.data(), MessageKind::kReportRuns);
  at = PutAt<uint32_t>(at, static_cast<uint32_t>(runs.size()));
  for (const EncodedRun& run : runs) {
    at = PutRunHeader(at, run);
    at = kRunOps[run.shape.protocol].put(at, run, reports);
  }
  at = PutChecksumAt(buffer.data(), at, kChecksumSalt);
  FELIP_CHECK_MSG(at == buffer.data() + buffer.size(),
                  "report frame size disagrees with its runs");
  return buffer;
}

StatusOr<std::vector<ReportMessage>> DecodeReportBatch(
    const std::vector<uint8_t>& buffer) {
  obs::ScopedTimer span("felip_wire_decode_batch");
  DecodeCounters& counters = Counters();
  counters.bytes.Increment(buffer.size());
  const std::optional<ValidatedRuns> valid =
      ValidateReportBatch(buffer, /*verify_checksum=*/true);
  if (!valid.has_value()) {
    counters.malformed.Increment();
    return Malformed("malformed report-batch frame");
  }
  std::vector<ReportMessage> reports(valid->reports);
  size_t bits = 0;
  RunReader(valid->runs).Next(reports.data(), reports.size(), &bits);
  counters.batches.Increment();
  counters.reports.Increment(reports.size());
  return reports;
}

ReportChunkDecoder::ReportChunkDecoder() : chunk_(kReportChunkSize) {}

Status ReportChunkDecoder::Validate(const std::vector<uint8_t>& frame) {
  DecodeCounters& counters = Counters();
  counters.bytes.Increment(frame.size());
  runs_ = nullptr;
  report_count_ = 0;
  const std::optional<ValidatedRuns> valid =
      ValidateReportBatch(frame, /*verify_checksum=*/false);
  if (!valid.has_value()) {
    counters.malformed.Increment();
    return Malformed("malformed report-batch frame");
  }
  runs_ = valid->runs.at;
  runs_end_ = valid->runs.end;
  report_count_ = valid->reports;
  counters.batches.Increment();
  counters.reports.Increment(report_count_);
  return Status::Ok();
}

void ReportChunkDecoder::Decode(
    const std::function<void(std::span<const ReportMessage>)>& fn) {
  FELIP_CHECK_MSG(runs_ != nullptr, "Decode() without a validated frame");
  RunReader reader(ByteCursor{runs_, runs_end_});
  runs_ = nullptr;
  while (true) {
    const size_t filled =
        reader.Next(chunk_.data(), chunk_.size(), &retained_bit_bytes_);
    if (filled == 0) break;
    fn(std::span<const ReportMessage>(chunk_.data(), filled));
  }
  // One byte per decoded bit is what the chunk's bit vectors can hold on
  // to; past the cap, drop them.
  if (retained_bit_bytes_ > kRetainedBitBytes) {
    for (ReportMessage& m : chunk_) m.payload = uint64_t{0};
    retained_bit_bytes_ = 0;
  }
}

size_t ReportBatchShardCount(size_t count) { return ReduceShardCount(count); }

StatusOr<size_t> DecodeReportBatchSharded(
    const std::vector<uint8_t>& buffer,
    const std::function<void(size_t shard_index, size_t report_index,
                             ReportMessage&& message)>& sink,
    unsigned thread_count) {
  StatusOr<std::vector<ReportMessage>> decoded = DecodeReportBatch(buffer);
  FELIP_RETURN_IF_ERROR(decoded.status());
  std::vector<ReportMessage>& reports = *decoded;
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
