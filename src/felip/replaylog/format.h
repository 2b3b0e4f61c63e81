// Append-only privatized report log: segment byte format.
//
// Reports leaving FELIP clients are already LDP-perturbed, so persisting
// them verbatim is privacy-safe — and a frozen log of every drained batch
// is exactly what offline estimator comparison needs: one corpus, many
// post-processing configurations, all digest-compared (see
// felip/replaylog/replay.h and docs/replay.md).
//
// A segment is one file:
//
//   header:  [magic u32 'FRLG'] [version u8] [plan_len u32] [plan bytes]
//            [xxHash64 over the header bytes, salted]
//   records: [type u8] [payload_len u32] [key u64] [payload bytes]
//            [xxHash64 over the record bytes, salted]  ... repeated
//
// The plan blob (felip/replaylog/replay.h: EncodePlan) carries the full
// FelipConfig + population size + schema, so a segment replays with no
// out-of-band context; every segment of one log carries byte-identical
// plan bytes. A kBatch record's payload is a complete encoded
// wire::ReportBatch frame — envelope and checksum trailer untouched — and
// its key is that trailer, the batch's idempotency key.
//
// Truncation semantics are the format's contract (and what
// tests/replaylog pins): the log is appended a whole record at a time, so
// a reader either consumes a complete checksum-valid record or stops at
// the last good record boundary with kDataLoss. No prefix of a valid
// segment ever yields a torn record, and no bit flip survives the
// per-record seal.

#ifndef FELIP_REPLAYLOG_FORMAT_H_
#define FELIP_REPLAYLOG_FORMAT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "felip/common/status.h"

namespace felip::replaylog {

inline constexpr uint32_t kMagic = 0x46524c47;  // "FRLG"
// Version 2: kBatch payloads are grid-run report frames (wire.h). A
// version-1 segment, whose payloads are the retired record-per-report
// frames, fails at its header instead of replaying every batch as
// undecodable.
inline constexpr uint8_t kFormatVersion = 2;
// Salt of every xxHash64 seal in this format ("rlogcsum"). Distinct from
// the wire and snapshot salts, so bytes can never verify as the wrong
// kind of artifact.
inline constexpr uint64_t kChecksumSalt = 0x726c6f67'6373756dULL;

// Screens length prefixes before any allocation; both are far above
// anything the writers produce.
inline constexpr uint32_t kMaxPlanBytes = 1u << 20;
inline constexpr uint32_t kMaxRecordPayloadBytes = 1u << 26;

enum class RecordType : uint8_t {
  kBatch = 1,  // payload = one encoded wire::ReportBatch frame
};

// Serialized segment header for `plan` (which must fit kMaxPlanBytes).
std::vector<uint8_t> EncodeSegmentHeader(const std::vector<uint8_t>& plan);

// Appends one sealed record to `out`.
void AppendRecord(std::vector<uint8_t>* out, RecordType type, uint64_t key,
                  std::span<const uint8_t> payload);

struct LogRecord {
  RecordType type = RecordType::kBatch;
  uint64_t key = 0;
  std::vector<uint8_t> payload;
};

// Sequential record reader over one segment's bytes. Never aborts:
// segment bytes come from disk and may be truncated (a crash mid-append)
// or corrupt.
class SegmentParser {
 public:
  // Verifies the header. kDataLoss when the magic, version, plan bounds,
  // or header seal don't check out — a file this damaged carries nothing
  // trustworthy.
  static StatusOr<SegmentParser> Open(std::vector<uint8_t> bytes);

  // The plan bytes the header carries.
  const std::vector<uint8_t>& plan() const { return plan_; }

  // Consumes the next record. True: *record is complete and checksum-
  // valid. False: clean end of segment, exactly at a record boundary.
  // kDataLoss: the tail is torn or corrupt; iteration is over and the
  // previous record boundary is final.
  StatusOr<bool> Next(LogRecord* record);

  // Byte offset of the next unconsumed record (= the end of the last
  // cleanly read one).
  size_t position() const { return pos_; }

 private:
  SegmentParser(std::vector<uint8_t> bytes, std::vector<uint8_t> plan,
                size_t pos)
      : bytes_(std::move(bytes)), plan_(std::move(plan)), pos_(pos) {}

  std::vector<uint8_t> bytes_;
  std::vector<uint8_t> plan_;
  size_t pos_ = 0;
};

}  // namespace felip::replaylog

#endif  // FELIP_REPLAYLOG_FORMAT_H_
