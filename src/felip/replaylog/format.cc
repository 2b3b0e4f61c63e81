#include "felip/replaylog/format.h"

#include <cstring>
#include <utility>

#include "felip/common/check.h"
#include "felip/common/hash.h"
#include "felip/wire/framing.h"

namespace felip::replaylog {

namespace {

Status Damaged(const char* what) { return Status::DataLoss(what); }

// Fixed prefix of a record before its payload: type + payload_len + key.
constexpr size_t kRecordPrefixBytes =
    sizeof(uint8_t) + sizeof(uint32_t) + sizeof(uint64_t);

}  // namespace

std::vector<uint8_t> EncodeSegmentHeader(const std::vector<uint8_t>& plan) {
  FELIP_CHECK_MSG(plan.size() <= kMaxPlanBytes,
                  "replay log plan exceeds kMaxPlanBytes");
  std::vector<uint8_t> header;
  wire::Writer w(&header);
  w.Put<uint32_t>(kMagic);
  w.Put<uint8_t>(kFormatVersion);
  w.Put<uint32_t>(static_cast<uint32_t>(plan.size()));
  w.PutBytes(plan.data(), plan.size());
  wire::SealChecksum(&header, kChecksumSalt);
  return header;
}

void AppendRecord(std::vector<uint8_t>* out, RecordType type, uint64_t key,
                  std::span<const uint8_t> payload) {
  FELIP_CHECK_MSG(payload.size() <= kMaxRecordPayloadBytes,
                  "replay log record exceeds kMaxRecordPayloadBytes");
  const size_t start = out->size();
  wire::Writer w(out);
  w.Put<uint8_t>(static_cast<uint8_t>(type));
  w.Put<uint32_t>(static_cast<uint32_t>(payload.size()));
  w.Put<uint64_t>(key);
  w.PutBytes(payload.data(), payload.size());
  const uint64_t checksum =
      XxHash64Bytes(out->data() + start, out->size() - start, kChecksumSalt);
  w.Put<uint64_t>(checksum);
}

StatusOr<SegmentParser> SegmentParser::Open(std::vector<uint8_t> bytes) {
  wire::Reader r(bytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint32_t plan_len = 0;
  if (!r.Get(&magic) || magic != kMagic) {
    return Damaged("replay log segment has no FRLG magic");
  }
  if (!r.Get(&version) || version != kFormatVersion) {
    return Damaged("replay log segment has an unsupported version");
  }
  if (!r.GetLength(&plan_len, 1) || plan_len > kMaxPlanBytes) {
    return Damaged("replay log segment header is truncated");
  }
  std::vector<uint8_t> plan(plan_len);
  if (!r.GetBytes(plan.data(), plan_len)) {
    return Damaged("replay log segment header is truncated");
  }
  uint64_t stored = 0;
  const size_t sealed = r.position();
  if (!r.Get(&stored)) {
    return Damaged("replay log segment header is truncated");
  }
  if (XxHash64Bytes(bytes.data(), sealed, kChecksumSalt) != stored) {
    return Damaged("replay log segment header fails its checksum");
  }
  const size_t records_start = r.position();
  return SegmentParser(std::move(bytes), std::move(plan), records_start);
}

StatusOr<bool> SegmentParser::Next(LogRecord* record) {
  if (pos_ == bytes_.size()) return false;  // clean end of segment

  const size_t remaining = bytes_.size() - pos_;
  if (remaining < kRecordPrefixBytes + sizeof(uint64_t)) {
    return Damaged("replay log record is torn at end of segment");
  }
  uint8_t type = 0;
  uint32_t payload_len = 0;
  uint64_t key = 0;
  std::memcpy(&type, bytes_.data() + pos_, sizeof(type));
  std::memcpy(&payload_len, bytes_.data() + pos_ + sizeof(type),
              sizeof(payload_len));
  std::memcpy(&key, bytes_.data() + pos_ + sizeof(type) + sizeof(payload_len),
              sizeof(key));
  if (type != static_cast<uint8_t>(RecordType::kBatch)) {
    return Damaged("replay log record has an unknown type");
  }
  if (payload_len > kMaxRecordPayloadBytes ||
      remaining - kRecordPrefixBytes - sizeof(uint64_t) <
          static_cast<size_t>(payload_len)) {
    return Damaged("replay log record is torn at end of segment");
  }
  const size_t body = kRecordPrefixBytes + payload_len;
  uint64_t stored = 0;
  std::memcpy(&stored, bytes_.data() + pos_ + body, sizeof(stored));
  if (XxHash64Bytes(bytes_.data() + pos_, body, kChecksumSalt) != stored) {
    return Damaged("replay log record fails its checksum");
  }
  record->type = static_cast<RecordType>(type);
  record->key = key;
  record->payload.assign(bytes_.data() + pos_ + kRecordPrefixBytes,
                         bytes_.data() + pos_ + body);
  pos_ += body + sizeof(uint64_t);
  return true;
}

}  // namespace felip::replaylog
