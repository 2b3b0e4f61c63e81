// Report-log segment bytes for the replaylog tests, written and read by
// the layout felip/replaylog/store.h documents: an FSNP header with state
// byte kLogSegment, the kConfig and kSchema plan sections, then kBatch
// sections of [key u64][frame]. A section with any other id where a batch
// belongs is damage, exactly as replay treats it.

#ifndef FELIP_TESTS_SUPPORT_LOG_SEGMENTS_H_
#define FELIP_TESTS_SUPPORT_LOG_SEGMENTS_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "felip/snapshot/format.h"

namespace felip::test_support {

struct LoggedBatch {
  uint64_t key = 0;
  std::vector<uint8_t> frame;

  friend bool operator==(const LoggedBatch&, const LoggedBatch&) = default;
};

inline void AppendBatch(std::vector<uint8_t>* out, uint64_t key,
                        std::span<const uint8_t> frame) {
  uint8_t key_bytes[sizeof(key)];
  std::memcpy(key_bytes, &key, sizeof(key));
  snapshot::AppendSection(out, snapshot::SectionId::kBatch,
                          {key_bytes, frame});
}

// Header, `plan` (replaylog::EncodePlan's bytes), then every batch.
inline std::vector<uint8_t> EncodeLogSegment(
    const std::vector<uint8_t>& plan,
    const std::vector<LoggedBatch>& batches) {
  std::vector<uint8_t> bytes;
  snapshot::AppendHeader(&bytes, snapshot::kLogSegment);
  bytes.insert(bytes.end(), plan.begin(), plan.end());
  for (const LoggedBatch& batch : batches) {
    AppendBatch(&bytes, batch.key, batch.frame);
  }
  return bytes;
}

struct ReadLog {
  bool plan_ok = false;  // header and both plan sections verified
  bool clean = false;    // the batches ended exactly at a section boundary
  std::vector<uint8_t> config;  // kConfig payload
  std::vector<uint8_t> schema;  // kSchema payload
  std::vector<LoggedBatch> batches;
};

// Reads a segment up to its last good section boundary.
inline ReadLog ReadLogSegment(std::vector<uint8_t> bytes) {
  ReadLog log;
  StatusOr<snapshot::SectionReader> reader =
      snapshot::SectionReader::Open(std::move(bytes));
  if (!reader.ok() || reader->state_byte() != snapshot::kLogSegment) {
    return log;
  }
  snapshot::Section section;
  const auto next_is = [&](snapshot::SectionId id) {
    const StatusOr<bool> next = reader->Next(&section);
    return next.ok() && *next && section.id == id;
  };
  if (!next_is(snapshot::SectionId::kConfig)) return log;
  log.config = section.payload;
  if (!next_is(snapshot::SectionId::kSchema)) return log;
  log.schema = section.payload;
  log.plan_ok = true;
  while (true) {
    const StatusOr<bool> next = reader->Next(&section);
    if (next.ok() && !*next) {
      log.clean = true;
      return log;
    }
    if (!next.ok() || section.id != snapshot::SectionId::kBatch ||
        section.payload.size() < sizeof(uint64_t)) {
      return log;
    }
    LoggedBatch batch;
    std::memcpy(&batch.key, section.payload.data(), sizeof(batch.key));
    batch.frame.assign(section.payload.begin() + sizeof(batch.key),
                       section.payload.end());
    log.batches.push_back(std::move(batch));
  }
}

}  // namespace felip::test_support

#endif  // FELIP_TESTS_SUPPORT_LOG_SEGMENTS_H_
