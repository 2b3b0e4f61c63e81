#include "felip/snapshot/format.h"

#include <cstring>

#include "felip/common/hash.h"
#include "felip/wire/framing.h"

namespace felip::snapshot {

namespace {

// Section framing around the payload: id u8 + len u64, then the xxh64.
constexpr size_t kSectionPrefixBytes = 1 + sizeof(uint64_t);
constexpr size_t kSectionChecksumBytes = sizeof(uint64_t);

}  // namespace

void AppendHeader(std::vector<uint8_t>* out, uint8_t state_byte) {
  wire::Writer w(out);
  w.Put<uint32_t>(kMagic);
  w.Put<uint8_t>(kFormatVersion);
  w.Put<uint8_t>(state_byte);
}

void AppendSection(std::vector<uint8_t>* out, SectionId id,
                   std::initializer_list<std::span<const uint8_t>> parts) {
  size_t len = 0;
  for (const std::span<const uint8_t> part : parts) len += part.size();
  wire::Writer w(out);
  w.Put<uint8_t>(static_cast<uint8_t>(id));
  w.Put<uint64_t>(len);
  const size_t start = out->size();
  for (const std::span<const uint8_t> part : parts) {
    w.PutBytes(part.data(), part.size());
  }
  w.Put<uint64_t>(XxHash64Bytes(out->data() + start, len, kChecksumSalt));
}

SnapshotWriter::SnapshotWriter(uint8_t state_byte) {
  AppendHeader(&buffer_, state_byte);
}

void SnapshotWriter::AppendSection(SectionId id,
                                   const std::vector<uint8_t>& payload) {
  snapshot::AppendSection(&buffer_, id, {payload});
}

std::vector<uint8_t> SnapshotWriter::Finish() && {
  wire::SealChecksum(&buffer_, kChecksumSalt);
  return std::move(buffer_);
}

StatusOr<SectionReader> SectionReader::Open(std::vector<uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) {
    return Status::DataLoss("snapshot header is truncated");
  }
  uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  if (magic != kMagic) {
    return Status::InvalidArgument("not a snapshot file (bad magic)");
  }
  if (bytes[4] != kFormatVersion) {
    return Status::InvalidArgument(
        "snapshot format version is not supported");
  }
  const uint8_t state_byte = bytes[5];
  return SectionReader(std::move(bytes), state_byte);
}

StatusOr<bool> SectionReader::Next(Section* section) {
  if (pos_ == bytes_.size()) return false;
  const size_t remaining = bytes_.size() - pos_;
  if (remaining < kSectionPrefixBytes + kSectionChecksumBytes) {
    return Status::DataLoss("snapshot section header is truncated");
  }
  const uint8_t id = bytes_[pos_];
  uint64_t len = 0;
  std::memcpy(&len, bytes_.data() + pos_ + 1, sizeof(len));
  if (len > remaining - kSectionPrefixBytes - kSectionChecksumBytes) {
    return Status::DataLoss("snapshot section length exceeds the file");
  }
  const uint8_t* payload = bytes_.data() + pos_ + kSectionPrefixBytes;
  uint64_t stored = 0;
  std::memcpy(&stored, payload + len, sizeof(stored));
  if (XxHash64Bytes(payload, static_cast<size_t>(len), kChecksumSalt) !=
      stored) {
    return Status::DataLoss("snapshot section checksum mismatch");
  }
  section->id = static_cast<SectionId>(id);
  section->payload.assign(payload, payload + len);
  pos_ += kSectionPrefixBytes + static_cast<size_t>(len) +
          kSectionChecksumBytes;
  return true;
}

StatusOr<SnapshotReader> SnapshotReader::Open(
    const std::vector<uint8_t>& bytes) {
  // The file seal covers everything, so verify it first: any truncation
  // or bit flip anywhere fails here with one uniform error.
  if (!wire::CheckSealedChecksum(bytes, kChecksumSalt)) {
    return Status::DataLoss("snapshot file checksum mismatch");
  }
  FELIP_ASSIGN_OR_RETURN(
      SectionReader sections,
      SectionReader::Open(std::vector<uint8_t>(
          bytes.begin(), bytes.end() - sizeof(uint64_t))));
  SnapshotReader reader;
  reader.state_byte_ = sections.state_byte();
  Section section;
  while (true) {
    FELIP_ASSIGN_OR_RETURN(const bool more, sections.Next(&section));
    if (!more) return reader;
    reader.sections_.push_back(std::move(section));
  }
}

const std::vector<uint8_t>* SnapshotReader::FindSection(SectionId id) const {
  for (const Section& section : sections_) {
    if (section.id == id) return &section.payload;
  }
  return nullptr;
}

}  // namespace felip::snapshot
