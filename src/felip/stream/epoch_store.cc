#include "felip/stream/epoch_store.h"

#include <cmath>

#include "felip/common/check.h"
#include "felip/wire/framing.h"

namespace felip::stream {

namespace {

constexpr uint32_t kEpochMagic = 0x46455347;  // "FESG"
constexpr uint8_t kEpochVersion = 1;
// Distinct from the wire ("wirecsum") and snapshot ("snapcsum") salts, so
// a segment can never verify as either of those artifacts or vice versa.
constexpr uint64_t kEpochChecksumSalt = 0x65706f63'6373756dULL;  // epoccsum

}  // namespace

std::vector<uint8_t> EncodeEpochSegment(const EpochSegment& segment) {
  std::vector<uint8_t> bytes;
  wire::Writer w(&bytes);
  w.Put<uint32_t>(kEpochMagic);
  w.Put<uint8_t>(kEpochVersion);
  w.Put<uint64_t>(segment.seq);
  w.Put<uint64_t>(segment.reports);
  w.Put<double>(segment.epsilon);
  w.Put<uint64_t>(static_cast<uint64_t>(segment.snapshot.size()));
  w.PutBytes(segment.snapshot.data(), segment.snapshot.size());
  wire::SealChecksum(&bytes, kEpochChecksumSalt);
  return bytes;
}

StatusOr<EpochSegment> DecodeEpochSegment(const std::vector<uint8_t>& bytes) {
  // The trailer gates everything: a truncated or bit-flipped segment must
  // be indistinguishable from garbage, never half-decoded.
  if (!wire::CheckSealedChecksum(bytes, kEpochChecksumSalt)) {
    return Status::DataLoss("epoch segment checksum mismatch or truncation");
  }
  // Parse the body without the trailer (as SnapshotReader::Open does), so
  // no header field can read into the checksum bytes.
  const std::vector<uint8_t> body(bytes.begin(),
                                  bytes.end() - sizeof(uint64_t));
  wire::Reader r(body);
  uint32_t magic = 0;
  uint8_t version = 0;
  EpochSegment segment;
  uint64_t snapshot_len = 0;
  if (!r.Get(&magic) || !r.Get(&version) || !r.Get(&segment.seq) ||
      !r.Get(&segment.reports) || !r.Get(&segment.epsilon) ||
      !r.Get(&snapshot_len)) {
    return Status::DataLoss("epoch segment header is truncated");
  }
  if (magic != kEpochMagic) {
    return Status::InvalidArgument("not an epoch segment (bad magic)");
  }
  if (version != kEpochVersion) {
    return Status::InvalidArgument(
        "unsupported epoch segment version " + std::to_string(version));
  }
  if (segment.seq == 0) {
    return Status::InvalidArgument("epoch segment sequence must be >= 1");
  }
  if (!std::isfinite(segment.epsilon) || segment.epsilon <= 0.0) {
    return Status::InvalidArgument(
        "epoch segment carries a non-positive privacy budget");
  }
  // The snapshot must occupy exactly the bytes between the header and the
  // trailer; anything else is a framing error a checksum cannot excuse.
  if (snapshot_len != r.remaining()) {
    return Status::DataLoss("epoch segment snapshot length mismatch");
  }
  segment.snapshot.assign(r.cursor(), r.cursor() + r.remaining());
  return segment;
}

EpochStore::EpochStore(std::string dir, size_t keep_last_n)
    : series_(std::move(dir), "epoch-", {".fesg"}, keep_last_n) {
  FELIP_CHECK_MSG(keep_last_n >= 1, "keep_last_n must be at least 1");
}

StatusOr<std::string> EpochStore::Write(const EpochSegment& segment) {
  return series_.Commit(segment.seq, EncodeEpochSegment(segment));
}

LoadedEpochs EpochStore::LoadAll() const {
  LoadedEpochs loaded;
  for (const storage::SeriesFile& file : series_.List()) {
    const StatusOr<std::vector<uint8_t>> bytes = storage::ReadFile(file.path);
    if (!bytes.ok()) {
      ++loaded.files_skipped;
      continue;
    }
    StatusOr<EpochSegment> segment = DecodeEpochSegment(*bytes);
    // The file name is untrusted; the sealed header is the identity.
    if (!segment.ok() || segment->seq != file.seq) {
      ++loaded.files_skipped;
      continue;
    }
    loaded.segments.push_back(*std::move(segment));
  }
  return loaded;
}

}  // namespace felip::stream
