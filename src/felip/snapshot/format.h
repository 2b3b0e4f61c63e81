// Snapshot container format.
//
// A snapshot file is a sequence of independently checksummed sections
// inside a sealed envelope, built from the shared framing toolkit
// (felip/wire/framing.h):
//
//   [magic u32 'FSNP'] [format-version u8] [state u8]
//   section*  where section = [id u8] [len u64] [payload] [xxh64(payload)]
//   [file xxHash64 over everything above]
//
// Sections carry their own checksum so a reader can name *which* part of
// a damaged file failed, and the whole file carries a second seal so
// truncation after the last section is still detected. Unknown section
// ids are skipped (their checksum is still verified), which is what lets
// older readers open newer files within one format version.
//
// Everything here returns Status on malformed input — snapshot bytes come
// from disk and may be truncated, bit-flipped, or written by a future
// version, none of which is programmer error.

#ifndef FELIP_SNAPSHOT_FORMAT_H_
#define FELIP_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <vector>

#include "felip/common/status.h"

namespace felip::snapshot {

// "FSNP" — distinct from the wire envelope magic "FELP" so a snapshot file
// fed to a wire decoder (or vice versa) fails fast on the first 4 bytes.
inline constexpr uint32_t kMagic = 0x46534e50;
inline constexpr uint8_t kFormatVersion = 1;
// "snapcsum" — distinct from the wire checksum salt so bytes sealed for
// one format never verify under the other.
inline constexpr uint64_t kChecksumSalt = 0x736e6170'6373756dULL;

enum class SectionId : uint8_t {
  kConfig = 1,            // FelipConfig + num_users
  kSchema = 2,            // attribute names / domains / kinds
  kState = 3,             // lifecycle state + reports_ingested
  kOracles = 4,           // per-grid oracle accumulators (mid-round)
  kGridFrequencies = 5,   // post-processed estimates (finalized)
  kResponseMatrices = 6,  // reserved: older writers stored matrices here
  kDedup = 7,             // ingest dedup trailer keys, oldest first
};

// Builds a snapshot byte stream section by section. Sections are written
// in call order; Finish() seals the file and invalidates the writer.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(uint8_t state_byte);

  void AppendSection(SectionId id, const std::vector<uint8_t>& payload);

  // Appends the file-level checksum and returns the complete file bytes.
  std::vector<uint8_t> Finish() &&;

 private:
  std::vector<uint8_t> buffer_;
};

// Parses and fully verifies a snapshot byte stream up front: envelope,
// every section checksum, and the file seal. After Open() succeeds the
// sections are structurally sound; their *contents* are still untrusted
// (a checksum-valid file from a different config decodes cleanly but must
// not restore into this pipeline — semantic validation is the codec's
// job).
class SnapshotReader {
 public:
  struct Section {
    SectionId id;
    std::vector<uint8_t> payload;
  };

  static StatusOr<SnapshotReader> Open(const std::vector<uint8_t>& bytes);

  uint8_t state_byte() const { return state_byte_; }

  // First section with `id`, or nullptr when absent.
  const std::vector<uint8_t>* FindSection(SectionId id) const;

  const std::vector<Section>& sections() const { return sections_; }

 private:
  SnapshotReader() = default;

  uint8_t state_byte_ = 0;
  std::vector<Section> sections_;
};

}  // namespace felip::snapshot

#endif  // FELIP_SNAPSHOT_FORMAT_H_
