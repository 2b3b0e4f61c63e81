// The FSNP section container: the one on-disk format of every durable
// FELIP file.
//
// A file is a header followed by independently checksummed sections,
// built from the shared framing toolkit (felip/wire/framing.h):
//
//   [magic u32 'FSNP'] [format-version u8] [state u8]
//   section*  where section = [id u8] [len u64] [payload] [xxh64(payload)]
//
// Two kinds of file use it:
//
//   * Sealed files — checkpoints and epoch segments — end with a file
//     xxHash64 over everything above, so truncation after the last section
//     is still detected. The state byte is the pipeline's lifecycle state.
//     SnapshotReader verifies the seal and every section before returning
//     anything. Unknown section ids are skipped (their checksum is still
//     verified), which is what lets older readers open newer files within
//     one format version.
//   * Report-log segments (felip/replaylog/store.h) are append-only and
//     unsealed: their state byte is kLogSegment, and SectionReader reads
//     them one section at a time up to the last good section boundary.
//
// Sections carry their own checksum so a reader can name *which* part of
// a damaged file failed. Everything here returns Status on malformed
// input — the bytes come from disk and may be truncated, bit-flipped, or
// written by a future version, none of which is programmer error.

#ifndef FELIP_SNAPSHOT_FORMAT_H_
#define FELIP_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
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
// State byte of a report-log segment. No pipeline state has it, so a log
// segment never decodes as a snapshot and a snapshot never replays as a
// log.
inline constexpr uint8_t kLogSegment = 0xFF;
// Header bytes: magic, version, state.
inline constexpr size_t kHeaderBytes = 4 + 1 + 1;

enum class SectionId : uint8_t {
  kConfig = 1,            // FelipConfig + num_users
  kSchema = 2,            // attribute names / domains / kinds
  kState = 3,             // lifecycle state + reports_ingested
  kOracles = 4,           // per-grid oracle accumulators (mid-round)
  kGridFrequencies = 5,   // post-processed estimates (finalized)
  kResponseMatrices = 6,  // reserved: older writers stored matrices here
  kDedup = 7,             // ingest dedup trailer keys, oldest first
  kEpoch = 8,             // epoch segments: the sealed epoch's sequence
  kBatch = 9,             // report logs: dedup key u64 + report frame
};

struct Section {
  SectionId id = SectionId::kConfig;
  std::vector<uint8_t> payload;
};

// Appends the file header with `state_byte`.
void AppendHeader(std::vector<uint8_t>* out, uint8_t state_byte);

// Appends one checksummed section whose payload is `parts`, concatenated.
void AppendSection(std::vector<uint8_t>* out, SectionId id,
                   std::initializer_list<std::span<const uint8_t>> parts);

// Builds a sealed file section by section. Sections are written in call
// order; Finish() seals the file and invalidates the writer.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(uint8_t state_byte);

  void AppendSection(SectionId id, const std::vector<uint8_t>& payload);

  // Appends the file-level checksum and returns the complete file bytes.
  std::vector<uint8_t> Finish() &&;

 private:
  std::vector<uint8_t> buffer_;
};

// Sequential reader over a header and the sections after it, for files
// with or without a seal (a sealed file is read without its last 8
// bytes).
class SectionReader {
 public:
  // Checks the header: kDataLoss when it is truncated, kInvalidArgument
  // on a bad magic or an unsupported version.
  static StatusOr<SectionReader> Open(std::vector<uint8_t> bytes);

  uint8_t state_byte() const { return state_byte_; }

  // Reads the next section. True: *section holds a checksum-valid
  // section. False: clean end, exactly at a section boundary. kDataLoss:
  // the section is torn or corrupt, and the boundary before it is the
  // last good one. A section length is checked against the bytes present
  // before anything is allocated.
  StatusOr<bool> Next(Section* section);

 private:
  SectionReader(std::vector<uint8_t> bytes, uint8_t state_byte)
      : bytes_(std::move(bytes)), state_byte_(state_byte) {}

  std::vector<uint8_t> bytes_;
  size_t pos_ = kHeaderBytes;
  uint8_t state_byte_ = 0;
};

// Parses and fully verifies a sealed file up front: the seal, the header
// and every section checksum. After Open() succeeds the sections are
// structurally sound; their *contents* are still untrusted (a
// checksum-valid file from a different config decodes cleanly but must
// not restore into this pipeline — semantic validation is the codec's
// job).
class SnapshotReader {
 public:
  using Section = snapshot::Section;

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
