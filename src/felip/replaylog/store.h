// On-disk report log store: segment layout, rotation, crash discipline.
//
// Reports leaving FELIP clients are already LDP-perturbed, so persisting
// them verbatim is privacy-safe — and a frozen log of every drained batch
// is exactly what offline estimator comparison needs: one corpus, many
// post-processing configurations, all digest-compared (see
// felip/replaylog/replay.h and docs/replay.md).
//
// A segment is an unsealed FSNP section file (felip/snapshot/format.h):
//
//   [header, state byte kLogSegment]
//   [kConfig section] [kSchema section]   the plan (EncodePlan)
//   [kBatch section]*                     one per Append: [key u64][frame]
//
// The plan carries the full FelipConfig + population size + schema, so a
// segment replays with no out-of-band context; every segment of one log
// starts with byte-identical plan sections. A kBatch payload is the
// batch's idempotency key (its wire checksum trailer) followed by the
// complete encoded wire::ReportBatch frame, envelope and trailer
// untouched.
//
// Truncation semantics are the format's contract (and what
// tests/replaylog pins): the log is appended a whole section at a time,
// so a reader either consumes a complete checksum-valid section or stops
// at the last good section boundary with kDataLoss. Every section's id is
// fixed by its position (the two plan sections, then batches only), so a
// section with any other id is damage too, never skipped. No prefix of a
// valid segment ever yields a torn batch, and no bit flip survives the
// per-section checksum.
//
// A LogWriter owns one directory of segment files, the report-log schema
// of storage::FileSeries: the active segment is reportlog-<seq>.open, and
// sealing (size rotation, Seal(), destruction) does fflush + fsync +
// rename to reportlog-<seq>.flog + directory fsync, so a .flog name is a
// complete, fully-durable segment even across a machine crash. Both
// suffixes share one sequence space, resumed past every existing file on
// open. The naming, durability and rotation rules are in
// felip/storage/storage.h and docs/snapshots.md ("On-disk storage").
//
// Append is called inside the ingest drain critical section, where every
// microsecond is tail latency, so it does no file I/O at all: it encodes
// the record into a bounded in-memory queue and returns. A writer thread
// drains the queue (write + fflush, so drained records are in the page
// cache and survive a SIGKILL), and hands full segments to a sealer
// thread for the ~100ms fsync + rename + prune. Durability is pulled
// through two barriers:
//
//   Flush() — every record appended so far is in the OS page cache
//             (survives process death, not a machine crash);
//   Seal()  — every record appended so far is in a fully-durable .flog.
//
// The one ordering rule this imposes on callers: cut no checkpoint that
// claims a batch until Flush() has covered that batch's record, or a
// SIGKILL could leave a snapshot that leads the log (node::Node wires
// this into its checkpoint callback; docs/replay.md explains why replay
// correctness needs it).
//
// I/O failures are asynchronous too: Append never reports them. A failed
// write abandons the active segment where it stands (its torn tail reads
// like a crash) and later records land in a fresh segment; the failure is
// surfaced exactly once, by the next Flush()/Seal() barrier.
//
// Readers take both spellings: .flog segments are whole by construction,
// and leftover .open segments (a crashed writer) are expected to end in a
// torn tail the per-section checksums cut at the last section boundary.
// A crashed writer's leftover .open is never appended to or renamed on
// restart — its tail is unverified, and the ".flog = complete" invariant
// is worth more than a tidy directory.
//
// Rotation keeps the newest keep_segments sealed files; the default (0)
// keeps everything, because replay needs the full history. Bound it only
// when the log rides next to a snapshot store that makes the prefix
// redundant (docs/replay.md discusses the pairing).

#ifndef FELIP_REPLAYLOG_STORE_H_
#define FELIP_REPLAYLOG_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "felip/common/status.h"
#include "felip/core/felip.h"
#include "felip/snapshot/format.h"

namespace felip::replaylog {

// What LogWriter::Append writes: only SectionId::kBatch.
using RecordType = snapshot::SectionId;

// The plan sections every segment of a log starts with after its header:
// kConfig and kSchema, encoded with the snapshot format's section codecs,
// so the two durable artifacts can never drift apart.
std::vector<uint8_t> EncodePlan(const core::FelipConfig& config,
                                uint64_t num_users,
                                const std::vector<data::AttributeInfo>& schema);

struct LogWriterOptions {
  // Seal and rotate the active segment once it reaches this many bytes.
  uint64_t segment_bytes = 64ull << 20;
  // Sealed segments kept after rotation; 0 = unbounded.
  size_t keep_segments = 0;
  // Backpressure: Append blocks once this many encoded-record bytes are
  // queued for the writer thread. Sized to ride out a rotation fsync
  // without stalling the drain path. 0 = segment_bytes.
  uint64_t max_buffered_bytes = 0;
};

class LogWriter {
 public:
  // Creates `dir` if absent and opens the first segment, which starts
  // with the header and `plan` (EncodePlan's bytes; so will every later
  // segment — replay requires identical plans across one log).
  // kUnavailable on I/O failure.
  static StatusOr<LogWriter> Open(const std::string& dir,
                                  std::vector<uint8_t> plan,
                                  LogWriterOptions options = {});

  ~LogWriter();
  LogWriter(LogWriter&& other) noexcept;
  LogWriter& operator=(LogWriter&& other) noexcept;
  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  // Encodes one batch section (`type` must be kBatch) carrying `key` and
  // `frame`, and queues it for the writer thread; no file I/O on this
  // path. Blocks only when max_buffered_bytes of records are already
  // queued. I/O errors from earlier records are not reported here — they
  // surface at the next Flush()/Seal() barrier.
  Status Append(RecordType type, uint64_t key,
                std::span<const uint8_t> frame);

  // Barrier: waits until every record appended so far has been written
  // and flushed to the OS. After Flush() returns Ok those records are in
  // the page cache — they survive a SIGKILL of this process (a machine
  // crash needs Seal()). Reports any I/O failure since the last barrier.
  Status Flush();

  // Barrier: seals the active segment and waits for every pending
  // background seal to finish. After Seal() returns Ok, all appended
  // records live under fully-durable .flog names. Idempotent; the next
  // Append opens a new segment. A segment that never saw an Append is
  // discarded instead of sealed empty. Reports any I/O failure since the
  // last barrier.
  Status Seal();

  const std::string& dir() const;
  uint64_t records_appended() const;
  // Seals completed by the background sealer so far; Seal() is the
  // barrier that makes this equal the number of rotated segments.
  uint64_t segments_sealed() const;
  uint64_t bytes_appended() const;

 private:
  struct Impl;
  explicit LogWriter(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

// Every segment path under `dir` — sealed .flog and leftover .open —
// ordered oldest (lowest sequence) first, which is append order: sequence
// numbers are never reused.
std::vector<std::string> ListSegmentsOldestFirst(const std::string& dir);

}  // namespace felip::replaylog

#endif  // FELIP_REPLAYLOG_STORE_H_
