#include "felip/replaylog/store.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "felip/common/check.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/storage/storage.h"

namespace felip::replaylog {

namespace {

constexpr char kPrefix[] = "reportlog-";
constexpr char kSealedSuffix[] = ".flog";
constexpr char kOpenSuffix[] = ".open";

}  // namespace

std::vector<uint8_t> EncodePlan(
    const core::FelipConfig& config, uint64_t num_users,
    const std::vector<data::AttributeInfo>& schema) {
  std::vector<uint8_t> plan;
  snapshot::AppendSection(&plan, snapshot::SectionId::kConfig,
                          {snapshot::EncodeConfigSection(config, num_users)});
  snapshot::AppendSection(&plan, snapshot::SectionId::kSchema,
                          {snapshot::EncodeSchemaSection(schema)});
  return plan;
}

// Three stages, three owners:
//   Append (caller)  — encode + push onto `queue` under `mutex`;
//   writer thread    — pops the queue, owns all active-segment state
//                      (file, active_*, series.next_seq: no lock, single
//                      owner after Open), write + fflush, hands full
//                      segments to the sealer;
//   sealer thread    — series.Seal (fsync + rename + directory fsync +
//                      prune), reading only the series' fixed naming.
// Barriers count records: Flush waits for written >= its snapshot of
// pushed; Seal additionally waits for a seal epoch to complete. Failures
// accumulate in `io_failures` and are consumed once per barrier.
struct LogWriter::Impl {
  Impl(const std::string& dir, const std::vector<uint8_t>& plan,
       LogWriterOptions writer_options)
      : series(dir, kPrefix, {kSealedSuffix, kOpenSuffix},
               writer_options.keep_segments),
        options(writer_options) {
    snapshot::AppendHeader(&head, snapshot::kLogSegment);
    head.insert(head.end(), plan.begin(), plan.end());
  }

  // .flog segments are committed, .open ones are being written; both
  // share one sequence space.
  storage::FileSeries series;
  std::vector<uint8_t> head;  // every segment's header and plan sections
  LogWriterOptions options;

  // --- Append <-> writer handoff, under `mutex` ---
  std::mutex mutex;
  std::condition_variable writer_cv;  // wakes the writer thread
  std::condition_variable done_cv;    // barriers + backpressure
  std::deque<std::vector<uint8_t>> queue;  // encoded whole records
  uint64_t queued_bytes = 0;
  uint64_t pushed = 0;   // records handed to the writer, ever
  uint64_t written = 0;  // records the writer has write+fflush'ed (or
                         // counted as failed), ever
  uint64_t seal_requests = 0;
  uint64_t seals_done = 0;
  uint64_t failures_reported = 0;  // barrier-consumed io_failures marker
  bool stopping = false;

  uint64_t records_appended = 0;  // accessor mirrors, under `mutex`
  uint64_t bytes_appended = 0;

  // --- writer-thread-owned active segment (no lock) ---
  std::FILE* file = nullptr;
  uint64_t active_seq = 0;
  uint64_t active_bytes = 0;
  uint64_t active_records = 0;

  // --- writer <-> sealer handoff, under `sealer_mutex` ---
  struct PendingSeal {
    std::FILE* file = nullptr;
    uint64_t seq = 0;
  };
  std::mutex sealer_mutex;
  std::condition_variable sealer_cv;
  std::condition_variable sealer_done_cv;
  std::deque<PendingSeal> sealer_queue;
  bool sealer_in_flight = false;
  bool sealer_stopping = false;

  std::atomic<uint64_t> segments_sealed{0};
  // Failed I/O events (record write, segment open, fsync/rename) since
  // construction; each barrier reports the delta since the last one.
  std::atomic<uint64_t> io_failures{0};

  std::thread writer;
  std::thread sealer;

  ~Impl() { StopThreads(); }

  void StartThreads() {
    writer = std::thread([this] { WriterLoop(); });
    sealer = std::thread([this] { SealerLoop(); });
  }

  void StopThreads() {
    if (writer.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
      }
      writer_cv.notify_all();
      writer.join();
    }
    if (sealer.joinable()) {
      {
        std::lock_guard<std::mutex> lock(sealer_mutex);
        sealer_stopping = true;
      }
      sealer_cv.notify_all();
      sealer.join();
    }
  }

  // ----- writer thread -----

  void WriterLoop() {
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      writer_cv.wait(lock, [this] {
        return stopping || !queue.empty() || seal_requests > seals_done;
      });
      if (stopping && queue.empty() && seal_requests <= seals_done) return;

      std::deque<std::vector<uint8_t>> batch;
      batch.swap(queue);
      queued_bytes = 0;
      const uint64_t seal_epoch = seal_requests;
      // Producers can refill while this batch is being written.
      done_cv.notify_all();
      lock.unlock();

      for (const std::vector<uint8_t>& record : batch) WriteRecord(record);
      if (file != nullptr && std::fflush(file) != 0) {
        // The batch's tail may be torn in the stdio buffer; treat the
        // segment like a crashed one and surface the failure.
        io_failures.fetch_add(1, std::memory_order_relaxed);
        AbandonSegment();
      }
      if (seal_epoch > seals_done) {
        DetachActiveSegment();
        WaitSealerDrained();
      }

      lock.lock();
      written += batch.size();
      if (seal_epoch > seals_done) seals_done = seal_epoch;
      done_cv.notify_all();
    }
  }

  void WriteRecord(const std::vector<uint8_t>& record) {
    // Rotate before writing, but never an empty segment: a segment takes
    // at least one record even when the header alone tops the limit.
    if (file != nullptr && active_records > 0 &&
        active_bytes >= options.segment_bytes) {
      DetachActiveSegment();
    }
    if (file == nullptr && !OpenSegment()) {
      io_failures.fetch_add(1, std::memory_order_relaxed);
      return;  // record lost; the barrier reports it
    }
    const size_t n = std::fwrite(record.data(), 1, record.size(), file);
    if (n != record.size()) {
      // Torn record: readers cut the segment at the last good boundary.
      // Abandon it so later records land in a fresh segment behind the
      // tear instead of after it.
      io_failures.fetch_add(1, std::memory_order_relaxed);
      AbandonSegment();
      return;
    }
    active_bytes += record.size();
    active_records += 1;
  }

  bool OpenSegment() {
    const uint64_t seq = series.next_seq();
    const std::string path = series.PathOf(seq, kOpenSuffix);
    // The series never creates its directory for a reader; the log
    // writes segments past Commit, so it makes the directory itself.
    if (!storage::CreateDirectories(series.dir()).ok()) return false;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    if (std::fwrite(head.data(), 1, head.size(), f) != head.size() ||
        std::fflush(f) != 0) {
      std::fclose(f);
      std::remove(path.c_str());
      return false;
    }
    // Unbuffered: records arrive as whole encoded blobs, so stdio's
    // buffer would only add a copy of every logged byte.
    std::setvbuf(f, nullptr, _IONBF, 0);
    file = f;
    active_seq = seq;
    active_bytes = head.size();
    active_records = 0;
    series.Advance(seq);
    return true;
  }

  void AbandonSegment() {
    if (file == nullptr) return;
    std::fclose(file);
    file = nullptr;
  }

  // Discards an empty active segment, otherwise hands it to the sealer.
  void DetachActiveSegment() {
    if (file == nullptr) return;
    if (active_records == 0) {
      // Nothing but a header: discard rather than seal an empty segment.
      std::fclose(file);
      std::remove(series.PathOf(active_seq, kOpenSuffix).c_str());
    } else {
      if (std::fflush(file) != 0) {
        io_failures.fetch_add(1, std::memory_order_relaxed);
        AbandonSegment();
        return;
      }
      {
        std::lock_guard<std::mutex> lock(sealer_mutex);
        sealer_queue.push_back({file, active_seq});
      }
      sealer_cv.notify_all();
    }
    file = nullptr;
  }

  void WaitSealerDrained() {
    std::unique_lock<std::mutex> lock(sealer_mutex);
    sealer_done_cv.wait(
        lock, [this] { return sealer_queue.empty() && !sealer_in_flight; });
  }

  // ----- sealer thread -----

  void SealerLoop() {
    std::unique_lock<std::mutex> lock(sealer_mutex);
    while (true) {
      sealer_cv.wait(lock,
                     [this] { return sealer_stopping || !sealer_queue.empty(); });
      if (sealer_queue.empty()) {
        if (sealer_stopping) return;
        continue;
      }
      const PendingSeal pending = std::move(sealer_queue.front());
      sealer_queue.pop_front();
      sealer_in_flight = true;
      lock.unlock();
      // The expensive half of a seal. On failure the .open stays in place:
      // its flushed records still replay after a process death, they just
      // lack the sealed-name durability promise.
      const bool ok = series.Seal(pending.file, pending.seq, kOpenSuffix).ok();
      lock.lock();
      sealer_in_flight = false;
      if (ok) {
        segments_sealed.fetch_add(1, std::memory_order_relaxed);
      } else {
        io_failures.fetch_add(1, std::memory_order_relaxed);
      }
      sealer_done_cv.notify_all();
    }
  }

  // ----- barriers (caller side) -----

  // Consumes failures accumulated since the last barrier; true if none.
  // Caller must hold `mutex`.
  bool ConsumeFailuresLocked() {
    const uint64_t failures = io_failures.load(std::memory_order_relaxed);
    const bool clean = failures == failures_reported;
    failures_reported = failures;
    return clean;
  }
};

StatusOr<LogWriter> LogWriter::Open(const std::string& dir,
                                    std::vector<uint8_t> plan,
                                    LogWriterOptions options) {
  // The series resumes the sequence past every existing segment — sealed
  // or a crashed writer's leftover .open — so a committed name is never
  // reused. OpenSegment creates `dir`.
  auto impl = std::make_unique<Impl>(dir, plan, options);
  if (impl->options.max_buffered_bytes == 0) {
    impl->options.max_buffered_bytes = impl->options.segment_bytes;
  }
  // Eagerly open the first segment on this thread (the writer thread has
  // not started, so the single-owner rule holds) to fail fast on an
  // unwritable directory instead of at the first barrier.
  if (!impl->OpenSegment()) {
    return Status::Unavailable("cannot open log segment for writing under: " +
                               dir);
  }
  impl->StartThreads();
  return LogWriter(std::move(impl));
}

LogWriter::LogWriter(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

LogWriter::~LogWriter() {
  if (impl_ != nullptr) {
    (void)Seal();  // best effort; errors already counted
  }
}

LogWriter::LogWriter(LogWriter&& other) noexcept = default;
LogWriter& LogWriter::operator=(LogWriter&& other) noexcept = default;

const std::string& LogWriter::dir() const { return impl_->series.dir(); }

uint64_t LogWriter::records_appended() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->records_appended;
}

uint64_t LogWriter::segments_sealed() const {
  return impl_->segments_sealed.load(std::memory_order_relaxed);
}

uint64_t LogWriter::bytes_appended() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->bytes_appended;
}

Status LogWriter::Append(RecordType type, uint64_t key,
                         std::span<const uint8_t> frame) {
  FELIP_CHECK_MSG(type == RecordType::kBatch,
                  "the report log appends batch sections only");
  Impl& impl = *impl_;
  std::vector<uint8_t> record;
  // id u8 + len u64 + key u64 + frame + xxh64
  record.reserve(1 + 8 + 8 + frame.size() + 8);
  uint8_t key_bytes[sizeof(key)];
  std::memcpy(key_bytes, &key, sizeof(key));
  snapshot::AppendSection(&record, type, {key_bytes, frame});
  const uint64_t record_bytes = record.size();

  std::unique_lock<std::mutex> lock(impl.mutex);
  // Backpressure: bound writer-queue memory; in steady state the writer
  // drains faster than the drain path fills, so this only bites while a
  // rotation fsync is in flight with max_buffered_bytes of backlog.
  impl.done_cv.wait(lock, [&impl] {
    return impl.queued_bytes < impl.options.max_buffered_bytes ||
           impl.stopping;
  });
  const bool was_empty = impl.queue.empty();
  impl.queue.push_back(std::move(record));
  impl.queued_bytes += record_bytes;
  impl.pushed += 1;
  impl.records_appended += 1;
  impl.bytes_appended += record_bytes;
  lock.unlock();
  // Only the empty->nonempty edge needs a wakeup: a writer mid-batch
  // re-checks the queue at its loop top, and per-record notifies would
  // cost a context switch per Append.
  if (was_empty) impl.writer_cv.notify_one();
  return Status::Ok();
}

Status LogWriter::Flush() {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.mutex);
  const uint64_t target = impl.pushed;
  impl.writer_cv.notify_all();
  impl.done_cv.wait(lock, [&impl, target] { return impl.written >= target; });
  if (!impl.ConsumeFailuresLocked()) {
    return Status::Unavailable("report log lost records under: " +
                               impl.series.dir());
  }
  return Status::Ok();
}

Status LogWriter::Seal() {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.mutex);
  const uint64_t my_epoch = ++impl.seal_requests;
  impl.writer_cv.notify_all();
  impl.done_cv.wait(lock,
                    [&impl, my_epoch] { return impl.seals_done >= my_epoch; });
  if (!impl.ConsumeFailuresLocked()) {
    return Status::Unavailable("cannot seal log segment under: " +
                               impl.series.dir());
  }
  return Status::Ok();
}

std::vector<std::string> ListSegmentsOldestFirst(const std::string& dir) {
  std::vector<std::string> paths;
  for (storage::SeriesFile& file :
       storage::ListSeries(dir, kPrefix, {kSealedSuffix, kOpenSuffix})) {
    paths.push_back(std::move(file.path));
  }
  return paths;
}

}  // namespace felip::replaylog
