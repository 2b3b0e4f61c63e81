// Report-collection server: transport frames in, aggregation out.
//
// An IngestServer listens on a Transport endpoint and handles each
// inbound frame on the transport's IO thread:
//
//   1. Verify the wire checksum trailer. Frames that fail (truncated or
//      corrupted in flight) are acked kDataLoss and never enqueued.
//   2. Deduplicate on the xxHash64 trailer — the batch's idempotency key.
//      A batch already accepted (in the queue or drained) acks
//      kAlreadyExists without re-enqueueing, so client retries never
//      double-count. The seen-set is a bounded FIFO window (DedupWindow),
//      so a long-lived server's memory stays flat.
//   3. Push onto a bounded MPMC queue. A full queue is explicit
//      backpressure: the frame is acked kResourceExhausted with a
//      suggested retry_after_ms and NOT recorded as seen, so the client's
//      resend is a fresh attempt.
//
// One drain thread empties the queue through one wire::ReportChunkDecoder
// built before the first frame. The trailer was verified in step 1, so
// the drain thread only validates each batch's structure (no report
// reaches the sink unless the whole batch is well-formed), then decodes
// it in chunks of at most wire::kReportChunkSize reports into the
// decoder's fixed buffer and hands each chunk to a ReportSink, every chunk
// of a batch under one hold of the drain lock. Batches reach the
// sink, the report log and every checkpoint cut in queue order, which is
// the order their kOk acks were sent. Aggregation is integer-count based,
// so estimates depend only on the multiset of accepted batches — queue
// order and batch boundaries cannot change the result.
//
// --- Crash-safe checkpointing ---
//
// When a checkpoint callback is configured, the server maintains a second
// key window: the checksums of batches whose reports have actually
// reached the sink ("drained"), appended under the same lock as the sink
// call. Every `checkpoint_every_batches` drained batches (or
// `checkpoint_every_ms`, whichever fires first) the callback runs under
// that same lock with the drained keys — so the pipeline state it
// snapshots and the keys it persists are a single consistent cut. A batch
// that was acked but not yet drained at a crash is simply absent from the
// cut; the client's resend is admitted fresh, preserving exactly-once
// counting. On restart, PreseedDedup() reloads the persisted keys before
// Start() so resends of already-drained batches ack kAlreadyExists.
//
// Stop() stops the transport first (no new frames), then shuts the queue
// down and joins the drain thread after it drains every accepted batch,
// then fires one final checkpoint so a clean shutdown persists everything.

#ifndef FELIP_SVC_SERVER_H_
#define FELIP_SVC_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "felip/common/status.h"
#include "felip/svc/dedup.h"
#include "felip/svc/queue.h"
#include "felip/svc/sink.h"
#include "felip/svc/transport.h"

namespace felip::svc {

// Persists one consistent cut of the pipeline: called with the idempotency
// keys of every batch drained into the sink so far (oldest first), while
// the server guarantees no concurrent sink mutation. Returning non-OK
// counts a failure; the server keeps serving and retries at the next
// checkpoint trigger.
using CheckpointFn = std::function<Status(std::span<const uint64_t>)>;

// Durable report log hook (felip/replaylog): called with a drained
// batch's idempotency key and its full encoded frame, inside the same
// critical section as the sink ingest — after the batch reached the sink
// and before any checkpoint fires, so a checkpoint cut never includes an
// unlogged batch. Returning non-OK counts a failure (log_failures()); the
// server keeps serving, and the batch stays counted — the log is a replay
// corpus, not the source of truth.
using ReportLogFn =
    std::function<Status(uint64_t key, std::span<const uint8_t> frame)>;

class IngestServer;

// One consistent cut of the drain path, handed to callbacks that run under
// the server's drain lock: the batch that just drained is wholly in the
// sink and no other batch is partially in. Keys() copies the drained-key
// window (oldest first, up to dedup_capacity keys), so a callback reads it
// only when it needs it.
class DrainCut {
 public:
  std::vector<uint64_t> Keys() const;

 private:
  friend class IngestServer;
  explicit DrainCut(IngestServer* server) : server_(server) {}
  IngestServer* server_;
};

struct IngestServerOptions {
  // Batches buffered between the IO thread and the drain thread; a full
  // queue acks kResourceExhausted (backpressure).
  size_t queue_capacity = 64;
  // Suggested client wait carried in kResourceExhausted acks.
  uint32_t retry_after_ms = 5;
  // Max keys remembered by each dedup window (admission and drained).
  size_t dedup_capacity = kDefaultDedupCapacity;
  // Checkpoint cadence; either trigger fires a checkpoint (0 disables
  // that trigger). Ignored without a `checkpoint` callback.
  uint64_t checkpoint_every_batches = 0;
  uint64_t checkpoint_every_ms = 0;
  CheckpointFn checkpoint;
  // Append every drained batch to a durable report log. Unset = zero
  // overhead on the drain path.
  ReportLogFn report_log;
  // Shard-ownership predicate over the batch idempotency key (the wire
  // checksum trailer). Only consulted by PreseedDedup: keys the predicate
  // rejects are NOT preseeded, so a server restarted under a different
  // shard layout never pre-rejects a batch that now belongs to another
  // shard's partition. Unset = this server owns every key.
  std::function<bool(uint64_t key)> owns_key;
  // Runs after every drained batch, inside the same critical section as
  // the sink ingest and any checkpoint. This is the epoch-rotation hook:
  // the callback sees the sink's state as a consistent cut and may swap
  // the sink's pipeline and seal the old one with cut.Keys()
  // (stream::EpochRotationService). Keep it fast when it does not rotate;
  // it runs on the drain thread.
  std::function<void(const DrainCut& cut)> after_drain;
};

class IngestServer {
 public:
  // `transport` and `sink` must outlive this server.
  IngestServer(Transport* transport, const std::string& endpoint,
               ReportSink* sink, IngestServerOptions options = {});
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  // Seeds both dedup windows with the drained keys recovered from a
  // snapshot (oldest first), so resends of batches the snapshot already
  // counts ack kAlreadyExists instead of double-counting. Keys rejected
  // by `options.owns_key` are skipped (and counted in
  // preseed_filtered()) — a resharded restart must not carry another
  // shard's history. Must be called before Start().
  void PreseedDedup(std::span<const uint64_t> drained_keys);

  // Binds the endpoint and starts the drain thread. False if the
  // transport could not bind.
  bool Start();

  // Stops accepting, drains every queued batch, joins the drain thread,
  // fires a final checkpoint when one is configured. Idempotent.
  void Stop();

  // Resolved endpoint (e.g. the actual TCP port when bound to port 0).
  std::string endpoint() const;

  // Blocks until the sink has been offered `count` reports (accepted or
  // rejected) or `timeout_ms` elapses; true on success. Lets tests and
  // drivers await a quiesced queue without polling the transport.
  bool WaitForReports(uint64_t count, int timeout_ms);

  // Runs `fn` under the drain lock: no batch is mid-ingest while it runs,
  // so — like a checkpoint or the after_drain hook — it observes one
  // consistent cut of the sink. This is how a clock-driven rotation
  // thread seals an epoch between batches. `fn` must not call back into
  // the server other than through `cut`.
  void WithDrainCut(const std::function<void(const DrainCut& cut)>& fn);

  // --- Stats (exact once Stop() returned or WaitForReports succeeded) ---
  uint64_t batches_accepted() const { return batches_accepted_.load(); }
  uint64_t batches_duplicate() const { return batches_duplicate_.load(); }
  uint64_t batches_rejected() const { return batches_rejected_.load(); }
  uint64_t batches_malformed() const { return batches_malformed_.load(); }
  uint64_t batches_undecodable() const { return batches_undecodable_.load(); }
  uint64_t checkpoints_written() const { return checkpoints_written_.load(); }
  uint64_t checkpoint_failures() const { return checkpoint_failures_.load(); }
  uint64_t batches_logged() const { return batches_logged_.load(); }
  uint64_t log_failures() const { return log_failures_.load(); }
  uint64_t preseed_filtered() const { return preseed_filtered_.load(); }
  // Copies of the drained-key window made so far (checkpoints and
  // DrainCut::Keys()).
  uint64_t drained_key_copies() const { return drained_key_copies_.load(); }
  uint64_t dedup_evictions() const;
  uint64_t reports_seen() const;

 private:
  std::vector<uint8_t> HandleFrame(uint64_t connection_id,
                                   std::vector<uint8_t>&& payload);
  void DrainLoop();
  friend class DrainCut;
  // Runs the checkpoint callback; caller must hold drain_mutex_.
  void CheckpointLocked();
  // Copies the drained-key window; caller must hold drain_mutex_.
  std::vector<uint64_t> DrainedKeysLocked();

  Transport* transport_;
  std::string endpoint_;
  ReportSink* sink_;
  IngestServerOptions options_;

  std::unique_ptr<FrameServer> frame_server_;
  BoundedQueue<std::vector<uint8_t>> queue_;
  std::thread drainer_;
  bool started_ = false;

  // Idempotency: admission window of every batch accepted into the queue.
  mutable std::mutex seen_mutex_;
  DedupWindow seen_;

  // Serializes {sink ingestion, drained-key append, checkpoint} so a
  // checkpoint always captures a batch and its key together or not at all.
  std::mutex drain_mutex_;
  DedupWindow drained_;
  uint64_t batches_since_checkpoint_ = 0;
  std::chrono::steady_clock::time_point last_checkpoint_;

  // Reports offered to the sink so far; guarded by reports_mutex_ for the
  // WaitForReports condition.
  mutable std::mutex reports_mutex_;
  std::condition_variable reports_cv_;
  uint64_t reports_seen_ = 0;

  std::atomic<uint64_t> batches_accepted_{0};
  std::atomic<uint64_t> batches_duplicate_{0};
  std::atomic<uint64_t> batches_rejected_{0};
  std::atomic<uint64_t> batches_malformed_{0};
  std::atomic<uint64_t> batches_undecodable_{0};
  std::atomic<uint64_t> checkpoints_written_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
  std::atomic<uint64_t> batches_logged_{0};
  std::atomic<uint64_t> log_failures_{0};
  std::atomic<uint64_t> preseed_filtered_{0};
  std::atomic<uint64_t> drained_key_copies_{0};
};

}  // namespace felip::svc

#endif  // FELIP_SVC_SERVER_H_
