// IngestServer + IngestClient behavior over the loopback transport: the
// ack protocol (accept / duplicate / backpressure / malformed), queue
// drain semantics, and the client retry loop that rides on top of them.

#include "felip/svc/server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/hash.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/svc/client.h"
#include "felip/svc/loopback.h"
#include "felip/svc/message.h"
#include "felip/svc/simulator.h"
#include "felip/svc/sink.h"
#include "felip/wire/wire.h"

namespace felip::svc {
namespace {

// Sink that counts reports and can be made to block, to hold the queue
// full while backpressure is probed.
class CountingSink final : public ReportSink {
 public:
  size_t IngestBatch(std::span<const wire::ReportMessage> reports) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      gate_.wait(lock, [this] { return !blocked_; });
      reports_ += reports.size();
      ++batches_;
    }
    return reports.size();
  }

  void Block() {
    std::lock_guard<std::mutex> lock(mutex_);
    blocked_ = true;
  }
  void Unblock() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      blocked_ = false;
    }
    gate_.notify_all();
  }
  uint64_t reports() {
    std::lock_guard<std::mutex> lock(mutex_);
    return reports_;
  }
  uint64_t batches() {
    std::lock_guard<std::mutex> lock(mutex_);
    return batches_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable gate_;
  bool blocked_ = false;
  uint64_t reports_ = 0;
  uint64_t batches_ = 0;
};

std::vector<wire::ReportMessage> GrrBatch(uint64_t start, size_t count) {
  std::vector<wire::ReportMessage> batch(count);
  for (size_t i = 0; i < count; ++i) {
    batch[i].grid_index = 0;
    batch[i].payload = uint64_t{start + i};
  }
  return batch;
}

// Recomputes the xxHash64 trailer after mutating the body, producing a
// frame that is checksum-valid but structurally whatever we made it.
void Reseal(std::vector<uint8_t>* frame) {
  ASSERT_GE(frame->size(), 8u);
  const uint64_t checksum = XxHash64Bytes(
      frame->data(), frame->size() - 8, wire::kChecksumSalt);
  std::memcpy(frame->data() + frame->size() - 8, &checksum, 8);
}

std::optional<Ack> RoundTrip(FrameConnection* connection,
                             const std::vector<uint8_t>& frame) {
  if (!connection->SendFrame(frame)) return std::nullopt;
  std::vector<uint8_t> response;
  if (connection->RecvFrame(&response, 2000) != RecvStatus::kOk) {
    return std::nullopt;
  }
  const StatusOr<Ack> ack = DecodeAck(response);
  if (!ack.ok()) return std::nullopt;
  return *ack;
}

TEST(IngestServerTest, ClientDeliversBatchesAndServerDrainsThem) {
  LoopbackTransport transport;
  CountingSink sink;
  IngestServer server(&transport, "ingest", &sink);
  ASSERT_TRUE(server.Start());

  IngestClient client(&transport, server.endpoint());
  for (int b = 0; b < 5; ++b) {
    const SendOutcome outcome = client.SendBatch(GrrBatch(b * 100, 10));
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_FALSE(outcome.duplicate);
  }
  ASSERT_TRUE(server.WaitForReports(50, 2000));
  server.Stop();

  EXPECT_EQ(server.batches_accepted(), 5u);
  EXPECT_EQ(server.batches_duplicate(), 0u);
  EXPECT_EQ(server.batches_rejected(), 0u);
  EXPECT_EQ(server.batches_malformed(), 0u);
  EXPECT_EQ(server.reports_seen(), 50u);
  EXPECT_EQ(sink.reports(), 50u);
  EXPECT_EQ(sink.batches(), 5u);
}

TEST(IngestServerTest, ResendingTheSameBatchAcksDuplicate) {
  LoopbackTransport transport;
  CountingSink sink;
  IngestServer server(&transport, "ingest", &sink);
  ASSERT_TRUE(server.Start());

  const std::vector<uint8_t> frame =
      wire::EncodeReportBatch(GrrBatch(0, 8));
  const std::optional<uint64_t> checksum = ChecksumTrailer(frame);
  ASSERT_TRUE(checksum.has_value());

  auto connection = transport.Connect(server.endpoint(), 1000);
  ASSERT_NE(connection, nullptr);
  const std::optional<Ack> first = RoundTrip(connection.get(), frame);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, StatusCode::kOk);
  EXPECT_EQ(first->batch_checksum, *checksum);

  // The idempotent-resend path: same frame again, even after the first
  // copy has fully drained.
  ASSERT_TRUE(server.WaitForReports(8, 2000));
  const std::optional<Ack> second = RoundTrip(connection.get(), frame);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, StatusCode::kAlreadyExists);
  EXPECT_EQ(second->batch_checksum, *checksum);

  server.Stop();
  EXPECT_EQ(server.batches_accepted(), 1u);
  EXPECT_EQ(server.batches_duplicate(), 1u);
  EXPECT_EQ(sink.reports(), 8u);  // counted exactly once
}

TEST(IngestServerTest, FullQueueAcksRetryLaterAndAcceptsTheResend) {
  LoopbackTransport transport;
  CountingSink sink;
  IngestServerOptions options;
  options.queue_capacity = 1;
  options.worker_threads = 1;
  options.retry_after_ms = 7;
  IngestServer server(&transport, "ingest", &sink, options);
  ASSERT_TRUE(server.Start());

  // Hold the worker inside the sink so batch #1 occupies the worker and
  // batch #2 occupies the queue slot; batch #3 must be rejected.
  sink.Block();
  auto connection = transport.Connect(server.endpoint(), 1000);
  ASSERT_NE(connection, nullptr);
  const std::optional<Ack> a1 =
      RoundTrip(connection.get(), wire::EncodeReportBatch(GrrBatch(0, 4)));
  ASSERT_TRUE(a1.has_value());
  EXPECT_EQ(a1->status, StatusCode::kOk);
  // Wait until the worker has popped batch #1 (frees a queue slot and
  // blocks in the sink), then fill the slot with batch #2.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::optional<Ack> a2;
  while (std::chrono::steady_clock::now() < deadline) {
    a2 = RoundTrip(connection.get(),
                   wire::EncodeReportBatch(GrrBatch(100, 4)));
    ASSERT_TRUE(a2.has_value());
    if (a2->status == StatusCode::kOk) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(a2.has_value());
  ASSERT_EQ(a2->status, StatusCode::kOk);

  const std::vector<uint8_t> third =
      wire::EncodeReportBatch(GrrBatch(200, 4));
  std::optional<Ack> a3;
  // The queue now holds batch #2 and the worker is stuck on #1; the third
  // batch may need a few tries if the worker races us, but with the sink
  // blocked it must eventually see backpressure.
  for (int i = 0; i < 50; ++i) {
    a3 = RoundTrip(connection.get(), third);
    ASSERT_TRUE(a3.has_value());
    if (a3->status == StatusCode::kResourceExhausted) break;
  }
  ASSERT_TRUE(a3.has_value());
  ASSERT_EQ(a3->status, StatusCode::kResourceExhausted);
  EXPECT_EQ(a3->retry_after_ms, 7u);
  EXPECT_GE(server.batches_rejected(), 1u);

  // A backpressure reject is NOT recorded as seen: once the queue drains,
  // the identical resend must be accepted, not deduplicated.
  sink.Unblock();
  std::optional<Ack> resend;
  for (int i = 0; i < 200; ++i) {
    resend = RoundTrip(connection.get(), third);
    ASSERT_TRUE(resend.has_value());
    if (resend->status != StatusCode::kResourceExhausted) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(resend->retry_after_ms));
  }
  ASSERT_TRUE(resend.has_value());
  EXPECT_EQ(resend->status, StatusCode::kOk);

  ASSERT_TRUE(server.WaitForReports(12, 2000));
  server.Stop();
  EXPECT_EQ(sink.reports(), 12u);
}

TEST(IngestServerTest, CorruptedFrameAcksMalformedAndIsNeverCounted) {
  LoopbackTransport transport;
  CountingSink sink;
  IngestServer server(&transport, "ingest", &sink);
  ASSERT_TRUE(server.Start());

  std::vector<uint8_t> frame = wire::EncodeReportBatch(GrrBatch(0, 4));
  frame[frame.size() / 2] ^= 0xFF;  // checksum now fails

  auto connection = transport.Connect(server.endpoint(), 1000);
  ASSERT_NE(connection, nullptr);
  const std::optional<Ack> ack = RoundTrip(connection.get(), frame);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, StatusCode::kDataLoss);

  // Truncated-below-trailer frames are malformed too.
  const std::optional<Ack> tiny =
      RoundTrip(connection.get(), std::vector<uint8_t>{1, 2, 3});
  ASSERT_TRUE(tiny.has_value());
  EXPECT_EQ(tiny->status, StatusCode::kDataLoss);

  server.Stop();
  EXPECT_EQ(server.batches_malformed(), 2u);
  EXPECT_EQ(server.batches_accepted(), 0u);
  EXPECT_EQ(sink.reports(), 0u);
}

TEST(IngestServerTest, ChecksumValidButUndecodableBatchIsCountedNotSunk) {
  LoopbackTransport transport;
  CountingSink sink;
  IngestServer server(&transport, "ingest", &sink);
  ASSERT_TRUE(server.Start());

  // Corrupt the body, then reseal the trailer: passes the IO-thread
  // integrity gate, fails structural decoding on the worker.
  std::vector<uint8_t> frame = wire::EncodeReportBatch(GrrBatch(0, 4));
  frame[0] ^= 0xFF;  // break the magic
  Reseal(&frame);

  auto connection = transport.Connect(server.endpoint(), 1000);
  ASSERT_NE(connection, nullptr);
  const std::optional<Ack> ack = RoundTrip(connection.get(), frame);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, StatusCode::kOk);

  server.Stop();  // drains the queue
  EXPECT_EQ(server.batches_undecodable(), 1u);
  EXPECT_EQ(sink.batches(), 0u);
  EXPECT_EQ(sink.reports(), 0u);
}

// A worker decodes every frame into one vector it keeps across frames. A
// short batch after a long one, then an undecodable batch that fails
// midway, must reach the sink with nothing left over from an earlier
// frame: exactly the reports sent, aggregated as an in-process ingest of
// them would be.
TEST(IngestServerTest, ReusedDecodeBufferNeverSinksAStaleTail) {
  constexpr uint64_t kUsers = 6000;
  const data::Dataset dataset = data::MakeIpumsLike(kUsers, 4, 30, 6, 7);
  core::FelipConfig config;
  config.strategy = core::Strategy::kOhg;
  config.epsilon = 1.0;
  config.seed = 7;
  const auto new_pipeline = [&] {
    return core::FelipPipeline(dataset.attributes(), kUsers, config);
  };

  // One round's reports, split by protocol.
  core::FelipPipeline planned = new_pipeline();
  std::vector<wire::GridConfigMessage> grid_configs;
  for (uint32_t g = 0; g < planned.num_groups(); ++g) {
    grid_configs.push_back(wire::MakeGridConfig(
        planned, dataset.attributes(), g, planned.per_grid_epsilon(),
        config.protocol_options()));
  }
  SimulatorOptions simulator_options;
  simulator_options.seed = config.seed;
  std::map<fo::Protocol, std::vector<wire::ReportMessage>> by_protocol;
  ASSERT_TRUE(PopulationSimulator(grid_configs, simulator_options)
                  .Run(dataset,
                       [&](const std::vector<wire::ReportMessage>& batch) {
                         for (const wire::ReportMessage& m : batch) {
                           by_protocol[m.protocol()].push_back(m);
                         }
                         return true;
                       })
                  .has_value());
  ASSERT_GE(by_protocol.size(), 2u);
  auto most = by_protocol.begin();
  for (auto it = by_protocol.begin(); it != by_protocol.end(); ++it) {
    if (it->second.size() > most->second.size()) most = it;
  }
  auto other = by_protocol.begin();
  if (other == most) ++other;
  ASSERT_GE(most->second.size(), 2005u);
  ASSERT_GE(other->second.size(), 3u);
  const std::vector<wire::ReportMessage> long_batch(
      most->second.begin(), most->second.begin() + 2000);
  const std::vector<wire::ReportMessage> short_batch(
      other->second.begin(), other->second.begin() + 3);
  // Checksum-valid, but record 3 carries an unknown protocol byte.
  const std::vector<wire::ReportMessage> victim(
      most->second.begin() + 2000, most->second.begin() + 2005);
  std::vector<uint8_t> undecodable = wire::EncodeReportBatch(victim);
  size_t offset = 6 + 4;  // header + report count
  for (size_t i = 0; i < 3; ++i) {
    offset += wire::EncodeReport(victim[i]).size() - 6 - 8;
  }
  undecodable[offset + 4] = 0x7f;
  Reseal(&undecodable);

  core::FelipPipeline served = new_pipeline();
  PipelineSink sink(&served);
  LoopbackTransport transport;
  IngestServerOptions options;
  options.worker_threads = 1;
  IngestServer server(&transport, "ingest", &sink, options);
  ASSERT_TRUE(server.Start());
  auto connection = transport.Connect(server.endpoint(), 1000);
  ASSERT_NE(connection, nullptr);
  for (const std::vector<uint8_t>& frame :
       {wire::EncodeReportBatch(long_batch),
        wire::EncodeReportBatch(short_batch), undecodable}) {
    const std::optional<Ack> ack = RoundTrip(connection.get(), frame);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->status, StatusCode::kOk);
  }
  server.Stop();  // drains all three
  sink.Finish();
  EXPECT_EQ(server.batches_undecodable(), 1u);
  EXPECT_EQ(server.reports_seen(), 2003u);
  EXPECT_EQ(sink.accepted() + sink.rejected(), 2003u);
  EXPECT_EQ(sink.rejected(), 0u);

  core::FelipPipeline reference = new_pipeline();
  reference.BeginIngest();
  for (const auto* batch : {&long_batch, &short_batch}) {
    for (const wire::ReportMessage& m : *batch) {
      ASSERT_TRUE(reference.IngestReport(m.grid_index, m).ok());
    }
  }
  reference.FinishIngest();
  reference.Finalize();
  served.Finalize();
  EXPECT_EQ(core::GridFrequencyDigest(served),
            core::GridFrequencyDigest(reference));
}

TEST(IngestServerTest, WaitForReportsTimesOutWhenShortOfCount) {
  LoopbackTransport transport;
  CountingSink sink;
  IngestServer server(&transport, "ingest", &sink);
  ASSERT_TRUE(server.Start());

  IngestClient client(&transport, server.endpoint());
  EXPECT_TRUE(client.SendBatch(GrrBatch(0, 5)).ok());
  EXPECT_TRUE(server.WaitForReports(5, 2000));
  EXPECT_FALSE(server.WaitForReports(6, 50));
  server.Stop();
}

TEST(IngestServerTest, StopDrainsEverythingAlreadyAccepted) {
  LoopbackTransport transport;
  CountingSink sink;
  IngestServerOptions options;
  options.queue_capacity = 64;
  options.worker_threads = 4;
  IngestServer server(&transport, "ingest", &sink, options);
  ASSERT_TRUE(server.Start());

  IngestClient client(&transport, server.endpoint());
  constexpr int kBatches = 32;
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(client.SendBatch(GrrBatch(b * 1000, 16)).ok());
  }
  // No WaitForReports: Stop() itself must guarantee the drain.
  server.Stop();
  EXPECT_EQ(server.batches_accepted(), static_cast<uint64_t>(kBatches));
  EXPECT_EQ(sink.reports(), static_cast<uint64_t>(kBatches) * 16);
}

TEST(IngestServerTest, AfterDrainHookCopiesTheKeyWindowOnlyWhenAsked) {
  // The rotation hook runs on every drained batch; the drained-key window
  // (up to dedup_capacity keys) must be copied only when the hook reads
  // it, as an epoch server does on a seal, never once per batch.
  LoopbackTransport transport;
  CountingSink sink;
  IngestServerOptions options;
  uint64_t hooks = 0;
  std::vector<size_t> window_sizes;
  options.after_drain = [&](const DrainCut& cut) {
    if (++hooks % 10 == 0) window_sizes.push_back(cut.Keys().size());
  };
  IngestServer server(&transport, "ingest", &sink, options);
  ASSERT_TRUE(server.Start());
  IngestClient client(&transport, server.endpoint());
  constexpr int kBatches = 25;
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(client.SendBatch(GrrBatch(b * 100, 4)).ok());
    if (b == 8) {
      ASSERT_TRUE(server.WaitForReports(36, 2000));
      EXPECT_EQ(server.drained_key_copies(), 0u) << "no hook read yet";
    }
  }
  ASSERT_TRUE(server.WaitForReports(kBatches * 4, 2000));
  server.Stop();
  EXPECT_EQ(hooks, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(server.drained_key_copies(), 2u);
  EXPECT_EQ(window_sizes, (std::vector<size_t>{10, 20}));

  // A cut taken between batches reads the same window on request only.
  server.WithDrainCut([](const DrainCut&) {});
  EXPECT_EQ(server.drained_key_copies(), 2u);
  server.WithDrainCut(
      [](const DrainCut& cut) { EXPECT_EQ(cut.Keys().size(), 25u); });
  EXPECT_EQ(server.drained_key_copies(), 3u);
}

TEST(IngestClientTest, GivesUpAfterMaxAttemptsAgainstDeadEndpoint) {
  LoopbackTransport transport;  // nothing registered at "nowhere"
  IngestClientOptions options;
  options.max_attempts = 3;
  options.connect_timeout_ms = 20;
  options.response_timeout_ms = 20;
  IngestClient client(&transport, "nowhere", options);
  const SendOutcome outcome = client.SendBatch(GrrBatch(0, 2));
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 3);
}

TEST(IngestClientTest, FixedJitterSeedReplaysTheSameRetrySchedule) {
  const auto run = [](uint64_t seed) {
    LoopbackTransport transport;
    IngestClientOptions options;
    options.max_attempts = 5;
    options.connect_timeout_ms = 10;
    options.response_timeout_ms = 10;
    options.jitter_seed = seed;
    IngestClient client(&transport, "nowhere", options);
    client.SendBatch(GrrBatch(0, 2));
    return client.retries();
  };
  EXPECT_EQ(run(11), run(11));
}

}  // namespace
}  // namespace felip::svc
