// Wire contract of the accumulator pull/frame pair: exact round trips,
// and rejection of everything the root must not merge — truncations, bit
// flips, wrong message kinds, and frames whose topology fields are
// internally inconsistent. The frame's oracle section reuses the snapshot
// kOracles codec, so its deep validation is covered by the snapshot
// suites; here we pin the envelope. The truncation and bit-flip sweeps
// decode under an allocation cap (support/alloc_cap.h), so a decoder that
// sizes a buffer from a corrupted field fails here on every host.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/wire/wire.h"
#include "support/alloc_cap.h"

namespace felip::wire {
namespace {

AccumulatorFrameMessage SampleFrame() {
  AccumulatorFrameMessage frame;
  frame.shard_id = 2;
  frame.num_shards = 4;
  frame.epoch = 3;
  frame.sequence = 17;
  frame.plan_digest = 0x0123456789abcdefull;
  frame.reports_ingested = 100000;
  frame.sealed = true;
  frame.oracle_section = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
  return frame;
}

TEST(AccumulatorWireTest, PullRoundTrips) {
  AccumulatorPullMessage pull;
  pull.shard_id = 7;
  pull.seal = true;
  const auto decoded = DecodeAccumulatorPull(EncodeAccumulatorPull(pull));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, pull);

  const AccumulatorPullMessage plain;  // shard 0, no seal
  const auto decoded_plain =
      DecodeAccumulatorPull(EncodeAccumulatorPull(plain));
  ASSERT_TRUE(decoded_plain.ok());
  EXPECT_EQ(*decoded_plain, plain);
}

TEST(AccumulatorWireTest, FrameRoundTrips) {
  const AccumulatorFrameMessage frame = SampleFrame();
  const auto decoded = DecodeAccumulatorFrame(EncodeAccumulatorFrame(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, frame);

  // Empty oracle section (a shard that has not ingested anything yet
  // still answers pulls).
  AccumulatorFrameMessage empty = frame;
  empty.oracle_section.clear();
  empty.reports_ingested = 0;
  const auto decoded_empty =
      DecodeAccumulatorFrame(EncodeAccumulatorFrame(empty));
  ASSERT_TRUE(decoded_empty.ok());
  EXPECT_EQ(*decoded_empty, empty);
}

TEST(AccumulatorWireTest, EveryTruncationIsRejected) {
  const std::vector<uint8_t> encoded =
      EncodeAccumulatorFrame(SampleFrame());
  const std::vector<uint8_t> pull =
      EncodeAccumulatorPull(AccumulatorPullMessage{.shard_id = 1});
  const test_support::ScopedAllocationCap cap(encoded.size());
  for (size_t len = 0; len < encoded.size(); ++len) {
    const std::vector<uint8_t> cut(encoded.begin(), encoded.begin() + len);
    EXPECT_FALSE(DecodeAccumulatorFrame(cut).ok()) << "length " << len;
  }
  for (size_t len = 0; len < pull.size(); ++len) {
    const std::vector<uint8_t> cut(pull.begin(), pull.begin() + len);
    EXPECT_FALSE(DecodeAccumulatorPull(cut).ok()) << "length " << len;
  }
}

TEST(AccumulatorWireTest, EveryBitFlipIsRejected) {
  // The checksum trailer must catch any single-bit corruption anywhere in
  // the frame — header, topology fields, section bytes, or the trailer
  // itself. (A flip that survives decoding would merge garbage counts.)
  const std::vector<uint8_t> encoded =
      EncodeAccumulatorFrame(SampleFrame());
  const test_support::ScopedAllocationCap cap(encoded.size());
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    std::vector<uint8_t> damaged = encoded;
    damaged[byte] ^= 0x10;
    EXPECT_FALSE(DecodeAccumulatorFrame(damaged).ok()) << "byte " << byte;
  }
}

TEST(AccumulatorWireTest, WrongKindIsRejected) {
  const std::vector<uint8_t> pull =
      EncodeAccumulatorPull(AccumulatorPullMessage{});
  EXPECT_FALSE(DecodeAccumulatorFrame(pull).ok());
  const std::vector<uint8_t> frame =
      EncodeAccumulatorFrame(SampleFrame());
  EXPECT_FALSE(DecodeAccumulatorPull(frame).ok());
}

TEST(AccumulatorWireTest, InconsistentTopologyIsRejected) {
  // shard_id >= num_shards and num_shards == 0 cannot come from a
  // correctly configured shard; the decoder rejects them so the root
  // fails before adopting the frame.
  AccumulatorFrameMessage frame = SampleFrame();
  frame.shard_id = 4;  // == num_shards
  EXPECT_FALSE(DecodeAccumulatorFrame(EncodeAccumulatorFrame(frame)).ok());
  frame = SampleFrame();
  frame.num_shards = 0;
  frame.shard_id = 0;
  EXPECT_FALSE(DecodeAccumulatorFrame(EncodeAccumulatorFrame(frame)).ok());
}

TEST(AccumulatorWireTest, HugeOracleCountIsRejectedWithoutAllocating) {
  // A checksum-valid frame from the network whose oracle section claims
  // 2^32 - 1 grids but carries none: the root must reject it instead of
  // reserving room for billions of oracle states.
  AccumulatorFrameMessage frame = SampleFrame();
  frame.oracle_section = {0xff, 0xff, 0xff, 0xff};
  const auto decoded = DecodeAccumulatorFrame(EncodeAccumulatorFrame(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  std::vector<fo::OracleState> states;
  const Status status = snapshot::PipelineCodec::DecodeOracleSection(
      decoded->oracle_section, &states);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(states.capacity(), 0u);
}

}  // namespace
}  // namespace felip::wire
