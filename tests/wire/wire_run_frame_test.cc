// The grid-run report frame's decoders against hand-built frames and
// seeded batches. Every frame shape the encoder never writes — a zero
// count, a zero-bit record, a width outside {1, 2, 4, 8} or wider than
// its field, a count or run count past the bytes present, set pad bits,
// an unknown protocol or pooled byte, trailing bytes — must fail both the
// whole-frame DecodeReportBatch and the drain path's
// ReportChunkDecoder::Validate. A seeded property pins both decoders to
// the encoded batch, in batch order, and sweeps pin the two decoders to
// each other on every truncation and resealed bit flip.
//
// Everything runs under the allocation cap (support/alloc_cap.h). Each
// test builds its ReportChunkDecoder before arming the cap: the chunk
// buffer is allocated once, by the constructor, and sized by
// kReportChunkSize rather than by any frame.

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/wire/framing.h"
#include "felip/wire/wire.h"
#include "support/alloc_cap.h"

namespace felip::wire {
namespace {

constexpr size_t kHeaderSize = 6;   // magic(4) + version(1) + kind(1)
constexpr size_t kTrailerSize = 8;  // xxHash64
constexpr uint8_t kReportRunsKind = 10;

// Builds a sealed report-batch frame byte by byte.
class FrameBuilder {
 public:
  explicit FrameBuilder(uint32_t runs) {
    Put<uint32_t>(kMagic).Put<uint8_t>(kVersion).Put<uint8_t>(kReportRunsKind);
    Put<uint32_t>(runs);
  }
  template <typename T>
  FrameBuilder& Put(T value) {
    Writer(&bytes_).Put<T>(value);
    return *this;
  }
  // A run header; `layout` is everything after the count.
  FrameBuilder& Run(uint32_t grid, uint8_t protocol, uint32_t count,
                    std::initializer_list<uint8_t> layout) {
    Put<uint32_t>(grid).Put<uint8_t>(protocol).Put<uint32_t>(count);
    for (const uint8_t b : layout) Put<uint8_t>(b);
    return *this;
  }
  FrameBuilder& Bytes(size_t count, uint8_t value) {
    bytes_.insert(bytes_.end(), count, value);
    return *this;
  }
  std::vector<uint8_t> Sealed() const {
    std::vector<uint8_t> frame = bytes_;
    SealChecksum(&frame, kChecksumSalt);
    return frame;
  }

 private:
  std::vector<uint8_t> bytes_;
};

// Both decoders' verdict and reports: the whole-frame decoder, and the
// chunk decoder's chunks concatenated (with every chunk within the size
// cap).
struct Decoded {
  bool whole_ok = false;
  bool chunks_ok = false;
  std::vector<ReportMessage> whole;
  std::vector<ReportMessage> chunks;
};

Decoded DecodeBoth(const std::vector<uint8_t>& frame,
                   ReportChunkDecoder& decoder) {
  Decoded out;
  StatusOr<std::vector<ReportMessage>> whole = DecodeReportBatch(frame);
  out.whole_ok = whole.ok();
  if (whole.ok()) out.whole = *std::move(whole);
  out.chunks_ok = decoder.Validate(frame).ok();
  if (out.chunks_ok) {
    decoder.Decode([&out](std::span<const ReportMessage> chunk) {
      EXPECT_LE(chunk.size(), kReportChunkSize);
      out.chunks.insert(out.chunks.end(), chunk.begin(), chunk.end());
    });
  }
  return out;
}

void ExpectRejected(const std::vector<uint8_t>& frame,
                    ReportChunkDecoder& decoder) {
  const test_support::ScopedAllocationCap cap(frame.size());
  EXPECT_FALSE(DecodeReportBatch(frame).ok());
  EXPECT_FALSE(decoder.Validate(frame).ok());
}

TEST(WireRunFrameTest, HandBuiltRunsDecode) {
  // The builder's frames are what the encoder writes: a GRR run with
  // 2-byte values, then a pooled OLH run (pool index, hashed report).
  ReportChunkDecoder decoder;
  const std::vector<uint8_t> frame = FrameBuilder(2)
                                         .Run(3, 0, 2, {2})
                                         .Put<uint16_t>(300)
                                         .Put<uint16_t>(7)
                                         .Run(5, 1, 1, {1, 1, 1})
                                         .Put<uint8_t>(9)
                                         .Put<uint8_t>(2)
                                         .Sealed();
  const test_support::ScopedAllocationCap cap(frame.size());
  const Decoded decoded = DecodeBoth(frame, decoder);
  ASSERT_TRUE(decoded.whole_ok);
  ASSERT_TRUE(decoded.chunks_ok);
  ASSERT_EQ(decoded.whole.size(), 3u);
  EXPECT_EQ(decoded.whole[0].grid_index, 3u);
  EXPECT_EQ(std::get<uint64_t>(decoded.whole[0].payload), 300u);
  EXPECT_EQ(std::get<uint64_t>(decoded.whole[1].payload), 7u);
  EXPECT_EQ(decoded.whole[2].grid_index, 5u);
  EXPECT_EQ(std::get<fo::OlhReport>(decoded.whole[2].payload),
            (fo::OlhReport{.seed = 0, .hashed_report = 2, .seed_index = 9}));
  EXPECT_EQ(decoded.chunks, decoded.whole);
}

TEST(WireRunFrameTest, ZeroCountRunFails) {
  ReportChunkDecoder decoder;
  ExpectRejected(FrameBuilder(1).Run(0, 0, 0, {1}).Sealed(), decoder);
  // Even followed by a valid run.
  ExpectRejected(
      FrameBuilder(2).Run(0, 0, 0, {1}).Run(1, 3, 1, {1}).Bytes(1, 4).Sealed(),
      decoder);
}

TEST(WireRunFrameTest, ZeroBitRecordStillTakesAByte) {
  // An empty bit vector packs into one zero byte, so no record is zero
  // bytes and a run count is always bounded by the bytes present.
  ReportChunkDecoder decoder;
  // An OUE run of bit length 0 (the layout bytes) and `bytes` records.
  const auto oue_run = [&](uint32_t count, size_t bytes, uint8_t value) {
    FrameBuilder frame(1);
    frame.Run(0, 2, count, {0, 0, 0, 0});
    return frame.Bytes(bytes, value).Sealed();
  };
  {
    const std::vector<uint8_t> frame = oue_run(4, 4, 0);
    const test_support::ScopedAllocationCap cap(frame.size());
    const Decoded decoded = DecodeBoth(frame, decoder);
    ASSERT_TRUE(decoded.whole_ok);
    ASSERT_TRUE(decoded.chunks_ok);
    ASSERT_EQ(decoded.whole.size(), 4u);
    EXPECT_TRUE(std::get<std::vector<uint8_t>>(decoded.whole[0].payload)
                    .empty());
  }
  ExpectRejected(oue_run(5, 4, 0), decoder);
  ExpectRejected(oue_run(1u << 31, 4, 0), decoder);
  ExpectRejected(oue_run(4, 4, 1), decoder);  // a set pad bit
  // FLDP: a subset index and one zero byte.
  ExpectRejected(FrameBuilder(1)
                     .Run(0, 4, 0xffffffffu, {1, 0, 0, 0, 0})
                     .Bytes(8, 0)
                     .Sealed(),
                 decoder);
}

TEST(WireRunFrameTest, WidthOutsideTheSetFails) {
  ReportChunkDecoder decoder;
  for (const uint8_t width : {0, 3, 5, 6, 7, 9, 16, 255}) {
    SCOPED_TRACE(static_cast<int>(width));
    ExpectRejected(
        FrameBuilder(1).Run(0, 0, 1, {width}).Bytes(width, 1).Sealed(),
        decoder);
    ExpectRejected(FrameBuilder(1)
                       .Run(0, 1, 1, {0, 8, width})
                       .Bytes(8 + width, 0)
                       .Sealed(),
                   decoder);
  }
}

TEST(WireRunFrameTest, FieldWiderThanItsTypeFails) {
  ReportChunkDecoder decoder;
  // 64-bit fields take 8 bytes: a GRR value, a per-user OLH seed.
  {
    const std::vector<uint8_t> frame =
        FrameBuilder(2)
            .Run(0, 0, 1, {8})
            .Put<uint64_t>(~uint64_t{0})
            .Run(1, 1, 1, {0, 8, 1})
            .Put<uint64_t>(0x0123456789abcdefull)
            .Put<uint8_t>(3)
            .Sealed();
    const test_support::ScopedAllocationCap cap(frame.size());
    const Decoded decoded = DecodeBoth(frame, decoder);
    EXPECT_TRUE(decoded.whole_ok);
    EXPECT_TRUE(decoded.chunks_ok);
  }
  // 32-bit fields do not: a PGR point, a pool index, a hashed report, an
  // FLDP subset index.
  ExpectRejected(FrameBuilder(1).Run(0, 3, 1, {8}).Bytes(8, 0).Sealed(),
                 decoder);
  ExpectRejected(FrameBuilder(1).Run(0, 1, 1, {1, 8, 1}).Bytes(9, 0).Sealed(),
                 decoder);
  ExpectRejected(FrameBuilder(1).Run(0, 1, 1, {0, 8, 8}).Bytes(16, 0).Sealed(),
                 decoder);
  ExpectRejected(
      FrameBuilder(1).Run(0, 4, 1, {8, 8, 0, 0, 0}).Bytes(9, 0).Sealed(),
      decoder);
}

TEST(WireRunFrameTest, CountTimesRecordWidthPastTheBytesFails) {
  ReportChunkDecoder decoder;
  // Three 8-byte GRR values need 24 bytes.
  const auto grr = [](size_t bytes) {
    return FrameBuilder(1).Run(0, 0, 3, {8}).Bytes(bytes, 0).Sealed();
  };
  {
    const std::vector<uint8_t> frame = grr(24);
    const test_support::ScopedAllocationCap cap(frame.size());
    EXPECT_TRUE(DecodeReportBatch(frame).ok());
    EXPECT_TRUE(decoder.Validate(frame).ok());
    decoder.Decode([](std::span<const ReportMessage>) {});
  }
  ExpectRejected(grr(23), decoder);
  // 100 FLDP records of 4-byte subset index and 2^20 bits.
  ExpectRejected(FrameBuilder(1)
                     .Run(0, 4, 100, {4, 0, 0, 0x10, 0})
                     .Bytes(4 + 0x20000, 0)
                     .Sealed(),
                 decoder);
}

TEST(WireRunFrameTest, RunCountPastTheBytesFails) {
  ReportChunkDecoder decoder;
  const auto pgr_runs = [](uint32_t declared, uint32_t present) {
    FrameBuilder frame(declared);
    for (uint32_t r = 0; r < present; ++r) {
      frame.Run(r, 3, 1, {1}).Put<uint8_t>(1);
    }
    return frame.Sealed();
  };
  {
    const std::vector<uint8_t> frame = pgr_runs(3, 3);
    const test_support::ScopedAllocationCap cap(frame.size());
    EXPECT_TRUE(DecodeReportBatch(frame).ok());
  }
  ExpectRejected(pgr_runs(4, 3), decoder);
  ExpectRejected(pgr_runs(0xffffffffu, 3), decoder);
  // Fewer runs declared than present leaves trailing bytes.
  ExpectRejected(pgr_runs(2, 3), decoder);
  ExpectRejected(pgr_runs(0, 1), decoder);
}

TEST(WireRunFrameTest, UnknownProtocolOrPooledByteFails) {
  ReportChunkDecoder decoder;
  for (const uint8_t protocol : {5, 6, 0x7f, 0xff}) {
    ExpectRejected(
        FrameBuilder(1).Run(0, protocol, 1, {1}).Bytes(1, 0).Sealed(),
        decoder);
  }
  for (const uint8_t pooled : {2, 0xff}) {
    ExpectRejected(
        FrameBuilder(1).Run(0, 1, 1, {pooled, 1, 1}).Bytes(2, 0).Sealed(),
        decoder);
  }
  // A pooled pool index of OlhReport::kNoPool would decode as a per-user
  // report: rejected.
  ExpectRejected(FrameBuilder(1)
                     .Run(0, 1, 1, {1, 4, 1})
                     .Put<uint32_t>(fo::OlhReport::kNoPool)
                     .Put<uint8_t>(0)
                     .Sealed(),
                 decoder);
}

TEST(WireRunFrameTest, TrailingBytesFail) {
  ReportChunkDecoder decoder;
  for (const size_t extra : {1, 3, 11}) {
    ExpectRejected(
        FrameBuilder(1).Run(0, 3, 1, {1}).Bytes(1 + extra, 0).Sealed(),
        decoder);
  }
}

// A seeded batch of every shape: GRR, pooled and per-user OLH, OUE, PGR
// and FLDP reports over a few grids, some far apart, with the values and
// bit lengths a grid's honest clients never mix.
std::vector<ReportMessage> RandomBatch(Rng& rng, size_t size) {
  std::vector<ReportMessage> batch(size);
  for (ReportMessage& m : batch) {
    m.grid_index = rng.UniformU64(4) == 0
                       ? static_cast<uint32_t>(rng.UniformU64(1u << 31))
                       : static_cast<uint32_t>(rng.UniformU64(8));
    const uint64_t wide = uint64_t{1} << rng.UniformU64(64);
    const uint64_t value = rng.UniformU64(wide) | (wide >> 1);
    const auto bits = [&rng] {
      std::vector<uint8_t> v(rng.UniformU64(20));
      for (uint8_t& b : v) b = static_cast<uint8_t>(rng.UniformU64(2));
      return v;
    };
    switch (rng.UniformU64(6)) {
      case 0:
        m.payload = value;
        break;
      case 1:  // pooled OLH: the seed does not travel
        m.payload = fo::OlhReport{
            .seed = rng.Next(),
            .hashed_report = static_cast<uint32_t>(value),
            .seed_index = static_cast<uint32_t>(
                rng.UniformU64(fo::OlhReport::kNoPool))};
        break;
      case 2:
        m.payload = fo::OlhReport{.seed = value,
                                  .hashed_report =
                                      static_cast<uint32_t>(rng.Next())};
        break;
      case 3:
        m.payload = bits();
        break;
      case 4:
        m.payload = static_cast<uint32_t>(value);
        break;
      default:
        m.payload = fo::FldpReport{
            .subset_index = static_cast<uint32_t>(value), .bits = bits()};
        break;
    }
  }
  return batch;
}

// What the decoders must give back for `batch`: the batch in its own
// order, with pooled OLH seeds decoded as 0.
std::vector<ReportMessage> AsDecoded(std::vector<ReportMessage> batch) {
  for (ReportMessage& m : batch) {
    if (auto* olh = std::get_if<fo::OlhReport>(&m.payload);
        olh != nullptr && olh->seed_index != fo::OlhReport::kNoPool) {
      olh->seed = 0;
    }
  }
  return batch;
}

// The run count a frame declares.
uint32_t RunCount(const std::vector<uint8_t>& frame) {
  uint32_t runs = 0;
  std::memcpy(&runs, frame.data() + kHeaderSize, sizeof(runs));
  return runs;
}

TEST(WireRunFrameTest, SeededRoundTripKeepsBatchOrder) {
  ReportChunkDecoder decoder;
  Rng rng(20261019);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t size = trial < 2 ? static_cast<size_t>(trial)
                                  : 1 + rng.UniformU64(3000);
    const std::vector<ReportMessage> batch = RandomBatch(rng, size);
    const std::vector<uint8_t> frame = EncodeReportBatch(batch);
    const std::vector<ReportMessage> expected = AsDecoded(batch);

    // The whole-frame convenience holds a 48-byte ReportMessage per report,
    // more than 16x a frame of 1-byte records; the drain path never builds
    // it, so it runs outside the cap.
    const StatusOr<std::vector<ReportMessage>> whole =
        DecodeReportBatch(frame);
    ASSERT_TRUE(whole.ok()) << "trial " << trial;
    EXPECT_EQ(*whole, expected) << "trial " << trial;
    EXPECT_EQ(EncodeReportBatch(*whole), frame) << "trial " << trial;

    const test_support::ScopedAllocationCap cap(frame.size());
    ASSERT_TRUE(decoder.Validate(frame).ok()) << "trial " << trial;
    EXPECT_EQ(decoder.report_count(), batch.size());
    size_t at = 0;
    bool same = true;
    decoder.Decode([&](std::span<const ReportMessage> chunk) {
      EXPECT_LE(chunk.size(), kReportChunkSize);
      for (const ReportMessage& m : chunk) {
        same = same && at < expected.size() && m == expected[at];
        ++at;
      }
    });
    EXPECT_TRUE(same) << "trial " << trial;
    EXPECT_EQ(at, expected.size()) << "trial " << trial;
  }
}

TEST(WireRunFrameTest, InterleavedBatchTakesOneRunPerChange) {
  // A batch whose grids interleave takes a new run wherever the grid
  // changes, and wherever the report shape changes within a grid (grid
  // 1's GRR then PGR report), and decodes in batch order.
  const auto report = [](uint32_t grid_index, fo::ReportPayload payload) {
    ReportMessage m;
    m.payload = std::move(payload);
    m.grid_index = grid_index;
    return m;
  };
  const std::vector<ReportMessage> batch = {
      report(1, uint64_t{5}),
      report(1, uint64_t{6}),
      report(2, fo::OlhReport{0, 1, 3}),
      report(1, uint64_t{7}),
      report(1, uint32_t{8}),
      report(3, std::vector<uint8_t>{1, 0}),
      report(3, std::vector<uint8_t>{0, 1}),
      report(2, fo::OlhReport{0, 2, 4}),
  };
  ReportChunkDecoder decoder;
  const std::vector<uint8_t> frame = EncodeReportBatch(batch);
  EXPECT_EQ(RunCount(frame), 6u);
  const test_support::ScopedAllocationCap cap(frame.size());
  const Decoded decoded = DecodeBoth(frame, decoder);
  ASSERT_TRUE(decoded.whole_ok);
  ASSERT_TRUE(decoded.chunks_ok);
  EXPECT_EQ(decoded.whole, batch);
  EXPECT_EQ(decoded.chunks, batch);
  // The same reports grouped by grid take one run per grid.
  const std::vector<ReportMessage> grouped = {
      batch[0], batch[1], batch[3], batch[2], batch[7], batch[5], batch[6]};
  EXPECT_EQ(RunCount(EncodeReportBatch(grouped)), 3u);
}

// A small frame of every shape, for the sweeps.
std::vector<uint8_t> SweepFrame() {
  Rng rng(77);
  return EncodeReportBatch(RandomBatch(rng, 24));
}

TEST(WireRunFrameTest, EveryTruncationFailsBothDecoders) {
  ReportChunkDecoder decoder;
  const std::vector<uint8_t> full = SweepFrame();
  const test_support::ScopedAllocationCap cap(full.size());
  for (size_t len = 0; len < full.size(); ++len) {
    const std::vector<uint8_t> prefix(full.begin(), full.begin() + len);
    EXPECT_FALSE(DecodeReportBatch(prefix).ok()) << "len " << len;
    // The chunk decoder trusts the trailer, so also reseal the prefix:
    // structure alone must reject it.
    EXPECT_FALSE(decoder.Validate(prefix).ok()) << "len " << len;
    if (len >= kHeaderSize + kTrailerSize) {
      std::vector<uint8_t> resealed(full.begin(),
                                    full.begin() + (len - kTrailerSize));
      SealChecksum(&resealed, kChecksumSalt);
      EXPECT_FALSE(decoder.Validate(resealed).ok()) << "resealed " << len;
      EXPECT_FALSE(DecodeReportBatch(resealed).ok()) << "resealed " << len;
    }
  }
}

TEST(WireRunFrameTest, EveryBitFlipIsRejectedOrDecodesAlikeOnBothDecoders) {
  ReportChunkDecoder decoder;
  const std::vector<uint8_t> full = SweepFrame();
  const size_t body = full.size() - kTrailerSize;
  const test_support::ScopedAllocationCap cap(full.size());
  size_t accepted = 0;
  for (size_t i = 0; i < full.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = full;
      flipped[i] ^= static_cast<uint8_t>(1 << bit);
      // Unsealed, the checksum catches every flip.
      EXPECT_FALSE(DecodeReportBatch(flipped).ok())
          << "byte " << i << " bit " << bit;
      if (i >= body) continue;
      // Resealed, a flip in a field value is a different valid frame;
      // anything else must fail, and the two decoders must agree.
      flipped.resize(body);
      SealChecksum(&flipped, kChecksumSalt);
      const Decoded decoded = DecodeBoth(flipped, decoder);
      EXPECT_EQ(decoded.whole_ok, decoded.chunks_ok)
          << "byte " << i << " bit " << bit;
      EXPECT_EQ(decoded.whole, decoded.chunks)
          << "byte " << i << " bit " << bit;
      if (i < kHeaderSize + 4) {
        EXPECT_FALSE(decoded.chunks_ok) << "byte " << i << " bit " << bit;
      }
      accepted += decoded.chunks_ok ? 1 : 0;
    }
  }
  // Value flips decode; the sweep is not vacuous either way.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 8 * body);
}

}  // namespace
}  // namespace felip::wire
