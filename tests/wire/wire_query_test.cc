// Query frame codec: round trips for every operator, and adversarial
// rejection. Decoded batches must be safe to answer — any frame whose
// structure would trip query::Query's fatal constructor checks (bad op
// tag, inverted BETWEEN, empty IN, duplicate attributes) has to come back
// as a non-ok Status, including frames with *valid* checksums: the checksum
// authenticates transport integrity, not sender honesty. Crafted frames
// are built with the public kMagic/kVersion/kChecksumSalt constants.

#include "felip/wire/wire.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/hash.h"
#include "felip/query/query.h"
#include "support/alloc_cap.h"

namespace felip::wire {
namespace {

using query::Op;
using query::Predicate;
using query::Query;

template <typename T>
void Put(std::vector<uint8_t>* out, T value) {
  const size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

// Appends the xxHash64 trailer, making the frame checksum-valid.
void Seal(std::vector<uint8_t>* buffer) {
  Put<uint64_t>(buffer,
                XxHash64Bytes(buffer->data(), buffer->size(), kChecksumSalt));
}

// Replaces the trailer after mutating payload bytes.
void Reseal(std::vector<uint8_t>* buffer) {
  buffer->resize(buffer->size() - sizeof(uint64_t));
  Seal(buffer);
}

// Header of a query-batch frame (MessageKind::kQueryBatch = 5).
std::vector<uint8_t> BeginBatchFrame() {
  std::vector<uint8_t> buffer;
  Put<uint32_t>(&buffer, kMagic);
  Put<uint8_t>(&buffer, kVersion);
  Put<uint8_t>(&buffer, 5);
  return buffer;
}

void PutPredicate(std::vector<uint8_t>* buffer, uint32_t attr, uint8_t op,
                  uint32_t lo, uint32_t hi,
                  const std::vector<uint32_t>& values) {
  Put<uint32_t>(buffer, attr);
  Put<uint8_t>(buffer, op);
  Put<uint32_t>(buffer, lo);
  Put<uint32_t>(buffer, hi);
  Put<uint32_t>(buffer, static_cast<uint32_t>(values.size()));
  for (const uint32_t v : values) Put<uint32_t>(buffer, v);
}

std::vector<Query> SampleBatch() {
  std::vector<Query> batch;
  batch.emplace_back(std::vector<Predicate>{
      {.attr = 0, .op = Op::kBetween, .lo = 3, .hi = 17},
      {.attr = 2, .op = Op::kIn, .values = {1, 4, 4, 0}},
  });
  batch.emplace_back(std::vector<Predicate>{
      {.attr = 5, .op = Op::kEquals, .lo = 9, .hi = 9},
  });
  batch.emplace_back(std::vector<Predicate>{
      {.attr = 1, .op = Op::kBetween, .lo = 0, .hi = 0},
      {.attr = 3, .op = Op::kEquals, .lo = 2},
      {.attr = 4, .op = Op::kIn, .values = {7}},
  });
  return batch;
}

void ExpectSameQuery(const Query& decoded, const Query& original) {
  ASSERT_EQ(decoded.dimension(), original.dimension());
  for (size_t i = 0; i < original.predicates().size(); ++i) {
    const Predicate& d = decoded.predicates()[i];
    const Predicate& o = original.predicates()[i];
    EXPECT_EQ(d.attr, o.attr);
    EXPECT_EQ(d.op, o.op);
    EXPECT_EQ(d.lo, o.lo);
    EXPECT_EQ(d.hi, o.hi);
    EXPECT_EQ(d.values, o.values);
  }
}

TEST(WireQueryBatchTest, RoundTripsAllOperators) {
  const std::vector<Query> original = SampleBatch();
  const auto decoded = DecodeQueryBatch(EncodeQueryBatch(original));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), original.size());
  for (size_t q = 0; q < original.size(); ++q) {
    ExpectSameQuery((*decoded)[q], original[q]);
  }
}

TEST(WireQueryBatchTest, RoundTripsEmptyBatch) {
  const auto decoded = DecodeQueryBatch(EncodeQueryBatch({}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(WireQueryBatchTest, DetectsBitFlips) {
  const std::vector<uint8_t> encoded = EncodeQueryBatch(SampleBatch());
  const test_support::ScopedAllocationCap cap(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::vector<uint8_t> corrupted = encoded;
    corrupted[i] ^= 0x40;
    EXPECT_FALSE(DecodeQueryBatch(corrupted).has_value())
        << "byte " << i << " flip went undetected";
  }
}

TEST(WireQueryBatchTest, DetectsTruncation) {
  const std::vector<uint8_t> encoded = EncodeQueryBatch(SampleBatch());
  const test_support::ScopedAllocationCap cap(encoded.size());
  for (size_t len = 0; len < encoded.size(); ++len) {
    const std::vector<uint8_t> truncated(encoded.begin(),
                                         encoded.begin() + len);
    EXPECT_FALSE(DecodeQueryBatch(truncated).has_value()) << "len " << len;
  }
}

TEST(WireQueryBatchTest, RejectsWrongKind) {
  QueryResponseMessage response;
  response.status = StatusCode::kFailedPrecondition;
  EXPECT_FALSE(DecodeQueryBatch(EncodeQueryResponse(response)).has_value());
  EXPECT_FALSE(DecodeQueryResponse(EncodeQueryBatch(SampleBatch())).has_value());
}

TEST(WireQueryBatchTest, RejectsBadOperatorTagWithValidChecksum) {
  std::vector<uint8_t> frame = BeginBatchFrame();
  Put<uint32_t>(&frame, 1);  // one query
  Put<uint16_t>(&frame, 1);  // one predicate
  PutPredicate(&frame, 0, 7, 1, 2, {});  // op tag 7 does not exist
  Seal(&frame);
  EXPECT_FALSE(DecodeQueryBatch(frame).has_value());
}

TEST(WireQueryBatchTest, RejectsInvertedBetweenWithValidChecksum) {
  std::vector<uint8_t> frame = BeginBatchFrame();
  Put<uint32_t>(&frame, 1);
  Put<uint16_t>(&frame, 1);
  PutPredicate(&frame, 0, static_cast<uint8_t>(Op::kBetween), 9, 3, {});
  Seal(&frame);
  EXPECT_FALSE(DecodeQueryBatch(frame).has_value());
}

TEST(WireQueryBatchTest, RejectsEmptyInListWithValidChecksum) {
  std::vector<uint8_t> frame = BeginBatchFrame();
  Put<uint32_t>(&frame, 1);
  Put<uint16_t>(&frame, 1);
  PutPredicate(&frame, 0, static_cast<uint8_t>(Op::kIn), 0, 0, {});
  Seal(&frame);
  EXPECT_FALSE(DecodeQueryBatch(frame).has_value());
}

TEST(WireQueryBatchTest, RejectsDuplicateAttributesWithValidChecksum) {
  std::vector<uint8_t> frame = BeginBatchFrame();
  Put<uint32_t>(&frame, 1);
  Put<uint16_t>(&frame, 2);
  PutPredicate(&frame, 4, static_cast<uint8_t>(Op::kBetween), 0, 5, {});
  PutPredicate(&frame, 4, static_cast<uint8_t>(Op::kEquals), 1, 1, {});
  Seal(&frame);
  EXPECT_FALSE(DecodeQueryBatch(frame).has_value());
}

TEST(WireQueryBatchTest, RejectsZeroPredicateQuery) {
  std::vector<uint8_t> frame = BeginBatchFrame();
  Put<uint32_t>(&frame, 1);
  Put<uint16_t>(&frame, 0);  // a query must constrain something
  Seal(&frame);
  EXPECT_FALSE(DecodeQueryBatch(frame).has_value());
}

TEST(WireQueryBatchTest, RejectsHugeCountsBeforeAllocating) {
  // Adversarial length fields far beyond the payload must be rejected by
  // arithmetic on the remaining bytes, not by attempting the allocation.
  {
    std::vector<uint8_t> frame = BeginBatchFrame();
    Put<uint32_t>(&frame, 0xffffffffu);  // query count
    Seal(&frame);
    EXPECT_FALSE(DecodeQueryBatch(frame).has_value());
  }
  {
    std::vector<uint8_t> frame = BeginBatchFrame();
    Put<uint32_t>(&frame, 1);
    Put<uint16_t>(&frame, 0xffff);  // predicate count
    Seal(&frame);
    EXPECT_FALSE(DecodeQueryBatch(frame).has_value());
  }
  {
    std::vector<uint8_t> frame = BeginBatchFrame();
    Put<uint32_t>(&frame, 1);
    Put<uint16_t>(&frame, 1);
    Put<uint32_t>(&frame, 0);  // attr
    Put<uint8_t>(&frame, static_cast<uint8_t>(Op::kIn));
    Put<uint32_t>(&frame, 0);  // lo
    Put<uint32_t>(&frame, 0);  // hi
    Put<uint32_t>(&frame, 0xfffffff0u);  // IN value count
    Seal(&frame);
    EXPECT_FALSE(DecodeQueryBatch(frame).has_value());
  }
}

TEST(WireQueryBatchTest, RejectsTrailingGarbage) {
  std::vector<uint8_t> frame = EncodeQueryBatch(SampleBatch());
  frame.resize(frame.size() - sizeof(uint64_t));
  Put<uint8_t>(&frame, 0xab);
  Seal(&frame);
  const test_support::ScopedAllocationCap cap(frame.size());
  EXPECT_FALSE(DecodeQueryBatch(frame).has_value());
}

TEST(WireQueryResponseTest, RoundTripsEveryStatus) {
  QueryResponseMessage ok;
  ok.status = StatusCode::kOk;
  ok.bad_query = kBadQueryNone;
  ok.request_checksum = 0xfeedface12345678ull;
  ok.sealed_epochs = 12;
  ok.answers = {0.0, 0.25, 1.0};
  const auto ok_rt = DecodeQueryResponse(EncodeQueryResponse(ok));
  ASSERT_TRUE(ok_rt.ok()) << ok_rt.status().ToString();
  EXPECT_EQ(*ok_rt, ok);

  QueryResponseMessage invalid;
  invalid.status = StatusCode::kInvalidArgument;
  invalid.bad_query = 17;
  invalid.request_checksum = 42;
  const auto invalid_rt = DecodeQueryResponse(EncodeQueryResponse(invalid));
  ASSERT_TRUE(invalid_rt.ok()) << invalid_rt.status().ToString();
  EXPECT_EQ(*invalid_rt, invalid);

  QueryResponseMessage not_ready;
  not_ready.status = StatusCode::kFailedPrecondition;
  const auto not_ready_rt = DecodeQueryResponse(EncodeQueryResponse(not_ready));
  ASSERT_TRUE(not_ready_rt.ok()) << not_ready_rt.status().ToString();
  EXPECT_EQ(*not_ready_rt, not_ready);
}

TEST(WireQueryResponseTest, DetectsBitFlipsAndTruncation) {
  QueryResponseMessage m;
  m.status = StatusCode::kOk;
  m.answers = {0.5, 0.125};
  const std::vector<uint8_t> encoded = EncodeQueryResponse(m);
  const test_support::ScopedAllocationCap cap(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::vector<uint8_t> corrupted = encoded;
    corrupted[i] ^= 0x04;
    EXPECT_FALSE(DecodeQueryResponse(corrupted).has_value()) << "byte " << i;
  }
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodeQueryResponse(
                     {encoded.begin(), encoded.begin() + len})
                     .has_value())
        << "len " << len;
  }
}

TEST(WireQueryResponseTest, RejectsUnknownStatusWithValidChecksum) {
  QueryResponseMessage m;
  m.status = StatusCode::kOk;
  std::vector<uint8_t> frame = EncodeQueryResponse(m);
  for (const uint8_t status : {uint8_t{0}, uint8_t{4}, uint8_t{0xff}}) {
    std::vector<uint8_t> mutated = frame;
    mutated[6] = status;  // status byte follows the 6-byte header
    Reseal(&mutated);
    EXPECT_FALSE(DecodeQueryResponse(mutated).has_value())
        << "status " << int{status};
  }
}

TEST(WireQueryResponseTest, RejectsNonFiniteAnswersWithValidChecksum) {
  QueryResponseMessage m;
  m.status = StatusCode::kOk;
  m.answers = {0.5};
  const std::vector<uint8_t> frame = EncodeQueryResponse(m);
  // The answer's 8 bytes sit between the count field and the trailer.
  const size_t answer_offset = frame.size() - sizeof(uint64_t) - sizeof(double);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<uint8_t> mutated = frame;
    std::memcpy(mutated.data() + answer_offset, &bad, sizeof(bad));
    Reseal(&mutated);
    EXPECT_FALSE(DecodeQueryResponse(mutated).has_value());
  }
}

// Header of a windowed-query frame (MessageKind::kWindowedQuery = 9),
// with the window/decay prefix ahead of the query-list record.
std::vector<uint8_t> BeginWindowedFrame(uint32_t window, double decay) {
  std::vector<uint8_t> buffer;
  Put<uint32_t>(&buffer, kMagic);
  Put<uint8_t>(&buffer, kVersion);
  Put<uint8_t>(&buffer, 9);
  Put<uint32_t>(&buffer, window);
  Put<double>(&buffer, decay);
  return buffer;
}

TEST(WireWindowedQueryTest, RoundTripsWindowDecayAndQueries) {
  WindowedQueryMessage m;
  m.window = 4;
  m.decay = 0.625;  // exactly representable: survives the round trip bit-equal
  m.queries = SampleBatch();
  const auto decoded = DecodeWindowedQuery(EncodeWindowedQuery(m));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->window, 4u);
  EXPECT_EQ(decoded->decay, 0.625);
  ASSERT_EQ(decoded->queries.size(), m.queries.size());
  for (size_t q = 0; q < m.queries.size(); ++q) {
    ExpectSameQuery(decoded->queries[q], m.queries[q]);
  }
}

TEST(WireWindowedQueryTest, RoundTripsDefaults) {
  WindowedQueryMessage m;  // window 0 (all retained), decay 1.0, no queries
  const auto decoded = DecodeWindowedQuery(EncodeWindowedQuery(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->window, 0u);
  EXPECT_EQ(decoded->decay, 1.0);
  EXPECT_TRUE(decoded->queries.empty());
}

TEST(WireWindowedQueryTest, DetectsBitFlipsAndTruncation) {
  WindowedQueryMessage m;
  m.window = 2;
  m.decay = 0.5;
  m.queries = SampleBatch();
  const std::vector<uint8_t> encoded = EncodeWindowedQuery(m);
  const test_support::ScopedAllocationCap cap(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::vector<uint8_t> corrupted = encoded;
    corrupted[i] ^= 0x40;
    EXPECT_FALSE(DecodeWindowedQuery(corrupted).ok()) << "byte " << i;
  }
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(
        DecodeWindowedQuery(
            std::vector<uint8_t>(encoded.begin(), encoded.begin() + len))
            .ok())
        << "len " << len;
  }
}

TEST(WireWindowedQueryTest, RejectsAdversarialDecayWithValidChecksum) {
  // The checksum authenticates transport integrity, not sender honesty:
  // a decay the stream layer would FELIP_CHECK on must die in the decoder.
  for (const double bad : {0.0, -0.5, 1.0000001, 64.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<uint8_t> frame = BeginWindowedFrame(1, bad);
    Put<uint32_t>(&frame, 1);  // one query
    Put<uint16_t>(&frame, 1);  // one predicate
    PutPredicate(&frame, 0, 2 /* kBetween */, 0, 7, {});
    Seal(&frame);
    EXPECT_FALSE(DecodeWindowedQuery(frame).ok()) << "decay " << bad;
  }
}

TEST(WireWindowedQueryTest, RejectsStructurallyInvalidQueryList) {
  // The shared query-list validation applies: inverted BETWEEN dies here
  // exactly as it does in a plain batch frame.
  std::vector<uint8_t> frame = BeginWindowedFrame(0, 0.5);
  Put<uint32_t>(&frame, 1);
  Put<uint16_t>(&frame, 1);
  PutPredicate(&frame, 0, 2 /* kBetween */, 9, 3, {});  // lo > hi
  Seal(&frame);
  EXPECT_FALSE(DecodeWindowedQuery(frame).ok());
}

TEST(WireWindowedQueryTest, RejectsWrongKind) {
  WindowedQueryMessage m;
  m.queries = SampleBatch();
  const std::vector<uint8_t> windowed = EncodeWindowedQuery(m);
  EXPECT_FALSE(DecodeQueryBatch(windowed).has_value());
  EXPECT_FALSE(DecodeWindowedQuery(EncodeQueryBatch(SampleBatch())).ok());
}

TEST(WireWindowedQueryTest, FrameKindPeek) {
  WindowedQueryMessage m;
  EXPECT_TRUE(IsWindowedQueryFrame(EncodeWindowedQuery(m)));
  EXPECT_FALSE(IsWindowedQueryFrame(EncodeQueryBatch({})));
  EXPECT_FALSE(IsWindowedQueryFrame({}));
  EXPECT_FALSE(IsWindowedQueryFrame({0x50, 0x4c, 0x45, 0x46, 1}));  // short
  // The peek is routing only: a torn windowed frame still peeks true and
  // must then fail the full decoder.
  std::vector<uint8_t> torn = EncodeWindowedQuery(m);
  torn.resize(8);
  EXPECT_TRUE(IsWindowedQueryFrame(torn));
  EXPECT_FALSE(DecodeWindowedQuery(torn).ok());
}

TEST(WireQueryResponseTest, RejectsCountMismatch) {
  QueryResponseMessage m;
  m.status = StatusCode::kOk;
  m.answers = {0.5, 0.25};
  std::vector<uint8_t> frame = EncodeQueryResponse(m);
  // Claim three answers while carrying two.
  const size_t count_offset =
      frame.size() - sizeof(uint64_t) - 2 * sizeof(double) - sizeof(uint32_t);
  const uint32_t claimed = 3;
  std::memcpy(frame.data() + count_offset, &claimed, sizeof(claimed));
  Reseal(&frame);
  EXPECT_FALSE(DecodeQueryResponse(frame).has_value());
}

}  // namespace
}  // namespace felip::wire
