// Tests of the round benchmark's own statistics.

#include "stats.h"
#include "trace.h"

#include <vector>

#include <gtest/gtest.h>

namespace roundbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_FALSE(Median({}).has_value());
  const std::vector<double> odd = {5, 1, 3};
  EXPECT_DOUBLE_EQ(*Median(odd), 3.0);
  const std::vector<double> even = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(*Median(even), 2.5);
  const std::vector<double> one = {7};
  EXPECT_DOUBLE_EQ(*Median(one), 7.0);
}

TEST(PercentileTest, NearestRankWithTenBeyond) {
  const std::vector<double> v = Ramp(1000);  // values 1..1000
  const std::optional<Tail> p99 = Percentile(v, 99.0);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->samples, 1000u);
  EXPECT_EQ(p99->beyond, 10u);
  const std::optional<Tail> p90 = Percentile(v, 90.0);
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(p90->value, 900.0);
  EXPECT_EQ(p90->beyond, 100u);
}

TEST(PercentileTest, OmittedWhenTooFewSamplesBeyond) {
  // 999 samples leave only 9 beyond the 99th percentile (rank 990).
  EXPECT_FALSE(Percentile(Ramp(999), 99.0).has_value());
  EXPECT_TRUE(Percentile(Ramp(1000), 99.0).has_value());
  EXPECT_FALSE(Percentile(Ramp(99), 90.0).has_value());
  EXPECT_TRUE(Percentile(Ramp(100), 90.0).has_value());
  EXPECT_FALSE(Percentile({}, 50.0).has_value());
  EXPECT_FALSE(Percentile(Ramp(100), 100.0).has_value());
}

TEST(HighestTailTest, PicksTheHighestReportablePercentile) {
  const std::optional<Tail> big = HighestTail(Ramp(20000));
  ASSERT_TRUE(big.has_value());
  EXPECT_DOUBLE_EQ(big->percentile, 99.9);
  const std::optional<Tail> mid = HighestTail(Ramp(500));
  ASSERT_TRUE(mid.has_value());
  EXPECT_DOUBLE_EQ(mid->percentile, 95.0);
  EXPECT_DOUBLE_EQ(mid->value, 475.0);
  const std::optional<Tail> small = HighestTail(Ramp(40));
  ASSERT_TRUE(small.has_value());
  EXPECT_DOUBLE_EQ(small->percentile, 75.0);
  EXPECT_FALSE(HighestTail(Ramp(39)).has_value());
}

TEST(OpsLedgerTest, FailedRatioSumsEveryKind) {
  OpsLedger ledger;
  EXPECT_EQ(ledger.failed_ratio(), 0.0);
  ledger.Add("delivery", 977, 0);
  ledger.Add("query_batch", 4, 1);
  ledger.Add("sink_report", 1000000, 19);
  ledger.Add("delivery", 23, 0);  // same kind accumulates
  EXPECT_EQ(ledger.attempted(), 1001004u);
  EXPECT_EQ(ledger.failed(), 20u);
  EXPECT_DOUBLE_EQ(ledger.failed_ratio(), 20.0 / 1001004.0);
  ASSERT_EQ(ledger.entries().size(), 3u);
  EXPECT_EQ(ledger.entries()[0].attempted, 1000u);
}

TEST(BusyShareTest, SummedBusyOverWallTimesWorkers) {
  // Two workers busy 150 ms in total during a 100 ms drain: 75%.
  EXPECT_DOUBLE_EQ(BusyShare(150e6, 100e6, 2), 0.75);
  EXPECT_DOUBLE_EQ(BusyShare(100e6, 100e6, 1), 1.0);
  EXPECT_EQ(BusyShare(5.0, 0.0, 2), 0.0);
  EXPECT_EQ(BusyShare(5.0, 10.0, 0), 0.0);
}

TEST(SelfTimeTest, ChildrenCoverageIsSubtractedOnce) {
  // Parent [0, 100) with overlapping children [10, 40) and [30, 60) and
  // one reaching past its end, [90, 120): 60 ns covered, 40 ns self.
  EXPECT_DOUBLE_EQ(CoveredNs(0, 100, {{10, 40}, {30, 60}, {90, 120}}), 60.0);
  std::vector<SpanRecord> spans = {
      {"bench.round", 0, 100, 1, kNoSpan, 1, 0},
      {"svc.send", 10, 40, 2, 1, 1, 1},
      {"svc.send", 30, 60, 3, 1, 1, 1},
      {"wire.encode", 90, 120, 4, 1, 1, 1024},
  };
  const auto totals = SummarizeSpans(spans);
  EXPECT_DOUBLE_EQ(totals.at("bench.round").self_ns, 40.0);
  EXPECT_DOUBLE_EQ(totals.at("bench.round").total_ns, 100.0);
  EXPECT_EQ(totals.at("svc.send").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("svc.send").self_ns, 60.0);
  EXPECT_EQ(totals.at("wire.encode").items, 1024u);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer off(false);
  { Span span(off, "bench.round", kNoSpan, 1); }
  EXPECT_EQ(off.Record("svc.sink", 0, 1, kNoSpan, 1), kNoSpan);
  EXPECT_TRUE(off.Spans().empty());
  Tracer on(true);
  uint32_t parent = kNoSpan;
  {
    Span span(on, "bench.round", kNoSpan, 7);
    parent = span.id();
    on.Record("svc.sink", 1, 2, parent, 7, 3);
  }
  const std::vector<SpanRecord> spans = on.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, parent);
  EXPECT_EQ(spans[1].items, 3u);
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
}

}  // namespace
}  // namespace roundbench
