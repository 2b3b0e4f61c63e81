// Correctness tests for the metrics registry: concurrent-increment
// determinism (a counter folded after N threads matches the serial total),
// histogram bucket boundary cases under Prometheus `le` semantics, quantile
// estimation, and render smoke tests for the text / JSON expositions.

#include "felip/obs/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace felip::obs {
namespace {

#ifdef FELIP_OBS_NOOP

// In a no-op build the instruments are compiled out; only the API shape is
// checked so an obs-noop configuration with tests enabled still links.
TEST(NoopBuildTest, ApiIsInert) {
  Registry& registry = Registry::Default();
  registry.GetCounter("x").Increment(5);
  EXPECT_EQ(registry.CounterValue("x"), 0u);
  EXPECT_EQ(registry.RenderJson(), "{}");
}

#else

TEST(CounterTest, SerialAndThreadedTotalsIdentical) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;

  Counter serial;
  for (uint64_t i = 0; i < kThreads * kPerThread; ++i) serial.Increment();

  Counter threaded;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&threaded] {
      for (uint64_t i = 0; i < kPerThread; ++i) threaded.Increment();
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(serial.Value(), kThreads * kPerThread);
  EXPECT_EQ(threaded.Value(), serial.Value());
}

TEST(CounterTest, DeltaIncrementsAndReset) {
  Counter counter;
  counter.Increment(5);
  counter.Increment();
  counter.Increment(0);
  EXPECT_EQ(counter.Value(), 6u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SetAddValue) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);
  gauge.Add(-1.25);
  EXPECT_EQ(gauge.Value(), 1.25);
  gauge.Set(-7.0);
  EXPECT_EQ(gauge.Value(), -7.0);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(GaugeTest, ConcurrentAddsSumExactlyOnRepresentableValues) {
  // Powers of two are exact in binary floating point, so the CAS-loop Add
  // must produce the exact total regardless of interleaving.
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(0.25);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(gauge.Value(), kThreads * kPerThread * 0.25);
}

TEST(HistogramTest, BucketBoundaryCases) {
  Histogram histogram({1.0, 2.5, 5.0});

  // `le` semantics: a value lands in the first bucket whose bound is >= it.
  histogram.Observe(0.0);     // -> bucket 0 (le 1.0)
  histogram.Observe(1.0);     // exactly on bound -> bucket 0
  histogram.Observe(1.0001);  // just above -> bucket 1 (le 2.5)
  histogram.Observe(2.5);     // exactly on bound -> bucket 1
  histogram.Observe(5.0);     // exactly on last finite bound -> bucket 2
  histogram.Observe(5.0001);  // above every bound -> overflow
  histogram.Observe(1e9);     // far overflow

  const std::vector<uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);  // 3 finite bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(histogram.Count(), 7u);
}

TEST(HistogramTest, SumIsOrderIndependentFixedPoint) {
  Histogram histogram({1.0});
  histogram.Observe(0.1);
  histogram.Observe(0.2);
  histogram.Observe(0.3);
  // Fixed-point nano-unit accumulation: the sum is exact to 1e-9 per
  // observation regardless of order.
  EXPECT_NEAR(histogram.Sum(), 0.6, 3e-9);
}

TEST(HistogramTest, Quantiles) {
  Histogram histogram({1.0, 2.0, 3.0});
  EXPECT_EQ(histogram.Quantile(0.5), 0.0);  // empty

  histogram.Observe(0.5);   // bucket 0
  histogram.Observe(1.5);   // bucket 1
  histogram.Observe(2.5);   // bucket 2
  histogram.Observe(10.0);  // overflow

  EXPECT_EQ(histogram.Quantile(0.25), 1.0);  // rank 1 -> bucket 0
  EXPECT_EQ(histogram.Quantile(0.5), 2.0);   // rank 2 -> bucket 1
  EXPECT_EQ(histogram.Quantile(0.75), 3.0);  // rank 3 -> bucket 2
  // Rank in the overflow bucket reports the last finite bound.
  EXPECT_EQ(histogram.Quantile(1.0), 3.0);
}

TEST(HistogramTest, ConcurrentObservationsDeterministicCounts) {
  Histogram histogram(LatencyBuckets());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Observe(1e-6 * static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(histogram.Count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (const uint64_t c : histogram.BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, histogram.Count());
}

TEST(RegistryTest, FindOrCreateReturnsStableReferences) {
  Registry registry;
  Counter& a = registry.GetCounter("felip_test_counter_total");
  Counter& b = registry.GetCounter("felip_test_counter_total");
  EXPECT_EQ(&a, &b);
  a.Increment(3);
  EXPECT_EQ(registry.CounterValue("felip_test_counter_total"), 3u);
  EXPECT_EQ(registry.CounterValue("never_registered"), 0u);

  Histogram& h = registry.GetHistogram("felip_test_seconds");
  EXPECT_EQ(h.bounds(), LatencyBuckets());
  // Same name with different bounds: first registration wins.
  Histogram& h2 = registry.GetHistogram("felip_test_seconds", {1.0});
  EXPECT_EQ(&h, &h2);
}

TEST(RegistryTest, DefaultBoundsLookupOfAnExistingHistogramKeepsIt) {
  Registry registry;
  Histogram& custom = registry.GetHistogram("felip_test_custom", {1.0, 2.0});
  custom.Observe(1.5);
  Histogram& first = registry.GetHistogram("felip_test_custom");
  Histogram& second = registry.GetHistogram("felip_test_custom");
  EXPECT_EQ(&first, &custom);
  EXPECT_EQ(&second, &custom);
  EXPECT_EQ(second.bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(second.Count(), 1u);
}

TEST(RegistryTest, ConcurrentGetAndIncrementFromManyThreads) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      // Exercises find-or-create racing with hot-path updates.
      for (int i = 0; i < kPerThread; ++i) {
        registry.GetCounter("felip_race_total").Increment();
        registry.GetGauge("felip_race_gauge").Set(1.0);
        registry.GetHistogram("felip_race_seconds").Observe(1e-5);
        registry.RecordSpan("race/span", 100);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(registry.CounterValue("felip_race_total"),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.HistogramCount("felip_race_seconds"),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.SpanStatsFor("race/span").count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(RegistryTest, RenderTextSmoke) {
  Registry registry;
  registry.GetCounter("felip_demo_events_total").Increment(4);
  registry.GetGauge("felip_demo_level").Set(0.5);
  registry.GetHistogram("felip_demo_seconds", {0.1, 1.0}).Observe(0.05);
  registry.RecordSpan("outer/inner", 1500000000);  // 1.5 s

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE felip_demo_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("felip_demo_events_total 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE felip_demo_level gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE felip_demo_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("felip_demo_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("felip_demo_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("felip_demo_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("felip_span_count_total{path=\"outer/inner\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("felip_span_seconds_total{path=\"outer/inner\"} 1.5"),
            std::string::npos);
}

TEST(RegistryTest, RenderJsonSmoke) {
  Registry registry;
  registry.GetCounter("felip_demo_events_total").Increment(2);
  registry.GetGauge("felip_demo_level").Set(1.5);
  registry.GetHistogram("felip_demo_seconds").Observe(0.001);
  registry.RecordSpan("phase", 2000000);

  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"felip_demo_events_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\""), std::string::npos);
}

TEST(RegistryTest, ResetZeroesInPlaceAndKeepsReferencesValid) {
  Registry registry;
  Counter& counter = registry.GetCounter("felip_reset_total");
  Histogram& histogram = registry.GetHistogram("felip_reset_seconds");
  counter.Increment(10);
  histogram.Observe(0.5);
  registry.RecordSpan("reset/span", 42);

  registry.Reset();
  EXPECT_EQ(registry.CounterValue("felip_reset_total"), 0u);
  EXPECT_EQ(registry.HistogramCount("felip_reset_seconds"), 0u);
  EXPECT_EQ(registry.SpanStatsFor("reset/span").count, 0u);

  // The cached references must still point at live instruments.
  counter.Increment(2);
  histogram.Observe(0.25);
  EXPECT_EQ(registry.CounterValue("felip_reset_total"), 2u);
  EXPECT_EQ(registry.HistogramCount("felip_reset_seconds"), 1u);
}

TEST(LatencyBucketsTest, AscendingAndCoversMicroToSeconds) {
  const std::vector<double>& bounds = LatencyBuckets();
  ASSERT_GE(bounds.size(), 3u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_LE(bounds.front(), 1e-6);
  EXPECT_GE(bounds.back(), 10.0);
}

#endif  // FELIP_OBS_NOOP

}  // namespace
}  // namespace felip::obs
