// Tests for the BENCH_*.json kernel-bench artifacts: byte-stable
// rendering, path construction, file output, and the median/MAD summary
// every record carries.

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "felip/eval/bench_json.h"
#include "felip/simd/dispatch.h"

namespace felip::eval {
namespace {

BenchReport SampleReport() {
  BenchReport report;
  report.name = "perf_query_engine";
  report.git_sha = "0123abcd";
  report.dispatch = "avx2";
  report.threads = 8;
  report.records.push_back({"BM_BatchScan", "users=1000000;queries=10000",
                            1234.5, 12.25, 5, 42});
  report.records.push_back(
      {"BM_Prefix", "users=1000000;queries=10000", 17.25, 0.0, 1, 100000});
  return report;
}

TEST(BenchJsonTest, RenderingIsByteStable) {
  // The committed artifacts under results/ only diff when the numbers do:
  // key order and number formatting are pinned byte for byte.
  EXPECT_EQ(RenderBenchJson(SampleReport()),
            R"({
  "schema_version": 2,
  "name": "perf_query_engine",
  "git_sha": "0123abcd",
  "dispatch": "avx2",
  "threads": 8,
  "records": [
    {"op": "BM_BatchScan", "workload": "users=1000000;queries=10000", "ns_per_op": 1234.5, "ns_per_op_mad": 12.25, "repetitions": 5, "iterations": 42},
    {"op": "BM_Prefix", "workload": "users=1000000;queries=10000", "ns_per_op": 17.25, "ns_per_op_mad": 0, "repetitions": 1, "iterations": 100000}
  ]
}
)");
  BenchReport empty = SampleReport();
  empty.records.clear();
  EXPECT_NE(RenderBenchJson(empty).find("\"records\": []\n}"),
            std::string::npos);
}

TEST(BenchJsonTest, FieldOrderIsStable) {
  const std::string json = RenderBenchJson(SampleReport());
  // Top-level keys appear in schema order...
  const size_t schema = json.find("\"schema_version\"");
  const size_t name = json.find("\"name\"");
  const size_t sha = json.find("\"git_sha\"");
  const size_t dispatch = json.find("\"dispatch\"");
  const size_t threads = json.find("\"threads\"");
  const size_t records = json.find("\"records\"");
  ASSERT_NE(schema, std::string::npos);
  EXPECT_LT(schema, name);
  EXPECT_LT(name, sha);
  EXPECT_LT(sha, dispatch);
  EXPECT_LT(dispatch, threads);
  EXPECT_LT(threads, records);
  // ...and so do record keys.
  const size_t op = json.find("\"op\"", records);
  const size_t workload = json.find("\"workload\"", records);
  const size_t ns = json.find("\"ns_per_op\"", records);
  const size_t mad = json.find("\"ns_per_op_mad\"", records);
  const size_t reps = json.find("\"repetitions\"", records);
  const size_t iterations = json.find("\"iterations\"", records);
  ASSERT_NE(op, std::string::npos);
  EXPECT_LT(op, workload);
  EXPECT_LT(workload, ns);
  EXPECT_LT(ns, mad);
  EXPECT_LT(mad, reps);
  EXPECT_LT(reps, iterations);
}

TEST(BenchJsonTest, MedianMadOfOddAndEvenCounts) {
  // Odd count: the middle value; deviations {2, 0, 1, 9, 1} -> MAD 1.
  const MedianMad odd = ComputeMedianMad({12.0, 10.0, 11.0, 19.0, 9.0});
  EXPECT_EQ(odd.median, 11.0);
  EXPECT_EQ(odd.mad, 1.0);
  // Even count: the mean of the middle pair; deviations {1.5, 0.5, 0.5,
  // 1.5} -> MAD 1.
  const MedianMad even = ComputeMedianMad({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(even.median, 2.5);
  EXPECT_EQ(even.mad, 1.0);
  // One outlier moves neither (the reason for median + MAD over
  // mean + stddev on a shared host).
  const MedianMad outlier = ComputeMedianMad({10.0, 10.0, 10.0, 1000.0, 10.0});
  EXPECT_EQ(outlier.median, 10.0);
  EXPECT_EQ(outlier.mad, 0.0);
}

TEST(BenchJsonTest, MedianMadOfOneRepetitionHasNoSpread) {
  const MedianMad one = ComputeMedianMad({42.5});
  EXPECT_EQ(one.median, 42.5);
  EXPECT_EQ(one.mad, 0.0);
  const MedianMad none = ComputeMedianMad({});
  EXPECT_EQ(none.median, 0.0);
  EXPECT_EQ(none.mad, 0.0);
}

TEST(BenchJsonTest, MakeBenchReportRecordsDispatchLevel) {
  const BenchReport report = MakeBenchReport("perf_test");
  EXPECT_EQ(report.name, "perf_test");
  EXPECT_EQ(report.dispatch, simd::LevelName(simd::ActiveLevel()));
  EXPECT_FALSE(report.git_sha.empty());
  // Pinning the dispatch level must be reflected in new reports — this is
  // how the forced-scalar artifacts under results/scalar/ are told apart.
  simd::ScopedLevelOverride pin(simd::Level::kScalar);
  EXPECT_EQ(MakeBenchReport("perf_test").dispatch, "scalar");
}

TEST(BenchJsonTest, BenchJsonPathComposes) {
  EXPECT_EQ(BenchJsonPath("results", "perf_query_engine"),
            "results/BENCH_perf_query_engine.json");
  EXPECT_EQ(BenchJsonPath("results/", "x"), "results/BENCH_x.json");
  EXPECT_EQ(BenchJsonPath("", "x"), "BENCH_x.json");
}

TEST(BenchJsonTest, WriteBenchJsonFileRoundTrips) {
  const std::string path =
      ::testing::TempDir() + "/BENCH_write_test.json";
  ASSERT_TRUE(WriteBenchJsonFile(path, SampleReport()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), RenderBenchJson(SampleReport()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace felip::eval
