// The kernel benches' reporter: repetition rows of one op collapse into
// one record carrying the median real time and its MAD, and google-
// benchmark's own aggregate rows are not counted a second time.

#include "bench/bench_json_reporter.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace felip::bench {
namespace {

using BenchRun = benchmark::BenchmarkReporter::Run;

// One repetition row: `iterations` iterations taking `real_s` seconds
// each in real time and `cpu_s` each in CPU time. The values used below
// are exact in binary, so the rendered numbers can be pinned.
BenchRun Repetition(const std::string& op, double real_s, double cpu_s,
               int64_t iterations) {
  BenchRun run;
  run.run_name.function_name = op;
  run.run_type = BenchRun::RT_Iteration;
  run.time_unit = benchmark::kSecond;
  run.iterations = iterations;
  run.real_accumulated_time = real_s * static_cast<double>(iterations);
  run.cpu_accumulated_time = cpu_s * static_cast<double>(iterations);
  return run;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchJsonReporterTest, RepetitionsBecomeOneRecordWithMedianAndMad) {
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("FELIP_BENCH_JSON_DIR", dir.c_str(), 1), 0);
  std::ostringstream console;
  BenchJsonReporter reporter("reporter_test", "shape=1");
  reporter.SetOutputStream(&console);
  reporter.SetErrorStream(&console);

  // A threaded op: CPU time is 4x real time on every row, so a CPU-time
  // figure would read 4x too high.
  std::vector<BenchRun> rows = {Repetition("BM_A", 1.0, 4.0, 10),
                           Repetition("BM_A", 1.25, 5.0, 10),
                           Repetition("BM_A", 0.75, 3.0, 10)};
  BenchRun mean = Repetition("BM_A", 100.0, 100.0, 3);
  mean.run_type = BenchRun::RT_Aggregate;
  mean.aggregate_name = "mean";
  reporter.ReportRuns(rows);
  reporter.ReportRuns({mean});
  reporter.ReportRuns({Repetition("BM_B", 0.5, 0.5, 1000)});
  reporter.Finalize();

  const std::string path = eval::BenchJsonPath(dir, "reporter_test");
  const std::string json = ReadFile(path);
  // Median 1 s, deviations {0, 0.25, 0.25} s -> MAD 0.25 s; iterations
  // summed.
  EXPECT_NE(json.find(R"({"op": "BM_A", "workload": "shape=1", "ns_per_op": 1000000000, "ns_per_op_mad": 250000000, "repetitions": 3, "iterations": 30})"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"({"op": "BM_B", "workload": "shape=1", "ns_per_op": 500000000, "ns_per_op_mad": 0, "repetitions": 1, "iterations": 1000})"),
            std::string::npos)
      << json;
  // Exactly one record per op.
  EXPECT_EQ(json.find("\"BM_A\""), json.rfind("\"BM_A\""));
  std::remove(path.c_str());
  unsetenv("FELIP_BENCH_JSON_DIR");
}

}  // namespace
}  // namespace felip::bench
