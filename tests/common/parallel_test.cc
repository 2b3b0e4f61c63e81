#include "felip/common/parallel.h"

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

namespace felip {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  ParallelFor(kCount, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool ran = false;
  ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, SingleIndexRunsInline) {
  size_t seen = 99;
  ParallelFor(1, [&](size_t i) { seen = i; });
  EXPECT_EQ(seen, 0u);
}

TEST(ParallelForTest, ResultsMatchSerialExecution) {
  constexpr size_t kCount = 512;
  std::vector<double> parallel_out(kCount);
  std::vector<double> serial_out(kCount);
  const auto work = [](size_t i) {
    double acc = 0.0;
    for (size_t j = 0; j < 50; ++j) acc += static_cast<double>(i * j % 7);
    return acc;
  };
  ParallelFor(kCount, [&](size_t i) { parallel_out[i] = work(i); });
  for (size_t i = 0; i < kCount; ++i) serial_out[i] = work(i);
  EXPECT_EQ(parallel_out, serial_out);
}

// Pins the documented "small counts run on the calling thread" fallback:
// a single-index loop must not spawn a worker even when max_threads allows
// many, and max_threads == 1 must keep any count on the calling thread.
TEST(ParallelForTest, SingleIndexRunsOnCallingThreadEvenWithThreadBudget) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  ParallelFor(1, [&](size_t) { seen = std::this_thread::get_id(); },
              /*max_threads=*/8);
  EXPECT_EQ(seen, caller);
}

TEST(ParallelForTest, MaxThreadsOneRunsEverythingOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  constexpr size_t kCount = 64;
  std::vector<std::thread::id> seen(kCount);
  std::vector<size_t> order;
  order.reserve(kCount);
  ParallelFor(
      kCount,
      [&](size_t i) {
        seen[i] = std::this_thread::get_id();
        order.push_back(i);  // safe: single-threaded by contract
      },
      /*max_threads=*/1);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(seen[i], caller) << "index " << i;
    EXPECT_EQ(order[i], i) << "serial path must run in index order";
  }
}

// Shard-boundary math at the awkward counts the thread launcher hits:
// fewer indices than threads, exactly as many, and a non-dividing count.
TEST(ParallelForTest, CoversAwkwardCountThreadCombinations) {
  for (const size_t count : {size_t{3}, size_t{8}, size_t{10}}) {
    for (const unsigned threads : {8u}) {
      std::vector<std::atomic<int>> visits(count);
      ParallelFor(count, [&](size_t i) { visits[i].fetch_add(1); }, threads);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(visits[i].load(), 1)
            << "count " << count << " threads " << threads << " index " << i;
      }
    }
  }
}

TEST(ParallelForTest, ExplicitThreadCapRespectedFunctionally) {
  // Can't observe thread identity portably, but the work must still cover
  // all indices with any cap.
  for (unsigned cap : {1u, 2u, 3u, 64u}) {
    std::atomic<size_t> total{0};
    ParallelFor(100, [&](size_t i) { total.fetch_add(i); }, cap);
    EXPECT_EQ(total.load(), 4950u) << "cap " << cap;
  }
}

TEST(AvailableCpusTest, IsAtLeastOneAndAtMostTheMask) {
  EXPECT_GE(AvailableCpus(), 1u);
#if defined(__linux__)
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(AvailableCpus(), static_cast<unsigned>(CPU_COUNT(&mask)));
#endif
}

#if defined(__linux__)
// A process narrowed to one CPU (taskset -c N, a one-CPU cpuset) counts one
// CPU, and ParallelFor's default then runs every body on the calling
// thread instead of starting threads that would share that CPU. The test
// narrows the calling thread's affinity mask (the one AvailableCpus reads,
// which such a process shares) and restores it before returning.
TEST(AvailableCpusTest, OneCpuMaskRunsParallelForOnCallingThread) {
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &original)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

  const unsigned narrowed = AvailableCpus();
  const std::thread::id caller = std::this_thread::get_id();
  constexpr size_t kCount = 64;
  std::vector<std::thread::id> seen(kCount);
  ParallelFor(kCount, [&](size_t i) { seen[i] = std::this_thread::get_id(); });

  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(narrowed, 1u);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(seen[i], caller) << "index " << i;
  }
  EXPECT_EQ(AvailableCpus(), static_cast<unsigned>(CPU_COUNT(&original)));
}
#endif

}  // namespace
}  // namespace felip
