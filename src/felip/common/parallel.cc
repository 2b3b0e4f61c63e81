#include "felip/common/parallel.h"

#include <algorithm>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace felip {

unsigned AvailableCpus() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&mask)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

void ParallelFor(size_t count, const std::function<void(size_t)>& body,
                 unsigned max_threads) {
  if (count == 0) return;
  unsigned threads = max_threads != 0 ? max_threads : AvailableCpus();
  threads = std::max(1u, std::min<unsigned>(threads, count));
  if (threads == 1 || count < 2) {
    for (size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      // Contiguous shards keep cache behaviour predictable.
      const auto [begin, end] = SliceRange(count, t, threads);
      for (size_t i = begin; i < end; ++i) body(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

}  // namespace felip
