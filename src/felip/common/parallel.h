// Minimal data-parallel helpers.
//
// Three library paths still use them: per-user OLH estimation
// (ParallelReduce over report shards, fo/olh.cc), PGR's direct decode
// (ParallelFor over values, fo/pgr.cc) and wire::DecodeReportBatchSharded
// (ParallelFor over fixed shards). Finalize's pooled-OLH estimation and
// response-matrix builds run on the calling thread, because threads
// started per call cost every round CPU time (docs/aggregation.md,
// bench/finalize_threads.cc).
//
//   * ParallelFor distributes an index range over a bounded number of
//     std::threads, started afresh on every call; callers use it where
//     iterations touch disjoint state.
//   * ParallelReduce shards an index range into a fixed shard layout, maps
//     every shard into its own accumulator, and folds the accumulators in
//     ascending shard order. Because both the shard boundaries and the
//     fold order depend only on the element count — never on the thread
//     count — the result is bit-identical for every `max_threads` value,
//     even for non-associative accumulation such as floating-point sums.

#ifndef FELIP_COMMON_PARALLEL_H_
#define FELIP_COMMON_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace felip {

// Half-open index range [begin, end) of contiguous slice `slice` out of
// `num_slices` over [0, count). Slices cover [0, count) disjointly, are
// monotone in `slice`, and differ in size by at most one element; when
// count < num_slices the trailing slices are empty. This is the shard
// boundary math used by both ParallelFor and ParallelReduce.
inline std::pair<size_t, size_t> SliceRange(size_t count, size_t slice,
                                            size_t num_slices) {
  return {count * slice / num_slices, count * (slice + 1) / num_slices};
}

// Runs body(i) for i in [0, count), distributing contiguous shards over up
// to `max_threads` threads (0 = hardware concurrency). Falls back to the
// calling thread for small counts. `body` must not throw and iterations
// must be independent.
void ParallelFor(size_t count, const std::function<void(size_t)>& body,
                 unsigned max_threads = 0);

// Fixed shard layout used by ParallelReduce: enough shards to spread work
// without drowning in per-shard accumulators, computed from `count` alone
// so that reduction results never depend on thread availability. Always
// at least 1 (a zero count still gets one empty shard).
inline size_t ReduceShardCount(size_t count) {
  constexpr size_t kMinPerShard = 4096;  // below this, threads cost more
  constexpr size_t kMaxShards = 64;      // bounds accumulator memory
  return std::clamp<size_t>(count / kMinPerShard, 1, kMaxShards);
}

// Deterministic sharded reduction over [0, count).
//
// The range is cut into ReduceShardCount(count) contiguous shards via
// SliceRange. Each shard gets a fresh accumulator from `make()` and is
// processed by `map(acc, begin, end)`; shards run concurrently on up to
// `max_threads` threads (0 = hardware concurrency, 1 = fully serial).
// The shard accumulators are then folded left-to-right in ascending shard
// order with `fold(into, from)` on the calling thread. Shard boundaries
// and fold order depend only on `count`, so the returned accumulator is
// bit-identical for every `max_threads` value. `make`/`map` must not
// throw; `map` calls must touch only their own accumulator.
template <typename MakeFn, typename MapFn, typename FoldFn>
auto ParallelReduce(size_t count, MakeFn&& make, MapFn&& map, FoldFn&& fold,
                    unsigned max_threads = 0) {
  using Acc = std::invoke_result_t<MakeFn&>;
  const size_t num_shards = ReduceShardCount(count);
  if (num_shards == 1) {
    Acc acc = make();
    if (count > 0) map(acc, size_t{0}, count);
    return acc;
  }
  std::vector<Acc> partial;
  partial.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) partial.push_back(make());
  ParallelFor(
      num_shards,
      [&](size_t s) {
        const auto [begin, end] = SliceRange(count, s, num_shards);
        if (begin < end) map(partial[s], begin, end);
      },
      max_threads);
  Acc result = std::move(partial[0]);
  for (size_t s = 1; s < num_shards; ++s) {
    fold(result, std::move(partial[s]));
  }
  return result;
}

}  // namespace felip

#endif  // FELIP_COMMON_PARALLEL_H_
