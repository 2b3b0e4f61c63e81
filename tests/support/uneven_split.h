// Batch-aggregation test helper: hands one batch to a server's
// AggregateReports in uneven chunks.

#ifndef FELIP_TESTS_SUPPORT_UNEVEN_SPLIT_H_
#define FELIP_TESTS_SUPPORT_UNEVEN_SPLIT_H_

#include <cstddef>
#include <span>
#include <vector>

namespace felip::test_support {

// Chunk lengths on both sides of 4096 reports, the size at which the
// sharded reductions add a shard. The caller's batch must be longer than
// their sum.
inline constexpr size_t kUnevenChunks[] = {1, 4095, 4096, 4097};

// Calls server.AggregateReports on chunks of 1, 4095, 4096 and 4097
// reports, then on the rest of `reports`.
template <typename Server, typename Report>
void AggregateUnevenly(Server& server, const std::vector<Report>& reports) {
  const std::span<const Report> all(reports);
  size_t begin = 0;
  for (const size_t len : kUnevenChunks) {
    server.AggregateReports(all.subspan(begin, len));
    begin += len;
  }
  server.AggregateReports(all.subspan(begin));
}

}  // namespace felip::test_support

#endif  // FELIP_TESTS_SUPPORT_UNEVEN_SPLIT_H_
