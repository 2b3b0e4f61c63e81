// The allocation cap itself: every operator new form a decoder or the
// standard library can reach honours it, and memory taken through the
// nothrow forms goes back through the replaced delete without an
// allocator mismatch (which the sanitizer matrix's ASan build reports).

#include "support/alloc_cap.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace felip::test_support {
namespace {

TEST(AllocationCapTest, ThrowingNewAboveTheCapThrows) {
  ScopedAllocationCap cap(64);
  EXPECT_THROW(::operator delete(::operator new(64 * kAllocationCapFactor + 1)),
               std::bad_alloc);
  void* p = ::operator new(64);
  EXPECT_NE(p, nullptr);
  ::operator delete(p);
}

TEST(AllocationCapTest, NothrowNewAboveTheCapReturnsNull) {
  ScopedAllocationCap cap(64);
  const size_t over = 64 * kAllocationCapFactor + 1;
  EXPECT_EQ(::operator new(over, std::nothrow), nullptr);
  EXPECT_EQ(::operator new[](over, std::nothrow), nullptr);
  void* p = ::operator new(64, std::nothrow);
  void* q = ::operator new[](64, std::nothrow);
  EXPECT_NE(p, nullptr);
  EXPECT_NE(q, nullptr);
  ::operator delete(p);
  ::operator delete[](q);
}

// std::stable_sort takes a temporary buffer of half its input through
// nothrow new; under the cap it must get one and sort stably.
TEST(AllocationCapTest, StableSortUnderTheCap) {
  constexpr size_t kCount = 1 << 14;
  std::vector<std::pair<uint32_t, uint32_t>> records(kCount);
  for (size_t i = 0; i < kCount; ++i) {
    records[i] = {static_cast<uint32_t>((i * 7919) % 97),
                  static_cast<uint32_t>(i)};
  }
  {
    ScopedAllocationCap cap(records.size() * sizeof(records[0]));
    std::stable_sort(records.begin(), records.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  }
  for (size_t i = 1; i < kCount; ++i) {
    ASSERT_TRUE(records[i - 1].first < records[i].first ||
                (records[i - 1].first == records[i].first &&
                 records[i - 1].second < records[i].second))
        << "position " << i;
  }
}

}  // namespace
}  // namespace felip::test_support
