#include "support/alloc_cap.h"

#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

// Largest single allocation this thread may make; 0 means no cap.
thread_local size_t t_allocation_cap = 0;

}  // namespace

namespace felip::test_support {

ScopedAllocationCap::ScopedAllocationCap(size_t input_bytes)
    : previous_cap_(t_allocation_cap) {
  t_allocation_cap = kAllocationCapFactor * (input_bytes > 0 ? input_bytes : 1);
}

ScopedAllocationCap::~ScopedAllocationCap() {
  t_allocation_cap = previous_cap_;
}

}  // namespace felip::test_support

namespace {

// The one allocation path behind every replaced operator new: nullptr
// when `size` exceeds this thread's cap (after saying so) or malloc
// fails.
void* CappedMalloc(size_t size) {
  if (t_allocation_cap != 0 && size > t_allocation_cap) {
    std::fprintf(stderr, "allocation of %zu bytes exceeds the %zu-byte cap\n",
                 size, t_allocation_cap);
    return nullptr;
  }
  return std::malloc(size > 0 ? size : 1);
}

}  // namespace

// Every unaligned new and delete is replaced, the nothrow forms included:
// libstdc++ takes std::stable_sort's and std::stable_partition's buffers
// through nothrow new, and a nothrow form left to the runtime would both
// escape the cap and hand the replaced delete memory it did not malloc.

void* operator new(size_t size) {
  void* p = CappedMalloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](size_t size) { return ::operator new(size); }

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CappedMalloc(size);
}

void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CappedMalloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
