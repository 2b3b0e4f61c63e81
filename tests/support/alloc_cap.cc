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

void* operator new(size_t size) {
  if (t_allocation_cap != 0 && size > t_allocation_cap) {
    std::fprintf(stderr, "allocation of %zu bytes exceeds the %zu-byte cap\n",
                 size, t_allocation_cap);
    throw std::bad_alloc();
  }
  void* p = std::malloc(size > 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
