// A per-scope cap on single heap allocations, for the corruption corpora
// (truncation and bit-flip sweeps over checkpoint, epoch-segment and
// report-log bytes on disk and over wire report frames).
//
// Linking alloc_cap.cc into a test binary replaces the global operator
// new, the nothrow forms included. While a ScopedAllocationCap is alive
// on a thread, any single allocation that thread makes above the cap
// prints its size and throws std::bad_alloc (nothrow new returns nullptr
// instead). A decoder that sizes a buffer from a corrupted length
// field therefore fails its sweep on every host, instead of passing where
// the kernel overcommits memory and failing where it does not.

#ifndef FELIP_TESTS_SUPPORT_ALLOC_CAP_H_
#define FELIP_TESTS_SUPPORT_ALLOC_CAP_H_

#include <cstddef>

namespace felip::test_support {

// k in "no single allocation above k x the input size". A sound decoder
// holds a few copies of its input (the file, its body without the
// trailer, the section or record payloads) plus containers whose elements
// are at most a small multiple of the smallest on-disk record; 16x covers
// that with room to spare. A corrupted 32- or 64-bit length asks for
// gigabytes, millions of times more than any corpus file here.
inline constexpr size_t kAllocationCapFactor = 16;

class ScopedAllocationCap {
 public:
  // Caps single allocations on this thread at
  // kAllocationCapFactor * input_bytes until destruction.
  explicit ScopedAllocationCap(size_t input_bytes);
  ~ScopedAllocationCap();

  ScopedAllocationCap(const ScopedAllocationCap&) = delete;
  ScopedAllocationCap& operator=(const ScopedAllocationCap&) = delete;

 private:
  size_t previous_cap_;
};

}  // namespace felip::test_support

#endif  // FELIP_TESTS_SUPPORT_ALLOC_CAP_H_
