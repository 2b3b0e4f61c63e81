// Internal glue between the kernel dispatch trampolines and the per-level
// translation units. Not part of the public API.
//
// The scalar reference implementations live here as inline functions so
// the vector TUs can fall back to them for kernels they do not accelerate
// (e.g. the NEON build inherits the scalar OLH support kernel) without a
// cross-TU call — and so the trampolines in kernels_scalar.cc and the
// vector TUs agree on one definition of the canonical accumulation order.

#ifndef FELIP_SIMD_KERNELS_INTERNAL_H_
#define FELIP_SIMD_KERNELS_INTERNAL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "felip/common/hash.h"
#include "felip/simd/kernels.h"

namespace felip::simd {

namespace scalar_impl {

inline void AccumulateNonzeroBytes(const uint8_t* bits, size_t n,
                                   uint64_t* acc) {
  for (size_t i = 0; i < n; ++i) {
    acc[i] += bits[i] != 0 ? 1 : 0;
  }
}

inline void AddU64(uint64_t* into, const uint64_t* from, size_t n) {
  for (size_t i = 0; i < n; ++i) into[i] += from[i];
}

inline void OlhSupportRange(uint64_t seed, uint32_t g, uint32_t target,
                            uint64_t first_value, size_t n, uint64_t* acc) {
  for (size_t i = 0; i < n; ++i) {
    if (OlhHash(first_value + i, seed, g) == target) ++acc[i];
  }
}

inline uint64_t OlhPoolSupport(uint64_t value, const uint64_t* seeds,
                               size_t num_seeds, uint32_t g,
                               const uint32_t* pool_counts) {
  uint64_t support = 0;
  for (size_t s = 0; s < num_seeds; ++s) {
    const uint32_t h = OlhHash(value, seeds[s], g);
    support += pool_counts[s * g + h];
  }
  return support;
}

inline void AddF64(const double* a, const double* b, double* dst,
                   size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
}

// The canonical lane-folded reductions. The loop shape below IS the
// specification: kLanes independent accumulators over the blocked body,
// folded (l0 + l1) + (l2 + l3), then a sequential tail on the folded
// total. Vector variants must reproduce these exact roundings.

inline double Dot(const double* a, const double* b, size_t n) {
  double lane[kLanes] = {0.0, 0.0, 0.0, 0.0};
  const size_t blocked = n - n % kLanes;
  for (size_t i = 0; i < blocked; i += kLanes) {
    for (size_t k = 0; k < kLanes; ++k) {
      lane[k] += a[i + k] * b[i + k];
    }
  }
  double total = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (size_t i = blocked; i < n; ++i) total += a[i] * b[i];
  return total;
}

inline double Sum(const double* p, size_t n) {
  double lane[kLanes] = {0.0, 0.0, 0.0, 0.0};
  const size_t blocked = n - n % kLanes;
  for (size_t i = 0; i < blocked; i += kLanes) {
    for (size_t k = 0; k < kLanes; ++k) {
      lane[k] += p[i + k];
    }
  }
  double total = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (size_t i = blocked; i < n; ++i) total += p[i];
  return total;
}

inline double ScaleAbsDelta(double* p, size_t n, double scale) {
  double lane[kLanes] = {0.0, 0.0, 0.0, 0.0};
  const size_t blocked = n - n % kLanes;
  for (size_t i = 0; i < blocked; i += kLanes) {
    for (size_t k = 0; k < kLanes; ++k) {
      const double before = p[i + k];
      const double after = before * scale;
      lane[k] += std::fabs(after - before);
      p[i + k] = after;
    }
  }
  double total = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (size_t i = blocked; i < n; ++i) {
    const double before = p[i];
    const double after = before * scale;
    total += std::fabs(after - before);
    p[i] = after;
  }
  return total;
}

}  // namespace scalar_impl

#if defined(FELIP_SIMD_HAS_AVX2)
namespace avx2 {
void AccumulateNonzeroBytes(const uint8_t* bits, size_t n, uint64_t* acc);
void AddU64(uint64_t* into, const uint64_t* from, size_t n);
void OlhSupportRange(uint64_t seed, uint32_t g, uint32_t target,
                     uint64_t first_value, size_t n, uint64_t* acc);
uint64_t OlhPoolSupport(uint64_t value, const uint64_t* seeds,
                        size_t num_seeds, uint32_t g,
                        const uint32_t* pool_counts);
void AddF64(const double* a, const double* b, double* dst, size_t n);
double Dot(const double* a, const double* b, size_t n);
double Sum(const double* p, size_t n);
double ScaleAbsDelta(double* p, size_t n, double scale);
}  // namespace avx2
#endif

// The NEON build inherits the scalar OLH hash kernels, so it declares no
// per-level variants for those here.
#if defined(FELIP_SIMD_HAS_NEON)
namespace neon {
void AccumulateNonzeroBytes(const uint8_t* bits, size_t n, uint64_t* acc);
void AddU64(uint64_t* into, const uint64_t* from, size_t n);
void AddF64(const double* a, const double* b, double* dst, size_t n);
double Dot(const double* a, const double* b, size_t n);
double Sum(const double* p, size_t n);
double ScaleAbsDelta(double* p, size_t n, double scale);
}  // namespace neon
#endif

}  // namespace felip::simd

#endif  // FELIP_SIMD_KERNELS_INTERNAL_H_
