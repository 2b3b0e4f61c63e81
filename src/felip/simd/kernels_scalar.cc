// Scalar baselines and the dispatch trampolines. Compiled with
// -ffp-contract=off (see CMakeLists.txt) so the canonical accumulation
// order in kernels_internal.h is what actually executes — a fused
// multiply-add here would change roundings and break bit-identity with
// the vector variants.

#include "felip/simd/kernels.h"
#include "felip/simd/kernels_internal.h"

namespace felip::simd {

namespace {

// True when `level` resolves to a compiled-in vector variant; otherwise
// every trampoline below runs the scalar baseline.
inline bool UseAvx2(Level level) {
#if defined(FELIP_SIMD_HAS_AVX2)
  return level == Level::kAvx2;
#else
  (void)level;
  return false;
#endif
}

inline bool UseNeon(Level level) {
#if defined(FELIP_SIMD_HAS_NEON)
  return level == Level::kNeon;
#else
  (void)level;
  return false;
#endif
}

}  // namespace

void AccumulateNonzeroBytes(Level level, const uint8_t* bits, size_t n,
                            uint64_t* acc) {
#if defined(FELIP_SIMD_HAS_AVX2)
  if (UseAvx2(level)) return avx2::AccumulateNonzeroBytes(bits, n, acc);
#endif
#if defined(FELIP_SIMD_HAS_NEON)
  if (UseNeon(level)) return neon::AccumulateNonzeroBytes(bits, n, acc);
#endif
  scalar_impl::AccumulateNonzeroBytes(bits, n, acc);
}

void AddU64(Level level, uint64_t* into, const uint64_t* from, size_t n) {
#if defined(FELIP_SIMD_HAS_AVX2)
  if (UseAvx2(level)) return avx2::AddU64(into, from, n);
#endif
#if defined(FELIP_SIMD_HAS_NEON)
  if (UseNeon(level)) return neon::AddU64(into, from, n);
#endif
  scalar_impl::AddU64(into, from, n);
}

void OlhSupportRange(Level level, uint64_t seed, uint32_t g,
                     uint32_t target, uint64_t first_value, size_t n,
                     uint64_t* acc) {
#if defined(FELIP_SIMD_HAS_AVX2)
  if (UseAvx2(level)) {
    return avx2::OlhSupportRange(seed, g, target, first_value, n, acc);
  }
#endif
  // NEON inherits the scalar support kernel (no 64-bit lane hash yet).
  scalar_impl::OlhSupportRange(seed, g, target, first_value, n, acc);
}

uint64_t OlhPoolSupport(Level level, uint64_t value, const uint64_t* seeds,
                        size_t num_seeds, uint32_t g,
                        const uint32_t* pool_counts) {
#if defined(FELIP_SIMD_HAS_AVX2)
  if (UseAvx2(level)) {
    return avx2::OlhPoolSupport(value, seeds, num_seeds, g, pool_counts);
  }
#endif
  return scalar_impl::OlhPoolSupport(value, seeds, num_seeds, g,
                                     pool_counts);
}

void AddF64(Level level, const double* a, const double* b, double* dst,
            size_t n) {
#if defined(FELIP_SIMD_HAS_AVX2)
  if (UseAvx2(level)) return avx2::AddF64(a, b, dst, n);
#endif
#if defined(FELIP_SIMD_HAS_NEON)
  if (UseNeon(level)) return neon::AddF64(a, b, dst, n);
#endif
  scalar_impl::AddF64(a, b, dst, n);
}

double Dot(Level level, const double* a, const double* b, size_t n) {
#if defined(FELIP_SIMD_HAS_AVX2)
  if (UseAvx2(level)) return avx2::Dot(a, b, n);
#endif
#if defined(FELIP_SIMD_HAS_NEON)
  if (UseNeon(level)) return neon::Dot(a, b, n);
#endif
  return scalar_impl::Dot(a, b, n);
}

double Sum(Level level, const double* p, size_t n) {
#if defined(FELIP_SIMD_HAS_AVX2)
  if (UseAvx2(level)) return avx2::Sum(p, n);
#endif
#if defined(FELIP_SIMD_HAS_NEON)
  if (UseNeon(level)) return neon::Sum(p, n);
#endif
  return scalar_impl::Sum(p, n);
}

double ScaleAbsDelta(Level level, double* p, size_t n, double scale) {
#if defined(FELIP_SIMD_HAS_AVX2)
  if (UseAvx2(level)) return avx2::ScaleAbsDelta(p, n, scale);
#endif
#if defined(FELIP_SIMD_HAS_NEON)
  if (UseNeon(level)) return neon::ScaleAbsDelta(p, n, scale);
#endif
  return scalar_impl::ScaleAbsDelta(p, n, scale);
}

}  // namespace felip::simd
