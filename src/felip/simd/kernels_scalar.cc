// Scalar baselines and the dispatch trampolines. Compiled with
// -ffp-contract=off (see CMakeLists.txt) so the canonical accumulation
// order in kernels_internal.h is what actually executes — a fused
// multiply-add here would change roundings and break bit-identity with
// the vector variants.

#include <cmath>
#include <vector>

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

// FitIpf's baseline lanes: two plain doubles, so two independent
// dependency chains overlap even without vector registers (four lanes
// measured slower on x86-64).
struct ScalarIpfLanes {
  static constexpr size_t kWidth = 2;
  struct Vec {
    double lane[kWidth];
  };
  struct Mask {
    bool lane[kWidth];
  };

  static Vec Zero() { return Vec{}; }
  static Vec Load(const double* p) {
    Vec v;
    for (size_t k = 0; k < kWidth; ++k) v.lane[k] = p[k];
    return v;
  }
  static void Store(double* p, const Vec& v) {
    for (size_t k = 0; k < kWidth; ++k) p[k] = v.lane[k];
  }
  static Vec Add(const Vec& a, const Vec& b) {
    Vec v;
    for (size_t k = 0; k < kWidth; ++k) v.lane[k] = a.lane[k] + b.lane[k];
    return v;
  }
  static Vec Sub(const Vec& a, const Vec& b) {
    Vec v;
    for (size_t k = 0; k < kWidth; ++k) v.lane[k] = a.lane[k] - b.lane[k];
    return v;
  }
  static Vec Mul(const Vec& a, const Vec& b) {
    Vec v;
    for (size_t k = 0; k < kWidth; ++k) v.lane[k] = a.lane[k] * b.lane[k];
    return v;
  }
  static Vec Div(const Vec& a, const Vec& b) {
    Vec v;
    for (size_t k = 0; k < kWidth; ++k) v.lane[k] = a.lane[k] / b.lane[k];
    return v;
  }
  static Mask Rescales(const Vec& sum, const Vec& scale) {
    Mask m;
    for (size_t k = 0; k < kWidth; ++k) {
      m.lane[k] = !(sum.lane[k] <= 0.0) && !(scale.lane[k] == 1.0);
    }
    return m;
  }
  static bool Any(const Mask& m) {
    bool any = false;
    for (size_t k = 0; k < kWidth; ++k) any = any || m.lane[k];
    return any;
  }
  static bool All(const Mask& m) {
    bool all = true;
    for (size_t k = 0; k < kWidth; ++k) all = all && m.lane[k];
    return all;
  }
  static Vec Abs(const Vec& x) {
    Vec v;
    for (size_t k = 0; k < kWidth; ++k) v.lane[k] = std::fabs(x.lane[k]);
    return v;
  }
  static Vec Select(const Mask& m, const Vec& a, const Vec& b) {
    Vec v;
    for (size_t k = 0; k < kWidth; ++k) {
      v.lane[k] = m.lane[k] ? a.lane[k] : b.lane[k];
    }
    return v;
  }
  static Vec AbsOrZero(const Mask& m, const Vec& x) {
    Vec v;
    for (size_t k = 0; k < kWidth; ++k) {
      v.lane[k] = m.lane[k] ? std::fabs(x.lane[k]) : 0.0;
    }
    return v;
  }
  static uint32_t Below(const Vec& v, double t) {
    uint32_t bits = 0;
    for (size_t k = 0; k < kWidth; ++k) {
      if (v.lane[k] < t) bits |= 1u << k;
    }
    return bits;
  }
};

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

double Dot(Level level, const double* a, const double* b, size_t n) {
#if defined(FELIP_SIMD_HAS_AVX2)
  if (UseAvx2(level)) return avx2::Dot(a, b, n);
#endif
#if defined(FELIP_SIMD_HAS_NEON)
  if (UseNeon(level)) return neon::Dot(a, b, n);
#endif
  return scalar_impl::Dot(a, b, n);
}

void FitIpf(Level level, const IpfLayout& layout, const double* targets,
            size_t n, double threshold, int max_iterations,
            uint32_t first_kept, double* fitted) {
  // The interleaved lane scratch is allocated here, in the baseline TU,
  // so the vector variants instantiate no library code.
  std::vector<double> z(static_cast<size_t>(layout.size) * kMaxIpfLanes);
  std::vector<double> lane_targets(
      static_cast<size_t>(layout.num_constraints) * kMaxIpfLanes);
#if defined(FELIP_SIMD_HAS_AVX2)
  if (UseAvx2(level)) {
    return avx2::FitIpf(layout, targets, n, threshold, max_iterations,
                        first_kept, fitted, z.data(), lane_targets.data());
  }
#endif
#if defined(FELIP_SIMD_HAS_NEON)
  if (UseNeon(level)) {
    return neon::FitIpf(layout, targets, n, threshold, max_iterations,
                        first_kept, fitted, z.data(), lane_targets.data());
  }
#endif
  FitIpfLanes<ScalarIpfLanes>(layout, targets, n, threshold, max_iterations,
                              first_kept, fitted, z.data(),
                              lane_targets.data());
}

}  // namespace felip::simd
