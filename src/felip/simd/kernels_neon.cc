// NEON kernel variants (AArch64). Compiled only when the toolchain
// targets ARM with Advanced SIMD (see CMakeLists.txt); the OLH hash
// kernels intentionally have no NEON variant yet and inherit the scalar
// baseline via the trampolines.
//
// NEON double vectors are 2 lanes wide, so the canonical 4-lane
// accumulation order is carried in two float64x2_t registers: acc01
// holds scalar lanes {0,1}, acc23 holds {2,3}. The fold
// (l0 + l1) + (l2 + l3) then maps onto one vpaddd per pair. FitIpf
// fits four problems in two registers, one problem per lane.

#if defined(FELIP_SIMD_HAS_NEON)

#include <arm_neon.h>

#include "felip/simd/kernels.h"
#include "felip/simd/kernels_internal.h"

namespace felip::simd::neon {

void AccumulateNonzeroBytes(const uint8_t* bits, size_t n, uint64_t* acc) {
  const uint8x16_t one = vdupq_n_u8(1);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t ones = vminq_u8(vld1q_u8(bits + i), one);
    // Widen byte lanes 0/1-valued to uint64_t and accumulate.
    const uint16x8_t w16_lo = vmovl_u8(vget_low_u8(ones));
    const uint16x8_t w16_hi = vmovl_u8(vget_high_u8(ones));
    const uint16x8_t w16[2] = {w16_lo, w16_hi};
    for (size_t half = 0; half < 2; ++half) {
      const uint32x4_t w32_lo = vmovl_u16(vget_low_u16(w16[half]));
      const uint32x4_t w32_hi = vmovl_u16(vget_high_u16(w16[half]));
      const uint32x4_t w32[2] = {w32_lo, w32_hi};
      for (size_t quarter = 0; quarter < 2; ++quarter) {
        const size_t base = i + half * 8 + quarter * 4;
        uint64x2_t a0 = vld1q_u64(acc + base);
        uint64x2_t a1 = vld1q_u64(acc + base + 2);
        a0 = vaddq_u64(a0, vmovl_u32(vget_low_u32(w32[quarter])));
        a1 = vaddq_u64(a1, vmovl_u32(vget_high_u32(w32[quarter])));
        vst1q_u64(acc + base, a0);
        vst1q_u64(acc + base + 2, a1);
      }
    }
  }
  for (; i < n; ++i) acc[i] += bits[i] != 0 ? 1 : 0;
}

void AddU64(uint64_t* into, const uint64_t* from, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(into + i, vaddq_u64(vld1q_u64(into + i), vld1q_u64(from + i)));
  }
  for (; i < n; ++i) into[i] += from[i];
}

namespace {

// (l0 + l1) + (l2 + l3) with scalar lanes {0,1} in acc01, {2,3} in acc23.
inline double FoldLanes(float64x2_t acc01, float64x2_t acc23) {
  const double l01 = vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1);
  const double l23 = vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1);
  return l01 + l23;
}

}  // namespace

double Dot(const double* a, const double* b, size_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  const size_t blocked = n - n % 4;
  for (size_t i = 0; i < blocked; i += 4) {
    // Explicit mul then add (not vfmaq) to match the contract-free
    // scalar baseline rounding-for-rounding.
    acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    acc23 = vaddq_f64(acc23,
                      vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
  }
  double total = FoldLanes(acc01, acc23);
  for (size_t i = blocked; i < n; ++i) total += a[i] * b[i];
  return total;
}

namespace {

// FitIpf's lanes: four problems in two float64x2_t.
struct NeonIpfLanes {
  static constexpr size_t kWidth = 4;
  struct Vec {
    float64x2_t lo, hi;
  };
  struct Mask {
    uint64x2_t lo, hi;
  };

  static Vec Zero() { return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
  static Vec Load(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
  static void Store(double* p, Vec v) {
    vst1q_f64(p, v.lo);
    vst1q_f64(p + 2, v.hi);
  }
  static Vec Add(Vec a, Vec b) {
    return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  static Vec Sub(Vec a, Vec b) {
    return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
  }
  static Vec Mul(Vec a, Vec b) {
    return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }
  static Vec Div(Vec a, Vec b) {
    return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
  }
  // Not (sum <= 0 or scale == 1); both compares are false on NaN, so NaN
  // lanes keep rescaling, as the serial loop does.
  static uint64x2_t Rescales(float64x2_t sum, float64x2_t scale) {
    const uint64x2_t skip = vorrq_u64(vcleq_f64(sum, vdupq_n_f64(0.0)),
                                      vceqq_f64(scale, vdupq_n_f64(1.0)));
    return veorq_u64(skip, vdupq_n_u64(~uint64_t{0}));
  }
  static Mask Rescales(Vec sum, Vec scale) {
    return {Rescales(sum.lo, scale.lo), Rescales(sum.hi, scale.hi)};
  }
  static bool Any(Mask m) {
    const uint64x2_t any = vorrq_u64(m.lo, m.hi);
    return (vgetq_lane_u64(any, 0) | vgetq_lane_u64(any, 1)) != 0;
  }
  static bool All(Mask m) {
    const uint64x2_t all = vandq_u64(m.lo, m.hi);
    return (vgetq_lane_u64(all, 0) & vgetq_lane_u64(all, 1)) != 0;
  }
  static Vec Abs(Vec x) { return {vabsq_f64(x.lo), vabsq_f64(x.hi)}; }
  static Vec Select(Mask m, Vec a, Vec b) {
    return {vbslq_f64(m.lo, a.lo, b.lo), vbslq_f64(m.hi, a.hi, b.hi)};
  }
  static float64x2_t AbsOrZero(uint64x2_t m, float64x2_t x) {
    return vreinterpretq_f64_u64(
        vandq_u64(vreinterpretq_u64_f64(vabsq_f64(x)), m));
  }
  static Vec AbsOrZero(Mask m, Vec x) {
    return {AbsOrZero(m.lo, x.lo), AbsOrZero(m.hi, x.hi)};
  }
  static uint32_t Below(Vec v, double t) {
    const float64x2_t limit = vdupq_n_f64(t);
    const uint64x2_t lo = vcltq_f64(v.lo, limit);
    const uint64x2_t hi = vcltq_f64(v.hi, limit);
    return static_cast<uint32_t>((vgetq_lane_u64(lo, 0) & 1u) |
                                 ((vgetq_lane_u64(lo, 1) & 1u) << 1) |
                                 ((vgetq_lane_u64(hi, 0) & 1u) << 2) |
                                 ((vgetq_lane_u64(hi, 1) & 1u) << 3));
  }
};

}  // namespace

void FitIpf(const IpfLayout& layout, const double* targets, size_t n,
            double threshold, int max_iterations, uint32_t first_kept,
            double* fitted, double* z, double* lane_targets) {
  FitIpfLanes<NeonIpfLanes>(layout, targets, n, threshold, max_iterations,
                            first_kept, fitted, z, lane_targets);
}

}  // namespace felip::simd::neon

#endif  // FELIP_SIMD_HAS_NEON
