// AVX2 kernel variants. This TU is compiled with -mavx2 and
// -ffp-contract=off; it must only ever run after a runtime CPUID check
// (the trampolines in kernels_scalar.cc guarantee that).
//
// Bit-identity with the scalar baseline:
//   * Integer kernels reorganize commutative integer adds — exact.
//   * OlhSupportRange / OlhPoolSupport evaluate the specialized 8-byte
//     xxHash64 path in 64-bit lanes instruction-for-instruction, and
//     replace `% g` with the exact magic-multiply division from
//     fastdiv.h — equal for every uint64_t dividend.
//   * Dot keeps one __m256d accumulator whose lane k receives exactly
//     the terms of scalar lane accumulator k, folded (l0 + l1) + (l2 + l3)
//     like the scalar baseline, with the identical sequential tail.
//   * FitIpf fits eight problems in two __m256d per step; each lane runs
//     its own problem's serial operations (no horizontal op touches a
//     fitted value).

#if defined(FELIP_SIMD_HAS_AVX2)

#include <immintrin.h>

#include "felip/simd/fastdiv.h"
#include "felip/simd/kernels.h"
#include "felip/simd/kernels_internal.h"

namespace felip::simd::avx2 {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline __m256i Rotl64(__m256i x, int r) {
  return _mm256_or_si256(_mm256_slli_epi64(x, r),
                         _mm256_srli_epi64(x, 64 - r));
}

// Low 64 bits of a 64x64 multiply per lane. AVX2 has no 64-bit multiply,
// so build it from 32x32->64 partial products:
//   lo64(a*b) = loL*lbL + ((aL*bH + aH*bL) << 32)
inline __m256i MulLow64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

// High 64 bits of a 64x64 multiply per lane (full 128-bit product from
// four 32x32 partials; carries folded through the cross term).
inline __m256i MulHigh64(__m256i a, __m256i b) {
  const __m256i mask = _mm256_set1_epi64x(0xFFFFFFFFLL);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  const __m256i hi_lo = _mm256_mul_epu32(a_hi, b);
  const __m256i lo_hi = _mm256_mul_epu32(a, b_hi);
  const __m256i hi_hi = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i cross = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_srli_epi64(lo_lo, 32),
                       _mm256_and_si256(hi_lo, mask)),
      _mm256_and_si256(lo_hi, mask));
  return _mm256_add_epi64(
      _mm256_add_epi64(hi_hi, _mm256_srli_epi64(hi_lo, 32)),
      _mm256_add_epi64(_mm256_srli_epi64(lo_hi, 32),
                       _mm256_srli_epi64(cross, 32)));
}

// Specialized 8-byte xxHash64 (see felip/common/hash.cc) in 64-bit lanes.
// Both the value and the seed are per-lane: OlhSupportRange varies the
// value under one seed, OlhPoolSupport varies the seed over one value.
inline __m256i XxHash64Lanes(__m256i value, __m256i seed) {
  const __m256i p1 = _mm256_set1_epi64x(static_cast<int64_t>(kPrime1));
  const __m256i p2 = _mm256_set1_epi64x(static_cast<int64_t>(kPrime2));
  const __m256i p3 = _mm256_set1_epi64x(static_cast<int64_t>(kPrime3));
  // Round(0, value) = Rotl(value * kPrime2, 31) * kPrime1
  const __m256i round0 = MulLow64(Rotl64(MulLow64(value, p2), 31), p1);
  __m256i h = _mm256_add_epi64(
      seed, _mm256_set1_epi64x(static_cast<int64_t>(kPrime5 + 8)));
  h = _mm256_xor_si256(h, round0);
  h = _mm256_add_epi64(MulLow64(Rotl64(h, 27), p1),
                       _mm256_set1_epi64x(static_cast<int64_t>(kPrime4)));
  // Avalanche.
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
  h = MulLow64(h, p2);
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 29));
  h = MulLow64(h, p3);
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 32));
  return h;
}

// Exact n % d.divisor per lane (FastDivRemainder in 64-bit lanes).
inline __m256i FastDivRemainderLanes(const FastDivU64& d, __m256i n) {
  if (d.magic == 0) {
    return _mm256_and_si256(
        n, _mm256_set1_epi64x(static_cast<int64_t>(d.divisor - 1)));
  }
  __m256i q =
      MulHigh64(n, _mm256_set1_epi64x(static_cast<int64_t>(d.magic)));
  if (d.add) {
    const __m256i t = _mm256_srli_epi64(_mm256_sub_epi64(n, q), 1);
    q = _mm256_srli_epi64(_mm256_add_epi64(t, q), static_cast<int>(d.shift));
  } else {
    q = _mm256_srli_epi64(q, static_cast<int>(d.shift));
  }
  return _mm256_sub_epi64(
      n, MulLow64(q, _mm256_set1_epi64x(static_cast<int64_t>(d.divisor))));
}

}  // namespace

void AccumulateNonzeroBytes(const uint8_t* bits, size_t n, uint64_t* acc) {
  const __m128i one = _mm_set1_epi8(1);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bits + i));
    // Any nonzero byte -> 1, zero stays 0.
    const __m128i ones = _mm_min_epu8(bytes, one);
    const auto accumulate_quad = [acc, i](size_t k, __m128i low4) {
      __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + k));
      a = _mm256_add_epi64(a, _mm256_cvtepu8_epi64(low4));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + k), a);
    };
    // The byte-shift count must be an immediate, so unroll the 4 quads.
    accumulate_quad(0, ones);
    accumulate_quad(4, _mm_srli_si128(ones, 4));
    accumulate_quad(8, _mm_srli_si128(ones, 8));
    accumulate_quad(12, _mm_srli_si128(ones, 12));
  }
  for (; i < n; ++i) acc[i] += bits[i] != 0 ? 1 : 0;
}

void AddU64(uint64_t* into, const uint64_t* from, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(into + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(from + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(into + i),
                        _mm256_add_epi64(a, b));
  }
  for (; i < n; ++i) into[i] += from[i];
}

void OlhSupportRange(uint64_t seed, uint32_t g, uint32_t target,
                     uint64_t first_value, size_t n, uint64_t* acc) {
  const FastDivU64 div = MakeFastDivU64(g);
  const __m256i target_lanes =
      _mm256_set1_epi64x(static_cast<int64_t>(target));
  __m256i value = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<int64_t>(first_value)),
      _mm256_set_epi64x(3, 2, 1, 0));
  const __m256i step = _mm256_set1_epi64x(4);
  const __m256i seed_lanes = _mm256_set1_epi64x(static_cast<int64_t>(seed));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i hashed = XxHash64Lanes(value, seed_lanes);
    const __m256i rem = FastDivRemainderLanes(div, hashed);
    // cmpeq lanes are all-ones (-1) on match: acc -= mask adds 1.
    const __m256i match = _mm256_cmpeq_epi64(rem, target_lanes);
    __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    a = _mm256_sub_epi64(a, match);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a);
    value = _mm256_add_epi64(value, step);
  }
  if (i < n) {
    scalar_impl::OlhSupportRange(seed, g, target, first_value + i, n - i,
                                 acc + i);
  }
}

uint64_t OlhPoolSupport(uint64_t value, const uint64_t* seeds,
                        size_t num_seeds, uint32_t g,
                        const uint32_t* pool_counts) {
  const FastDivU64 div = MakeFastDivU64(g);
  const __m256i value_lanes =
      _mm256_set1_epi64x(static_cast<int64_t>(value));
  __m256i support = _mm256_setzero_si256();
  // Row offsets s * g for four consecutive seeds.
  const int64_t g64 = static_cast<int64_t>(g);
  __m256i row = _mm256_set_epi64x(3 * g64, 2 * g64, g64, 0);
  const __m256i row_step = _mm256_set1_epi64x(4 * g64);
  size_t s = 0;
  for (; s + 4 <= num_seeds; s += 4) {
    // Hash one value under four different seeds at once.
    const __m256i seed_lanes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(seeds + s));
    const __m256i hashed = XxHash64Lanes(value_lanes, seed_lanes);
    const __m256i rem = FastDivRemainderLanes(div, hashed);
    const __m256i idx = _mm256_add_epi64(row, rem);
    // Four uint32_t pool counts gathered by 64-bit index.
    const __m128i counts = _mm256_i64gather_epi32(
        reinterpret_cast<const int*>(pool_counts), idx, 4);
    support = _mm256_add_epi64(support, _mm256_cvtepu32_epi64(counts));
    row = _mm256_add_epi64(row, row_step);
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), support);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  if (s < num_seeds) {
    // Tail seeds index rows s.. so advance the count matrix with them.
    total += scalar_impl::OlhPoolSupport(value, seeds + s, num_seeds - s, g,
                                         pool_counts + s * g);
  }
  return total;
}

void AddF64(const double* a, const double* b, double* dst, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

namespace {

// Fold one __m256d accumulator exactly like the scalar baseline:
// (lane0 + lane1) + (lane2 + lane3).
inline double FoldLanes(__m256d acc) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

}  // namespace

double Dot(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const size_t blocked = n - n % 4;
  for (size_t i = 0; i < blocked; i += 4) {
    // mul then add (no FMA): lane k performs exactly
    // lane[k] += a[i+k] * b[i+k] of the scalar baseline.
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double total = FoldLanes(acc);
  for (size_t i = blocked; i < n; ++i) total += a[i] * b[i];
  return total;
}

namespace {

// FitIpf's lanes: kRegs registers of four problems each, so kRegs
// independent add chains are in flight per step. Four registers measured
// much slower than two: the step's live values then exceed the sixteen
// ymm registers and spill.
struct Avx2IpfLanes {
  static constexpr size_t kRegs = 2;
  static constexpr size_t kWidth = 4 * kRegs;
  struct Vec {
    __m256d r[kRegs];
  };
  using Mask = Vec;

  static Vec Zero() {
    Vec v;
    for (size_t i = 0; i < kRegs; ++i) v.r[i] = _mm256_setzero_pd();
    return v;
  }
  static Vec Load(const double* p) {
    Vec v;
    for (size_t i = 0; i < kRegs; ++i) v.r[i] = _mm256_loadu_pd(p + 4 * i);
    return v;
  }
  static void Store(double* p, const Vec& v) {
    for (size_t i = 0; i < kRegs; ++i) _mm256_storeu_pd(p + 4 * i, v.r[i]);
  }
  static Vec Add(const Vec& a, const Vec& b) {
    Vec v;
    for (size_t i = 0; i < kRegs; ++i) v.r[i] = _mm256_add_pd(a.r[i], b.r[i]);
    return v;
  }
  static Vec Sub(const Vec& a, const Vec& b) {
    Vec v;
    for (size_t i = 0; i < kRegs; ++i) v.r[i] = _mm256_sub_pd(a.r[i], b.r[i]);
    return v;
  }
  static Vec Mul(const Vec& a, const Vec& b) {
    Vec v;
    for (size_t i = 0; i < kRegs; ++i) v.r[i] = _mm256_mul_pd(a.r[i], b.r[i]);
    return v;
  }
  static Vec Div(const Vec& a, const Vec& b) {
    Vec v;
    for (size_t i = 0; i < kRegs; ++i) v.r[i] = _mm256_div_pd(a.r[i], b.r[i]);
    return v;
  }
  // !(sum <= 0) && !(scale == 1): the unordered predicates keep NaN lanes
  // rescaling, as the serial loop does.
  static Mask Rescales(const Vec& sum, const Vec& scale) {
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    Mask m;
    for (size_t i = 0; i < kRegs; ++i) {
      m.r[i] = _mm256_and_pd(_mm256_cmp_pd(sum.r[i], zero, _CMP_NLE_UQ),
                             _mm256_cmp_pd(scale.r[i], one, _CMP_NEQ_UQ));
    }
    return m;
  }
  static bool Any(const Mask& m) {
    __m256d any = m.r[0];
    for (size_t i = 1; i < kRegs; ++i) any = _mm256_or_pd(any, m.r[i]);
    return _mm256_movemask_pd(any) != 0;
  }
  static bool All(const Mask& m) {
    __m256d all = m.r[0];
    for (size_t i = 1; i < kRegs; ++i) all = _mm256_and_pd(all, m.r[i]);
    return _mm256_movemask_pd(all) == 0xF;
  }
  static Vec Abs(const Vec& x) {
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
    Vec v;
    for (size_t i = 0; i < kRegs; ++i) v.r[i] = _mm256_and_pd(x.r[i], abs_mask);
    return v;
  }
  static Vec Select(const Mask& m, const Vec& a, const Vec& b) {
    Vec v;
    for (size_t i = 0; i < kRegs; ++i) {
      v.r[i] = _mm256_blendv_pd(b.r[i], a.r[i], m.r[i]);
    }
    return v;
  }
  // fabs == clear the sign bit; masked-off lanes read +0.0.
  static Vec AbsOrZero(const Mask& m, const Vec& x) {
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
    Vec v;
    for (size_t i = 0; i < kRegs; ++i) {
      v.r[i] = _mm256_and_pd(_mm256_and_pd(x.r[i], abs_mask), m.r[i]);
    }
    return v;
  }
  static uint32_t Below(const Vec& v, double t) {
    const __m256d limit = _mm256_set1_pd(t);
    uint32_t bits = 0;
    for (size_t i = 0; i < kRegs; ++i) {
      const int lanes =
          _mm256_movemask_pd(_mm256_cmp_pd(v.r[i], limit, _CMP_LT_OQ));
      bits |= static_cast<uint32_t>(lanes) << (4 * i);
    }
    return bits;
  }
};

}  // namespace

void FitIpf(const IpfLayout& layout, const double* targets, size_t n,
            double threshold, int max_iterations, uint32_t first_kept,
            double* fitted, double* z, double* lane_targets) {
  FitIpfLanes<Avx2IpfLanes>(layout, targets, n, threshold, max_iterations,
                            first_kept, fitted, z, lane_targets);
}

}  // namespace felip::simd::avx2

#endif  // FELIP_SIMD_HAS_AVX2
