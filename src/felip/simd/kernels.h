// Hot-loop kernels with runtime-dispatched scalar / AVX2 / NEON variants.
//
// Callers pass a dispatch Level explicitly (normally simd::ActiveLevel());
// levels that are not compiled into the binary silently execute the scalar
// baseline, so passing any Level is always safe. Every variant of every
// kernel is bit-identical to the scalar baseline for every input — the
// contract tests/simd/kernel_differential_test.cc enforces across all
// remainder lengths, adversarial values, and random seeds:
//
//   * Integer kernels (byte counting, folds, OLH support) are exact
//     by nature — the vector variants merely reorganize commutative
//     integer additions.
//   * Floating-point kernels (Dot, Sum, ScaleAbsDelta) define ONE
//     canonical accumulation order — kLanes independent lane accumulators
//     folded as (l0 + l1) + (l2 + l3), then a sequential tail — which the
//     scalar baseline implements literally and the vector variants map
//     onto their registers. All kernel translation units are compiled
//     with -ffp-contract=off so no variant (including scalar) silently
//     fuses a multiply-add. See docs/simd.md.

#ifndef FELIP_SIMD_KERNELS_H_
#define FELIP_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "felip/simd/dispatch.h"

namespace felip::simd {

// Lane count of the canonical floating-point accumulation order (one
// AVX2 double register). Tail lengths 0..kLanes+1 are the interesting
// differential-test cases.
inline constexpr size_t kLanes = 4;

// --- Integer kernels (exact; any reordering is bit-identical) ---

// OUE bit-unpacking: acc[i] += (bits[i] != 0) for i in [0, n).
void AccumulateNonzeroBytes(Level level, const uint8_t* bits, size_t n,
                            uint64_t* acc);

// into[i] += from[i] for i in [0, n). (Accumulator folds.)
void AddU64(Level level, uint64_t* into, const uint64_t* from, size_t n);

// Per-user OLH support counting over a contiguous value range:
//   acc[i] += (XxHash64(first_value + i, seed) % g == target)
// for i in [0, n). Requires g >= 2 and target < g. The AVX2 variant
// evaluates the specialized 8-byte xxHash64 and the mod-g reduction in
// 64-bit lanes (see fastdiv.h).
void OlhSupportRange(Level level, uint64_t seed, uint32_t g,
                     uint32_t target, uint64_t first_value, size_t n,
                     uint64_t* acc);

// Pooled OLH support of one value: sum over s in [0, num_seeds) of
// pool_counts[s * g + XxHash64(value, seeds[s]) % g]. Requires g >= 2.
uint64_t OlhPoolSupport(Level level, uint64_t value, const uint64_t* seeds,
                        size_t num_seeds, uint32_t g,
                        const uint32_t* pool_counts);

// --- Floating-point kernels (canonical lane-folded order) ---

// dst[i] = a[i] + b[i] for i in [0, n). Element-wise, so exact at any
// width. (Prefix-sum row propagation.)
void AddF64(Level level, const double* a, const double* b, double* dst,
            size_t n);

// Canonical lane-folded dot product of a[0..n) and b[0..n).
double Dot(Level level, const double* a, const double* b, size_t n);

// Canonical lane-folded sum of p[0..n).
double Sum(Level level, const double* p, size_t n);

// p[i] *= scale for i in [0, n); returns the canonical lane-folded sum of
// |p_after - p_before|. (Weighted-update rescale + convergence residual.)
double ScaleAbsDelta(Level level, double* p, size_t n, double scale);

}  // namespace felip::simd

#endif  // FELIP_SIMD_KERNELS_H_
