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
//   * The floating-point reduction (Dot) defines ONE canonical
//     accumulation order — kLanes independent lane accumulators folded
//     as (l0 + l1) + (l2 + l3), then a sequential tail — which the scalar
//     baseline implements literally and the vector variants map onto
//     their registers. All kernel translation units are compiled with
//     -ffp-contract=off so no variant (including scalar) silently fuses
//     a multiply-add. See docs/simd.md. The response-matrix sweep's sum
//     and rescale use the same order through the scalar loops in
//     kernels_internal.h, inline: its rows are too short for a
//     dispatched call to pay.
//   * FitIpf runs one independent problem per lane, so each lane
//     repeats the serial loop's operations in the serial order.

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

// --- Lane-batched iterative proportional fitting (Algorithm 4) ---

// The constraints shared by a batch of fits over vectors of `size`
// entries: constraint c rescales the entries listed, ascending, at
// masks[c * per_constraint .. (c + 1) * per_constraint).
struct IpfLayout {
  uint32_t size = 0;
  uint32_t num_constraints = 0;
  uint32_t per_constraint = 0;
  const uint32_t* masks = nullptr;
};

// Fits n problems that share `layout`; problem q's target for constraint
// c is targets[q * num_constraints + c]. Every problem runs exactly this
// serial loop:
//
//   z[e] = 1 / size for every entry e
//   repeat at most max_iterations times:
//     change = 0
//     for each constraint c, in order:
//       sum = 0; for each entry e of c, ascending: sum += z[e]
//       if sum <= 0: next constraint
//       scale = target[c] / sum
//       if scale == 1: next constraint
//       for each entry e of c, ascending:
//         after = z[e] * scale; change += |after - z[e]|; z[e] = after
//     stop if change < threshold
//
// The variants fit one problem per lane, and a lane whose problem stops
// takes the next one, so no lane waits for the slowest problem. Lanes
// never mix, so every result is bit-identical to the loop above whatever
// the level, the lane width, or the other problems in the call.
// `fitted` receives entries [first_kept, size) of every problem's final
// z, problem-major: n * (size - first_kept) values.
void FitIpf(Level level, const IpfLayout& layout, const double* targets,
            size_t n, double threshold, int max_iterations,
            uint32_t first_kept, double* fitted);

}  // namespace felip::simd

#endif  // FELIP_SIMD_KERNELS_H_
