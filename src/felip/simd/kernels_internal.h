// Internal glue between the kernel dispatch trampolines and the per-level
// translation units. Not part of the public API.
//
// The scalar reference implementations live here as inline functions so
// the vector TUs can fall back to them for kernels they do not accelerate
// (e.g. the NEON build inherits the scalar OLH support kernel) without a
// cross-TU call — and so the trampolines in kernels_scalar.cc and the
// vector TUs agree on one definition of the canonical accumulation order.
// Sum and ScaleAbsDelta have no dispatched form: the response-matrix
// sweep (post/response_matrix.cc) calls them inline, on rows that
// average 2.5 blocks.

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

// Widest lane count of any FitIpf variant: the trampoline sizes the
// interleaved scratch for it.
inline constexpr size_t kMaxIpfLanes = 8;

// The lane-batched driver behind every FitIpf variant; kernels.h spells
// out the serial loop each lane runs. `Lanes` maps kWidth problems onto
// registers: a Vec holds one double per lane, a Mask one flag per lane,
// and every op acts lane by lane (Rescales is the negation of the serial
// loop's two skips, NaN included; Below(v, t) sets bit k when lane k's
// value is below t). The lanes' vectors are interleaved in
// `z` (entry e of lane k at z[e * kWidth + k]), and their targets in
// `lane_targets` the same way, so one constraint step loads and stores
// whole Vecs. Only raw pointers cross this function: the vector TUs
// instantiate it under their own target flags, and must not instantiate
// library code that the baseline TUs share.
template <typename Lanes>
void FitIpfLanes(const IpfLayout& layout, const double* targets, size_t n,
                 double threshold, int max_iterations, uint32_t first_kept,
                 double* fitted, double* z, double* lane_targets) {
  using Vec = typename Lanes::Vec;
  using Mask = typename Lanes::Mask;
  constexpr size_t kWidth = Lanes::kWidth;
  constexpr size_t kIdle = ~size_t{0};
  const size_t size = layout.size;
  const size_t num_constraints = layout.num_constraints;
  const size_t per_constraint = layout.per_constraint;
  const size_t kept = size - first_kept;
  const double uniform = 1.0 / static_cast<double>(size);

  if (max_iterations <= 0) {
    for (size_t i = 0; i < n * kept; ++i) fitted[i] = uniform;
    return;
  }

  size_t problem[kWidth];
  int sweeps[kWidth];
  size_t next = 0;
  size_t busy = 0;
  // Starts lane k on the next problem. With none left the lane idles on
  // zero targets: its entries fall to 0 and every later sum skips.
  const auto start = [&](size_t k) {
    const bool has_next = next < n;
    problem[k] = has_next ? next++ : kIdle;
    sweeps[k] = 0;
    if (has_next) ++busy;
    for (size_t e = 0; e < size; ++e) z[e * kWidth + k] = uniform;
    const double* own = has_next ? targets + problem[k] * num_constraints
                                 : nullptr;
    for (size_t c = 0; c < num_constraints; ++c) {
      lane_targets[c * kWidth + k] = own != nullptr ? own[c] : 0.0;
    }
  };
  for (size_t k = 0; k < kWidth; ++k) start(k);

  while (busy > 0) {
    Vec change = Lanes::Zero();
    for (size_t c = 0; c < num_constraints; ++c) {
      const uint32_t* masks = layout.masks + c * per_constraint;
      Vec sum = Lanes::Zero();
      for (size_t e = 0; e < per_constraint; ++e) {
        sum = Lanes::Add(sum, Lanes::Load(z + masks[e] * kWidth));
      }
      const Vec scale =
          Lanes::Div(Lanes::Load(lane_targets + c * kWidth), sum);
      const Mask rescales = Lanes::Rescales(sum, scale);
      if (!Lanes::Any(rescales)) continue;
      // Most steps rescale in every lane and need no masking.
      if (Lanes::All(rescales)) {
        for (size_t e = 0; e < per_constraint; ++e) {
          double* entry = z + masks[e] * kWidth;
          const Vec before = Lanes::Load(entry);
          const Vec after = Lanes::Mul(before, scale);
          change = Lanes::Add(change, Lanes::Abs(Lanes::Sub(after, before)));
          Lanes::Store(entry, after);
        }
        continue;
      }
      // Lanes whose serial loop skips this constraint (sum <= 0 or
      // scale == 1) keep their entries and add +0.0 to their change,
      // which leaves a non-negative sum's bits as they are.
      for (size_t e = 0; e < per_constraint; ++e) {
        double* entry = z + masks[e] * kWidth;
        const Vec before = Lanes::Load(entry);
        const Vec after = Lanes::Mul(before, scale);
        change = Lanes::Add(
            change, Lanes::AbsOrZero(rescales, Lanes::Sub(after, before)));
        Lanes::Store(entry, Lanes::Select(rescales, after, before));
      }
    }
    const uint32_t converged = Lanes::Below(change, threshold);
    for (size_t k = 0; k < kWidth; ++k) {
      if (problem[k] == kIdle) continue;
      ++sweeps[k];
      if (((converged >> k) & 1u) == 0 && sweeps[k] < max_iterations) {
        continue;
      }
      double* out = fitted + problem[k] * kept;
      for (size_t e = first_kept; e < size; ++e) {
        out[e - first_kept] = z[e * kWidth + k];
      }
      --busy;
      start(k);
    }
  }
}

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
void FitIpf(const IpfLayout& layout, const double* targets, size_t n,
            double threshold, int max_iterations, uint32_t first_kept,
            double* fitted, double* z, double* lane_targets);
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
void FitIpf(const IpfLayout& layout, const double* targets, size_t n,
            double threshold, int max_iterations, uint32_t first_kept,
            double* fitted, double* z, double* lane_targets);
}  // namespace neon
#endif

}  // namespace felip::simd

#endif  // FELIP_SIMD_KERNELS_INTERNAL_H_
