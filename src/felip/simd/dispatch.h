// Runtime SIMD dispatch for the hot-loop kernels in felip/simd/kernels.h.
//
// Every kernel has a scalar baseline plus optional AVX2 / NEON variants
// compiled into their own translation units with the matching target
// flags. Which variant runs is decided ONCE at startup:
//
//   1. FELIP_SIMD=scalar|avx2|neon|auto forces a level. Requesting a level
//      that is not compiled in or not supported by this CPU falls back to
//      scalar with a warning on stderr (never to a different vector level,
//      so a forced run is always comparable to what was asked for).
//   2. Otherwise the best compiled-in level the CPU supports is picked via
//      CPUID (x86) / architecture (aarch64, where NEON is baseline).
//
// Dispatch never affects results: every vector kernel is required — and
// differentially tested (tests/simd/) — to be BIT-IDENTICAL to the scalar
// baseline for any input, including all remainder/tail lengths. Floating
// point reductions achieve this by defining one canonical lane-folded
// accumulation order that the scalar baseline implements literally, and
// FitIpf by never mixing its lanes (see docs/simd.md); integer kernels
// are exact by nature.

#ifndef FELIP_SIMD_DISPATCH_H_
#define FELIP_SIMD_DISPATCH_H_

#include <string>
#include <string_view>
#include <vector>

namespace felip::simd {

enum class Level {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

// Stable lowercase name ("scalar", "avx2", "neon") — the same tokens
// FELIP_SIMD accepts and the BENCH_*.json `dispatch` field records.
const char* LevelName(Level level);

// Parses a FELIP_SIMD value. Returns true and sets *level for a valid
// token ("auto" maps to the detected best level); false for junk.
bool ParseLevel(std::string_view token, Level* level);

// Levels whose kernels are compiled into this binary (always includes
// kScalar, in ascending Level order).
std::vector<Level> CompiledLevels();

// True when this machine can execute `level`'s kernels (kScalar always;
// kAvx2/kNeon require both compiled-in support and CPU capability).
bool LevelSupported(Level level);

// The level selected at startup (CPUID + FELIP_SIMD override), or the
// innermost active ScopedLevelOverride. All hot-loop call sites read this
// per call, so an override applies to everything downstream.
Level ActiveLevel();

// Human-readable description of how the active level was chosen, e.g.
// "avx2 (auto-detected)" or "scalar (FELIP_SIMD=scalar)".
std::string DescribeDispatch();

// Test-only: forces ActiveLevel() to `level` for this scope. The level
// must be supported (FELIP_CHECKed). Not reentrancy-safe across threads —
// install before spawning workers, as the differential and golden tests
// do.
class ScopedLevelOverride {
 public:
  explicit ScopedLevelOverride(Level level);
  ~ScopedLevelOverride();
  ScopedLevelOverride(const ScopedLevelOverride&) = delete;
  ScopedLevelOverride& operator=(const ScopedLevelOverride&) = delete;

 private:
  int previous_;
};

}  // namespace felip::simd

#endif  // FELIP_SIMD_DISPATCH_H_
