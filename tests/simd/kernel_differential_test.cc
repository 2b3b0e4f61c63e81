// Differential harness for the SIMD kernel layer: every kernel, at every
// compiled-and-supported dispatch level, must be BIT-IDENTICAL to the
// scalar baseline — for every tail length around the vector width,
// adversarial floating-point values (denormals, huge magnitudes, signed
// zeros), saturated byte patterns, and preloaded accumulators. The same
// suite runs under the sanitizer matrix in CI, so the vector loads/stores
// are also checked for out-of-bounds tails.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/hash.h"
#include "felip/simd/dispatch.h"
#include "felip/simd/fastdiv.h"
#include "felip/simd/kernels.h"

namespace felip::simd {
namespace {

// Every level the running machine can actually execute. Scalar is always
// first, so tests can diff each vector level against levels[0].
std::vector<Level> RunnableLevels() {
  std::vector<Level> levels;
  for (const Level level : CompiledLevels()) {
    if (LevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

// Sizes that exercise empty input, every tail 0..kLanes+1 around one
// vector block, the 16-wide byte-kernel block, and a couple of odd large
// lengths that mix many blocks with a tail.
std::vector<size_t> InterestingSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 2 * kLanes + 2; ++n) sizes.push_back(n);
  for (const size_t n : {15, 16, 17, 31, 32, 33, 63, 64, 65, 200, 1021}) {
    sizes.push_back(static_cast<size_t>(n));
  }
  return sizes;
}

TEST(KernelDifferentialTest, AccumulateNonzeroBytesMatchesScalar) {
  std::mt19937_64 rng(42);
  for (const size_t n : InterestingSizes()) {
    std::vector<uint8_t> bits(n);
    for (auto& b : bits) {
      // Mix zeros with saturated 0xFF and small nonzero values — the
      // AVX2 min_epu8 trick must treat them all as exactly 1.
      const uint64_t r = rng();
      b = r % 3 == 0 ? 0 : (r % 5 == 0 ? 0xFF : static_cast<uint8_t>(r));
    }
    // Huge preloaded accumulators: the kernel adds, never overwrites.
    std::vector<uint64_t> expected(n, 0xFFFFFFFFFFFF0000ULL);
    AccumulateNonzeroBytes(Level::kScalar, bits.data(), n, expected.data());
    for (const Level level : RunnableLevels()) {
      std::vector<uint64_t> acc(n, 0xFFFFFFFFFFFF0000ULL);
      AccumulateNonzeroBytes(level, bits.data(), n, acc.data());
      EXPECT_EQ(acc, expected) << "level=" << LevelName(level) << " n=" << n;
    }
  }
}

TEST(KernelDifferentialTest, AddU64MatchesScalar) {
  std::mt19937_64 rng(43);
  for (const size_t n : InterestingSizes()) {
    std::vector<uint64_t> from(n);
    for (auto& v : from) v = rng();
    std::vector<uint64_t> expected(n, 1);
    AddU64(Level::kScalar, expected.data(), from.data(), n);
    for (const Level level : RunnableLevels()) {
      std::vector<uint64_t> into(n, 1);
      AddU64(level, into.data(), from.data(), n);
      EXPECT_EQ(into, expected) << "level=" << LevelName(level) << " n=" << n;
    }
  }
}

TEST(KernelDifferentialTest, OlhSupportRangeMatchesScalar) {
  std::mt19937_64 rng(45);
  for (const size_t n : InterestingSizes()) {
    for (const uint32_t g : {2u, 3u, 4u, 16u, 17u, 1023u, 1000003u}) {
      const uint64_t seed = rng();
      const uint32_t target = static_cast<uint32_t>(rng() % g);
      const uint64_t first_value = rng() % 100000;
      std::vector<uint64_t> expected(n, 100);
      OlhSupportRange(Level::kScalar, seed, g, target, first_value, n,
                      expected.data());
      for (const Level level : RunnableLevels()) {
        std::vector<uint64_t> acc(n, 100);
        OlhSupportRange(level, seed, g, target, first_value, n, acc.data());
        EXPECT_EQ(acc, expected)
            << "level=" << LevelName(level) << " n=" << n << " g=" << g;
      }
    }
  }
}

TEST(KernelDifferentialTest, OlhSupportRangeMatchesDirectHash) {
  // Ground truth straight from the public hash, independent of any
  // kernel implementation.
  const uint64_t seed = 0xDEADBEEFCAFEF00DULL;
  const uint32_t g = 7;
  const size_t n = 101;
  for (const Level level : RunnableLevels()) {
    std::vector<uint64_t> acc(n, 0);
    OlhSupportRange(level, seed, g, /*target=*/3, /*first_value=*/50, n,
                    acc.data());
    for (size_t i = 0; i < n; ++i) {
      const uint64_t expect = OlhHash(50 + i, seed, g) == 3 ? 1 : 0;
      EXPECT_EQ(acc[i], expect)
          << "level=" << LevelName(level) << " i=" << i;
    }
  }
}

TEST(KernelDifferentialTest, OlhPoolSupportMatchesScalar) {
  std::mt19937_64 rng(46);
  for (const size_t num_seeds : InterestingSizes()) {
    const uint32_t g = 2 + static_cast<uint32_t>(rng() % 30);
    std::vector<uint64_t> seeds(num_seeds);
    for (auto& s : seeds) s = rng();
    std::vector<uint32_t> counts(num_seeds * g);
    for (auto& c : counts) c = static_cast<uint32_t>(rng());
    const uint64_t value = rng() % 100000;
    const uint64_t expected = OlhPoolSupport(
        Level::kScalar, value, seeds.data(), num_seeds, g, counts.data());
    for (const Level level : RunnableLevels()) {
      EXPECT_EQ(OlhPoolSupport(level, value, seeds.data(), num_seeds, g,
                               counts.data()),
                expected)
          << "level=" << LevelName(level) << " num_seeds=" << num_seeds;
    }
  }
}

// Adversarial doubles: denormals, near-overflow magnitudes, signed
// zeros, values spanning 300 orders of magnitude — any deviation from
// the canonical accumulation order shows up as a bit difference here.
std::vector<double> AdversarialDoubles(size_t n, uint64_t seed) {
  static const double specials[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      1e308,
      -1e308,
      1e-300,
      5e-324,
      1.0 + std::numeric_limits<double>::epsilon(),
      -1.0,
      3.141592653589793,
      6.02214076e23,
  };
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ud(-1e6, 1e6);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = rng() % 4 == 0
                 ? specials[rng() % (sizeof(specials) / sizeof(double))]
                 : ud(rng);
  }
  return out;
}

// The adversarial inputs intentionally overflow to inf and cancel to NaN;
// "bit-identical" therefore has to mean the literal bit pattern (NaN ==
// NaN is false, but two kernels producing the same NaN still agree).
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(KernelDifferentialTest, AddF64BitIdentical) {
  for (const size_t n : InterestingSizes()) {
    const std::vector<double> a = AdversarialDoubles(n, 47);
    const std::vector<double> b = AdversarialDoubles(n, 48);
    std::vector<double> expected(n);
    AddF64(Level::kScalar, a.data(), b.data(), expected.data(), n);
    for (const Level level : RunnableLevels()) {
      std::vector<double> dst(n);
      AddF64(level, a.data(), b.data(), dst.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(dst[i]), Bits(expected[i]))
            << "level=" << LevelName(level) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelDifferentialTest, DotBitIdentical) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    for (const size_t n : InterestingSizes()) {
      const std::vector<double> a = AdversarialDoubles(n, 100 + seed);
      const std::vector<double> b = AdversarialDoubles(n, 200 + seed);
      const double expected = Dot(Level::kScalar, a.data(), b.data(), n);
      for (const Level level : RunnableLevels()) {
        const double got = Dot(level, a.data(), b.data(), n);
        EXPECT_EQ(Bits(got), Bits(expected))
            << "level=" << LevelName(level) << " n=" << n
            << " seed=" << seed;
      }
    }
  }
}

TEST(FastDivTest, ExactForRandomDividends) {
  std::mt19937_64 rng(50);
  for (int trial = 0; trial < 2000; ++trial) {
    // Mix small divisors (the realistic OLH g values), powers of two,
    // and arbitrary 64-bit divisors.
    uint64_t d;
    switch (trial % 3) {
      case 0:
        d = 1 + rng() % 1024;
        break;
      case 1:
        d = uint64_t{1} << (rng() % 64);
        break;
      default:
        d = rng() | 1;
    }
    const FastDivU64 fd = MakeFastDivU64(d);
    for (int i = 0; i < 100; ++i) {
      const uint64_t n = rng();
      ASSERT_EQ(FastDivQuotient(fd, n), n / d) << "d=" << d << " n=" << n;
      ASSERT_EQ(FastDivRemainder(fd, n), n % d) << "d=" << d << " n=" << n;
    }
    // Boundary dividends where magic-multiply constructions break first.
    for (const uint64_t n :
         {uint64_t{0}, uint64_t{1}, d - 1, d, d + 1, 2 * d - 1, 2 * d,
          ~uint64_t{0}, ~uint64_t{0} - 1, uint64_t{1} << 63}) {
      ASSERT_EQ(FastDivQuotient(fd, n), n / d) << "d=" << d << " n=" << n;
      ASSERT_EQ(FastDivRemainder(fd, n), n % d) << "d=" << d << " n=" << n;
    }
  }
}

TEST(FastDivTest, ExhaustiveSmallDivisors) {
  // Every divisor up to 300 against a dense dividend sweep: catches
  // off-by-one fixup errors that random sampling can miss.
  for (uint64_t d = 1; d <= 300; ++d) {
    const FastDivU64 fd = MakeFastDivU64(d);
    for (uint64_t n = 0; n < 2000; ++n) {
      ASSERT_EQ(FastDivQuotient(fd, n), n / d) << "d=" << d << " n=" << n;
    }
    for (uint64_t n = ~uint64_t{0}; n > ~uint64_t{0} - 2000; --n) {
      ASSERT_EQ(FastDivQuotient(fd, n), n / d) << "d=" << d << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace felip::simd
