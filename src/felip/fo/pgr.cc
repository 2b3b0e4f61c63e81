#include "felip/fo/pgr.h"

#include <cmath>
#include <cstring>
#include <numeric>

#include "felip/common/check.h"
#include "felip/common/parallel.h"
#include "felip/fo/protocol.h"

namespace felip::fo {

namespace {

constexpr uint32_t kMaxDimension = 32;  // t never gets near this (q >= 3)

// Cap on the prime field order: bounds e^eps before the float->uint32
// conversion in Make (undefined once the double exceeds uint32 range) and
// keeps the O(q^2) inverse-table construction affordable. epsilon beyond
// ln(kMaxFieldOrder) ~ 11.1 buys no meaningful local privacy anyway.
constexpr uint32_t kMaxFieldOrder = 1u << 16;

// Counter budget of the fast-decode DP: table and next are q^(t+1)
// uint64 entries each.
constexpr uint64_t kFastTableGate = 1ull << 28;

bool IsPrime(uint32_t n) {
  if (n < 2) return false;
  for (uint32_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

uint64_t PowQ(uint64_t q, uint32_t exp) {
  uint64_t r = 1;
  for (uint32_t i = 0; i < exp; ++i) r *= q;
  return r;
}

// Multiplicative inverses mod the prime q, by exhaustion (q is tiny).
std::vector<uint32_t> InverseTable(uint32_t q) {
  std::vector<uint32_t> inv(q, 0);
  for (uint32_t a = 1; a < q; ++a) {
    for (uint32_t b = 1; b < q; ++b) {
      if (a * b % q == 1) {
        inv[a] = b;
        break;
      }
    }
  }
  return inv;
}

// Writes the canonical representative of point `index` into x[0..t-1]:
// leading zeros, a 1 at the leading position, then the base-q digits of
// the within-block remainder. Point index blocks are ordered by leading
// position j, block j holding q^(t-1-j) points.
void PointVectorOf(uint64_t index, uint32_t q, uint32_t t, uint32_t* x) {
  uint32_t j = 0;
  uint64_t block = PowQ(q, t - 1);
  while (index >= block) {
    index -= block;
    block /= q;
    ++j;
  }
  for (uint32_t i = 0; i < t; ++i) x[i] = 0;
  x[j] = 1;
  for (uint32_t i = t; i-- > j + 1;) {
    x[i] = static_cast<uint32_t>(index % q);
    index /= q;
  }
}

// Inverse of PointVectorOf for an arbitrary nonzero vector: scale so the
// first nonzero coordinate becomes 1, then pack. `inv` is the inverse
// table mod q.
uint64_t CanonicalIndexOf(const uint32_t* w, uint32_t q, uint32_t t,
                          const std::vector<uint32_t>& inv) {
  uint32_t j = 0;
  while (j < t && w[j] == 0) ++j;
  FELIP_CHECK_MSG(j < t, "zero vector has no projective point");
  const uint32_t scale = inv[w[j]];
  uint64_t offset = 0;
  uint64_t block = PowQ(q, t - 1);
  for (uint32_t i = 0; i < j; ++i) {
    offset += block;
    block /= q;
  }
  uint64_t rem = 0;
  for (uint32_t i = j + 1; i < t; ++i) {
    rem = rem * q + (w[i] * scale) % q;
  }
  return offset + rem;
}

// Packs a full coordinate vector into its base-q integer (x_0 most
// significant); indexes the fast-decode DP tables.
uint64_t VectorIndexOf(const uint32_t* x, uint32_t q, uint32_t t) {
  uint64_t idx = 0;
  for (uint32_t i = 0; i < t; ++i) idx = idx * q + x[i];
  return idx;
}

// Derives the (q, t, num_points) shape for (epsilon, domain), or false
// when the construction is out of range: field order past kMaxFieldOrder,
// dimension past kMaxDimension, or a point index past uint32. Shared by
// Make (which aborts on failure) and PgrFeasible (which rejects).
bool DeriveShape(double epsilon, uint64_t domain, uint32_t* q_out,
                 uint32_t* t_out, uint64_t* num_points_out) {
  if (!(epsilon > 0.0) || domain < 1) return false;
  const double e = std::exp(epsilon);
  // Screen before the float->uint32 conversion: past uint32 range the
  // conversion itself is undefined behavior.
  if (!(e + 1.0 <= static_cast<double>(kMaxFieldOrder))) return false;
  uint32_t q = static_cast<uint32_t>(std::ceil(e + 1.0));
  if (q < 3) q = 3;
  while (!IsPrime(q)) ++q;
  // Smallest t >= 2 with (q^t - 1)/(q - 1) >= domain.
  uint32_t t = 2;
  uint64_t num_points = 1 + static_cast<uint64_t>(q);  // (q^2 - 1)/(q - 1)
  while (num_points < domain) {
    ++t;
    if (t >= kMaxDimension) return false;
    num_points = num_points * q + 1;
    if (num_points > 0xffffffffull) return false;
  }
  *q_out = q;
  *t_out = t;
  *num_points_out = num_points;
  return true;
}

// True when the fast-decode DP tables (q^(t+1) uint64 counters each) fit
// the allocation gate; multiplies with an overflow guard so q^(t+1) is
// never computed past uint64.
bool FastTableFits(uint32_t q, uint32_t t) {
  uint64_t size = 1;
  for (uint32_t i = 0; i <= t; ++i) {
    if (size > kFastTableGate / q) return false;
    size *= q;
  }
  return true;
}

}  // namespace

bool PgrFeasible(double epsilon, uint64_t domain) {
  uint32_t q = 0;
  uint32_t t = 0;
  uint64_t num_points = 0;
  return DeriveShape(epsilon, domain, &q, &t, &num_points);
}

PgrDecode ResolvePgrDecode(const PgrParams& params, uint64_t domain,
                           PgrDecode requested) {
  if (requested != PgrDecode::kAuto) return requested;
  // A table the fast decoder's gate would reject must never be chosen
  // automatically, however cheap its operation count looks — the regimes
  // disagree exactly on large domains, where q^(t+1) outgrows the gate
  // while t * q^(t+2) still undercuts |D| * N * t.
  if (!FastTableFits(params.q, params.t)) return PgrDecode::kDirect;
  // Direct costs ~|D| * N * t dot products; fast costs ~t * q^(t+2)
  // integer adds. Compare in doubles to dodge overflow.
  const double qd = static_cast<double>(params.q);
  const double fast_cost =
      static_cast<double>(params.t) *
      std::pow(qd, static_cast<double>(params.t + 2));
  const double direct_cost = static_cast<double>(domain) *
                             static_cast<double>(params.num_points) *
                             static_cast<double>(params.t);
  return fast_cost < direct_cost ? PgrDecode::kFast : PgrDecode::kDirect;
}

PgrParams PgrParams::Make(double epsilon, uint64_t domain) {
  FELIP_CHECK(epsilon > 0.0);
  FELIP_CHECK(domain >= 1);
  PgrParams params;
  FELIP_CHECK_MSG(
      DeriveShape(epsilon, domain, &params.q, &params.t, &params.num_points),
      "PGR parameters out of range; screen with PgrFeasible first");
  const uint32_t q = params.q;
  const uint32_t t = params.t;
  const double e = std::exp(epsilon);
  const double qd = static_cast<double>(q);
  const double off = std::pow(qd, static_cast<double>(t - 1));
  const double on = (off - 1.0) / (qd - 1.0);  // points on the hyperplane
  const double z = e * off + on;
  params.p_star = e * off / z;
  params.q_star =
      std::pow(qd, static_cast<double>(t - 2)) * (e * (qd - 1.0) + 1.0) / z;
  return params;
}

PgrClient::PgrClient(double epsilon, uint64_t domain)
    : domain_(domain), params_(PgrParams::Make(epsilon, domain)) {
  off_hyperplane_ = params_.p_star;  // = Pr[<x_v, z> != 0]
  inverse_ = InverseTable(params_.q);
}

uint32_t PgrClient::Perturb(uint64_t value, Rng& rng) const {
  FELIP_CHECK(value < domain_);
  const uint32_t q = params_.q;
  const uint32_t t = params_.t;
  uint32_t x[kMaxDimension];
  uint32_t w[kMaxDimension];
  PointVectorOf(value, q, t, x);
  uint32_t lead = 0;
  while (x[lead] == 0) ++lead;  // x[lead] == 1 by canonical form

  if (rng.Bernoulli(off_hyperplane_)) {
    // Uniform point off the hyperplane x^perp: uniform target dot value
    // c != 0, free coordinates uniform, the leading coordinate solves
    // <x, w> = c (x[lead] = 1, so no inverse needed).
    const uint32_t c = 1 + static_cast<uint32_t>(rng.UniformU64(q - 1));
    uint32_t rest = 0;
    for (uint32_t i = 0; i < t; ++i) {
      if (i == lead) continue;
      w[i] = static_cast<uint32_t>(rng.UniformU64(q));
      rest = (rest + x[i] * w[i]) % q;
    }
    w[lead] = (c + q - rest) % q;
    return static_cast<uint32_t>(CanonicalIndexOf(w, q, t, inverse_));
  }
  // Uniform nonzero point on the hyperplane: free coordinates uniform,
  // leading coordinate solves <x, w> = 0; resample the all-zero draw.
  for (;;) {
    uint32_t rest = 0;
    bool any = false;
    for (uint32_t i = 0; i < t; ++i) {
      if (i == lead) continue;
      w[i] = static_cast<uint32_t>(rng.UniformU64(q));
      any |= w[i] != 0;
      rest = (rest + x[i] * w[i]) % q;
    }
    if (!any) continue;
    w[lead] = (q - rest) % q;
    return static_cast<uint32_t>(CanonicalIndexOf(w, q, t, inverse_));
  }
}

PgrServer::PgrServer(double epsilon, uint64_t domain, PgrOptions options)
    : domain_(domain),
      options_(options),
      params_(PgrParams::Make(epsilon, domain)) {
  counts_.assign(params_.num_points, 0);
}

void PgrServer::Add(uint32_t report) {
  FELIP_CHECK(report < params_.num_points);
  ++counts_[report];
}

uint64_t PgrServer::num_reports() const {
  return std::accumulate(counts_.begin(), counts_.end(), uint64_t{0});
}

void PgrServer::RestoreState(std::vector<uint64_t> counts,
                             uint64_t num_reports) {
  FELIP_CHECK_MSG(counts.size() == counts_.size(),
                  "restored PGR histogram does not match the point count");
  counts_ = std::move(counts);
  FELIP_CHECK_MSG(this->num_reports() == num_reports,
                  "restored PGR counts do not sum to num_reports");
}

std::vector<uint64_t> PgrServer::OrthogonalCountsDirect() const {
  const uint32_t q = params_.q;
  const uint32_t t = params_.t;
  const uint64_t n_points = params_.num_points;
  // Materialize every point's coordinates once: N * t small ints.
  std::vector<uint32_t> point_coords(n_points * t);
  for (uint64_t z = 0; z < n_points; ++z) {
    PointVectorOf(z, q, t, &point_coords[z * t]);
  }
  std::vector<uint64_t> orthogonal(domain_, 0);
  ParallelFor(domain_, [&](size_t v) {
    uint32_t x[kMaxDimension];
    PointVectorOf(v, q, t, x);
    uint64_t on = 0;
    for (uint64_t z = 0; z < n_points; ++z) {
      const uint64_t c = counts_[z];
      if (c == 0) continue;
      const uint32_t* zc = &point_coords[z * t];
      uint32_t dot = 0;
      for (uint32_t i = 0; i < t; ++i) dot += x[i] * zc[i];
      if (dot % q == 0) on += c;
    }
    orthogonal[v] = on;
  });
  return orthogonal;
}

std::vector<uint64_t> PgrServer::OrthogonalCountsFast() const {
  // The paper's fast-aggregation dynamic program: compute, for every
  // x in F_q^t, the report mass at each partial dot value c, replacing one
  // z coordinate by one x coordinate per step. After t steps
  // table[x][c] = sum_z H[z] * 1[<x, z> = c]; the orthogonal count of a
  // value is its point vector's c = 0 entry. All arithmetic is integer,
  // so the result is bit-identical to the direct path.
  const uint32_t q = params_.q;
  const uint32_t t = params_.t;
  FELIP_CHECK_MSG(FastTableFits(q, t),
                  "PGR fast decode table too large; use direct decode");
  const uint64_t space = PowQ(q, t);
  std::vector<uint64_t> table(space * q, 0);
  std::vector<uint64_t> next(space * q, 0);
  // Seed with the histogram lifted to canonical vector indices, all mass
  // at partial dot 0.
  {
    uint32_t x[kMaxDimension];
    for (uint64_t z = 0; z < params_.num_points; ++z) {
      if (counts_[z] == 0) continue;
      PointVectorOf(z, q, t, x);
      table[VectorIndexOf(x, q, t) * q + 0] = counts_[z];
    }
  }
  std::vector<uint32_t> mul(q * q);
  for (uint32_t a = 0; a < q; ++a) {
    for (uint32_t b = 0; b < q; ++b) mul[a * q + b] = a * b % q;
  }
  // Step i rewrites digit i (place value q^(t-1-i)) from z_i to x_i.
  for (uint32_t i = 0; i < t; ++i) {
    const uint64_t place = PowQ(q, t - 1 - i);
    const uint64_t outer_count = PowQ(q, i);
    std::memset(next.data(), 0, next.size() * sizeof(uint64_t));
    for (uint64_t outer = 0; outer < outer_count; ++outer) {
      const uint64_t outer_base = outer * place * q;
      for (uint64_t inner = 0; inner < place; ++inner) {
        for (uint32_t xi = 0; xi < q; ++xi) {
          uint64_t* dst = &next[(outer_base + xi * place + inner) * q];
          for (uint32_t zi = 0; zi < q; ++zi) {
            const uint64_t* src =
                &table[(outer_base + zi * place + inner) * q];
            const uint32_t shift = mul[xi * q + zi];
            for (uint32_t c = 0; c < q; ++c) {
              const uint32_t cc = c + shift < q ? c + shift : c + shift - q;
              dst[cc] += src[c];
            }
          }
        }
      }
    }
    table.swap(next);
  }
  std::vector<uint64_t> orthogonal(domain_, 0);
  uint32_t x[kMaxDimension];
  for (uint64_t v = 0; v < domain_; ++v) {
    PointVectorOf(v, q, t, x);
    orthogonal[v] = table[VectorIndexOf(x, q, t) * q + 0];
  }
  return orthogonal;
}

double PgrServer::Debias(uint64_t orthogonal, uint64_t num_reports) const {
  const double n = static_cast<double>(num_reports);
  const double support = n - static_cast<double>(orthogonal);
  return (support / n - params_.q_star) / (params_.p_star - params_.q_star);
}

std::vector<double> PgrServer::EstimateFrequencies() const {
  const uint64_t num_reports = this->num_reports();
  FELIP_CHECK_MSG(num_reports > 0, "no PGR reports collected");
  const PgrDecode decode =
      ResolvePgrDecode(params_, domain_, options_.decode);
  const std::vector<uint64_t> orthogonal = decode == PgrDecode::kFast
                                               ? OrthogonalCountsFast()
                                               : OrthogonalCountsDirect();
  std::vector<double> freq(domain_);
  for (uint64_t v = 0; v < domain_; ++v) {
    freq[v] = Debias(orthogonal[v], num_reports);
  }
  return freq;
}

double PgrServer::EstimateValue(uint64_t value) const {
  FELIP_CHECK(value < domain_);
  const uint64_t num_reports = this->num_reports();
  FELIP_CHECK_MSG(num_reports > 0, "no PGR reports collected");
  const uint32_t q = params_.q;
  const uint32_t t = params_.t;
  uint32_t x[kMaxDimension];
  uint32_t z[kMaxDimension];
  PointVectorOf(value, q, t, x);
  uint64_t on = 0;
  for (uint64_t p = 0; p < params_.num_points; ++p) {
    if (counts_[p] == 0) continue;
    PointVectorOf(p, q, t, z);
    uint32_t dot = 0;
    for (uint32_t i = 0; i < t; ++i) dot += x[i] * z[i];
    if (dot % q == 0) on += counts_[p];
  }
  return Debias(on, num_reports);
}

}  // namespace felip::fo
