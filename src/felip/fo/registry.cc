#include "felip/fo/registry.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "felip/common/check.h"
#include "felip/fo/frequency_oracle.h"
#include "felip/fo/protocol_pair.h"

namespace felip::fo {

namespace {

// --- Factory hooks ---

template <Protocol P>
std::unique_ptr<FrequencyOracle> OracleHook(double epsilon, uint64_t domain,
                                            const ProtocolOptions& options) {
  return std::make_unique<PairOracle<P>>(epsilon, domain, options);
}

template <Protocol P>
std::unique_ptr<ReportClient> ClientHook(double epsilon, uint64_t domain,
                                         const ProtocolOptions& options) {
  return std::make_unique<PairReportClient<P>>(epsilon, domain, options);
}

// --- Error-model hooks ---
//
// The optimizer multiplies these by cells_in_query * base with
// base = m / (n (e^eps - 1)^2); the bracketed expressions below are kept
// verbatim from the pre-registry optimizer so AFO's planning stays
// bit-identical for GRR/OLH/OUE.

double GrrNoiseUnit(double epsilon, double total_cells,
                    const ProtocolOptions&) {
  const double e = std::exp(epsilon);
  return e + total_cells - 2.0;
}
double GrrNoiseUnitDerivative(double epsilon, double total_cells,
                              const ProtocolOptions&) {
  const double e = std::exp(epsilon);
  return e + 2.0 * total_cells - 2.0;
}

double OlhNoiseUnit(double epsilon, double, const ProtocolOptions&) {
  const double e = std::exp(epsilon);
  return 4.0 * e;
}
double OlhNoiseUnitDerivative(double epsilon, double,
                              const ProtocolOptions&) {
  const double e = std::exp(epsilon);
  return 4.0 * e;
}

double PgrNoiseUnit(double epsilon, double total_cells,
                    const ProtocolOptions&) {
  // (epsilon, cell-count) points the PGR construction cannot represent
  // score as unusable so AFO selects another protocol instead of the
  // optimizer aborting inside PgrParams::Make. The uint32 screen also
  // keeps the float->uint64 conversion below in defined range.
  if (!(total_cells <= 4294967295.0)) {
    return std::numeric_limits<double>::infinity();
  }
  const uint64_t domain =
      std::max<uint64_t>(2, static_cast<uint64_t>(std::ceil(total_cells)));
  if (!PgrFeasible(epsilon, domain)) {
    return std::numeric_limits<double>::infinity();
  }
  const PgrParams params = PgrParams::Make(epsilon, domain);
  const double e = std::exp(epsilon);
  const double diff = params.p_star - params.q_star;
  return params.q_star * (1.0 - params.q_star) * (e - 1.0) * (e - 1.0) /
         (diff * diff);
}
double PgrNoiseUnitDerivative(double epsilon, double total_cells,
                              const ProtocolOptions& opts) {
  // Piecewise constant in the cell count (steps only when the projective
  // dimension t does), so the derivative bracket is the unit itself.
  return PgrNoiseUnit(epsilon, total_cells, opts);
}

double FldpNoiseUnit(double epsilon, double total_cells,
                     const ProtocolOptions& opts) {
  // FLDP bucket indices are uint32; cell domains past that are unusable
  // (the client/server constructors reject them), so score them out.
  if (!(total_cells <= 4294967295.0)) {
    return std::numeric_limits<double>::infinity();
  }
  const double e = std::exp(epsilon);
  const double bits = static_cast<double>(opts.fldp.report_bits);
  if (total_cells <= bits) return 4.0 * e;
  return (total_cells / bits) * (4.0 * e);
}
double FldpNoiseUnitDerivative(double epsilon, double total_cells,
                               const ProtocolOptions& opts) {
  // d/dT [T * U(T)] with U = max(1, T/s) * 4e: 2 U past the subset size,
  // the OUE bracket below it.
  const double e = std::exp(epsilon);
  const double bits = static_cast<double>(opts.fldp.report_bits);
  if (total_cells <= bits) return 4.0 * e;
  return 2.0 * (total_cells / bits) * (4.0 * e);
}

// --- Variance hooks ---

double GrrVarianceHook(double epsilon, uint64_t domain, uint64_t n,
                       const ProtocolOptions&) {
  return GrrVariance(epsilon, domain, n);
}
double OlhVarianceHook(double epsilon, uint64_t, uint64_t n,
                       const ProtocolOptions&) {
  return OlhVariance(epsilon, n);
}
double OueVarianceHook(double epsilon, uint64_t, uint64_t n,
                       const ProtocolOptions&) {
  return OueVariance(epsilon, n);
}
double PgrVarianceHook(double epsilon, uint64_t domain, uint64_t n,
                       const ProtocolOptions&) {
  return PgrVariance(epsilon, domain, n);
}
double FldpVarianceHook(double epsilon, uint64_t domain, uint64_t n,
                        const ProtocolOptions& opts) {
  return FldpVariance(epsilon, domain, opts.fldp.report_bits, n);
}

// --- Report-size hooks (wire body bytes; an upper bound on the record
// bytes felip/wire's grid-run frame spends per report) ---

uint64_t GrrReportBytes(double, uint64_t, const ProtocolOptions&) {
  return 8;  // one uint64 value
}
uint64_t OlhReportBytes(double, uint64_t, const ProtocolOptions&) {
  return 16;  // uint64 seed (or pool sentinel) + uint32 index + uint32 y
}
uint64_t OueReportBytes(double, uint64_t domain, const ProtocolOptions&) {
  return 4 + domain;  // uint32 length + one byte per domain value
}
uint64_t PgrReportBytes(double, uint64_t, const ProtocolOptions&) {
  return 4;  // one uint32 point index
}
uint64_t FldpReportBytes(double, uint64_t domain, const ProtocolOptions& opts) {
  // uint32 subset index + uint32 length + one byte per covered bucket.
  return 8 + FldpSubsetSize(opts.fldp, std::max<uint64_t>(domain, 1));
}

constexpr std::array<ProtocolTraits, kNumProtocols> kTraits = {{
    {Protocol::kGrr, "grr", &OracleHook<Protocol::kGrr>,
     &ClientHook<Protocol::kGrr>, /*domain_free_noise=*/false, &GrrNoiseUnit,
     &GrrNoiseUnitDerivative, &GrrVarianceHook, &GrrReportBytes},
    {Protocol::kOlh, "olh", &OracleHook<Protocol::kOlh>,
     &ClientHook<Protocol::kOlh>, /*domain_free_noise=*/true, &OlhNoiseUnit,
     &OlhNoiseUnitDerivative, &OlhVarianceHook, &OlhReportBytes},
    {Protocol::kOue, "oue", &OracleHook<Protocol::kOue>,
     &ClientHook<Protocol::kOue>, /*domain_free_noise=*/true, &OlhNoiseUnit,
     &OlhNoiseUnitDerivative, &OueVarianceHook, &OueReportBytes},
    {Protocol::kPgr, "pgr", &OracleHook<Protocol::kPgr>,
     &ClientHook<Protocol::kPgr>, /*domain_free_noise=*/false, &PgrNoiseUnit,
     &PgrNoiseUnitDerivative, &PgrVarianceHook, &PgrReportBytes},
    {Protocol::kFldp, "fldp", &OracleHook<Protocol::kFldp>,
     &ClientHook<Protocol::kFldp>, /*domain_free_noise=*/false,
     &FldpNoiseUnit, &FldpNoiseUnitDerivative, &FldpVarianceHook,
     &FldpReportBytes},
}};

// Every Protocol enumerator has exactly one row, at its own index. Adding
// an enumerator without a registry row fails to compile here.
static_assert(kTraits.size() == kNumProtocols,
              "every Protocol needs a registry entry");
static_assert(kTraits[0].protocol == Protocol::kGrr);
static_assert(kTraits[1].protocol == Protocol::kOlh);
static_assert(kTraits[2].protocol == Protocol::kOue);
static_assert(kTraits[3].protocol == Protocol::kPgr);
static_assert(kTraits[4].protocol == Protocol::kFldp);

bool NameMatches(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const char ca = a[i] >= 'A' && a[i] <= 'Z' ? a[i] - 'A' + 'a' : a[i];
    const char cb = b[i] >= 'A' && b[i] <= 'Z' ? b[i] - 'A' + 'a' : b[i];
    if (ca != cb) return false;
  }
  return true;
}

}  // namespace

const ProtocolTraits& GetTraits(Protocol protocol) {
  const auto index = static_cast<size_t>(protocol);
  FELIP_CHECK_MSG(index < kTraits.size(), "unknown protocol");
  return kTraits[index];
}

std::span<const ProtocolTraits> AllProtocolTraits() { return kTraits; }

bool KnownProtocolByte(uint8_t raw) { return raw < kNumProtocols; }

StatusOr<Protocol> ProtocolFromName(std::string_view name) {
  for (const ProtocolTraits& traits : kTraits) {
    if (NameMatches(name, traits.name)) return traits.protocol;
  }
  return Status::InvalidArgument("unknown protocol name");
}

std::unique_ptr<ReportClient> MakeReportClient(Protocol protocol,
                                               double epsilon, uint64_t domain,
                                               const ProtocolOptions& options) {
  return GetTraits(protocol).make_client(epsilon, domain, options);
}

std::unique_ptr<FrequencyOracle> MakeFrequencyOracle(
    Protocol protocol, double epsilon, uint64_t domain,
    const ProtocolOptions& options) {
  return GetTraits(protocol).make_oracle(epsilon, domain, options);
}

}  // namespace felip::fo
