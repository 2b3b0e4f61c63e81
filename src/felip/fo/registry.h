// Protocol registry — the one table every layer outside fo/ resolves
// frequency-oracle protocols through.
//
// Each Protocol enumerator has exactly one ProtocolTraits entry (a
// static_assert in registry.cc pins the count), bundling everything a
// caller needs without switching on the enum:
//   * factories for the oracle facade and the device-side report client,
//   * the closed-form error model the AFO optimizer scores with,
//   * the per-report communication cost for budget-aware selection.
// Adding a protocol = one enum entry + one ReportPayload alternative
// (fo/report.h) + one table row + a client/server pair and its
// ProtocolPair specialization (fo/protocol_pair.h). Snapshots, shard
// merges, tools and AFO pick it up through the registry with no
// out-of-layer edits; the wire codec needs one Put/Read overload only for
// a report type no other protocol uses. Protocol `switch` statements
// outside src/felip/fo are a build error by policy (a CI grep test
// enforces it).

#ifndef FELIP_FO_REGISTRY_H_
#define FELIP_FO_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "felip/common/status.h"
#include "felip/fo/fldp.h"
#include "felip/fo/olh.h"
#include "felip/fo/protocol.h"
#include "felip/fo/report.h"

namespace felip::fo {

class FrequencyOracle;

// Per-protocol options, carried as one value so call chains (planning ->
// wire config -> device -> oracle) stay protocol-agnostic. Each protocol
// reads only its own member.
struct ProtocolOptions {
  OlhOptions olh;
  FldpOptions fldp;

  friend bool operator==(const ProtocolOptions&,
                         const ProtocolOptions&) = default;
};

struct ProtocolTraits {
  Protocol protocol = Protocol::kGrr;
  // Canonical lower-case name, accepted (case-insensitively) by
  // ProtocolFromName and used for per-protocol metric suffixes.
  std::string_view name;

  // --- Factories ---
  std::unique_ptr<FrequencyOracle> (*make_oracle)(double epsilon,
                                                  uint64_t domain,
                                                  const ProtocolOptions&);
  std::unique_ptr<ReportClient> (*make_client)(double epsilon, uint64_t domain,
                                               const ProtocolOptions&);

  // --- Error model (grid/optimizer.cc) ---
  //
  // The optimizer's noise terms all take the form
  //   cells_in_query * base * U(total_cells),
  // base = m / (n (e^eps - 1)^2). `noise_unit` is U; `noise_unit_derivative`
  // is the bracket of d/dT [T * U(T)] the bisection solvers evaluate.
  // `domain_free_noise` marks U constant in T, which unlocks the cube-root
  // closed forms.
  bool domain_free_noise = false;
  double (*noise_unit)(double epsilon, double total_cells,
                       const ProtocolOptions&);
  double (*noise_unit_derivative)(double epsilon, double total_cells,
                                  const ProtocolOptions&);

  // Per-value estimation variance with `n` reports (the fo/protocol.h
  // closed forms, options-aware).
  double (*variance)(double epsilon, uint64_t domain, uint64_t n,
                     const ProtocolOptions&);

  // Wire-body bytes of one report for a grid with `domain` cells — the
  // communication cost AFO scores against OptimizeParams::
  // report_budget_bytes. An upper bound on the record bytes the grid-run
  // report frame (felip/wire) spends on one report, which writes each
  // field in the narrowest width its run's values need.
  uint64_t (*report_bytes)(double epsilon, uint64_t domain,
                           const ProtocolOptions&);
};

// The traits row for `protocol`; aborts on an out-of-range enumerator.
const ProtocolTraits& GetTraits(Protocol protocol);

// All registered protocols, in Protocol enumerator order.
std::span<const ProtocolTraits> AllProtocolTraits();

// True when `raw` is a registered Protocol byte — the validity check for
// protocol bytes read off the wire or out of snapshots.
bool KnownProtocolByte(uint8_t raw);

// Parses a protocol name ("grr", "OLH", ...) case-insensitively;
// kInvalidArgument for unknown names.
StatusOr<Protocol> ProtocolFromName(std::string_view name);

// Creates the device-side perturbation client for `protocol`.
std::unique_ptr<ReportClient> MakeReportClient(Protocol protocol,
                                               double epsilon, uint64_t domain,
                                               const ProtocolOptions& options);

// Creates an oracle for `protocol` with per-protocol options.
std::unique_ptr<FrequencyOracle> MakeFrequencyOracle(
    Protocol protocol, double epsilon, uint64_t domain,
    const ProtocolOptions& options = {});

}  // namespace felip::fo

#endif  // FELIP_FO_REGISTRY_H_
