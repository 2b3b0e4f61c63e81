// Protocol-tagged perturbed reports.
//
// ReportData is the one value type every layer above fo/ moves perturbed
// reports around in: the wire codec frames it, the simulator produces it,
// sinks and the replay engine feed it back into pipelines. Its payload is
// exactly the report type of one protocol's client, and the protocol is
// derived from which alternative the payload holds, so a tag can never
// disagree with its payload:
//   GRR  -> uint64_t              (reported value)
//   OLH  -> OlhReport             (seed, seed index, hashed report)
//   OUE  -> std::vector<uint8_t>  (one byte per domain value)
//   PGR  -> uint32_t              (projective point index)
//   FLDP -> FldpReport            (subset index, one byte per covered bucket)
//
// ReportClient is the device-side counterpart: one Perturb() call turns a
// raw value into a ReportData using the caller's Rng, with exactly the
// same rng trajectory as the underlying protocol client. Instances are
// immutable after construction and safe to share across users/threads.

#ifndef FELIP_FO_REPORT_H_
#define FELIP_FO_REPORT_H_

#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "felip/common/rng.h"
#include "felip/fo/fldp.h"
#include "felip/fo/olh.h"
#include "felip/fo/protocol.h"

namespace felip::fo {

// One alternative per Protocol enumerator, in enumerator order: the
// payload's index() is its protocol.
using ReportPayload = std::variant<uint64_t, OlhReport, std::vector<uint8_t>,
                                   uint32_t, FldpReport>;

// The payload type of `P`'s reports.
template <Protocol P>
using ReportOf = std::variant_alternative_t<static_cast<size_t>(P),
                                            ReportPayload>;

static_assert(std::variant_size_v<ReportPayload> == kNumProtocols,
              "every Protocol needs exactly one report type");
static_assert(std::is_same_v<ReportOf<Protocol::kGrr>, uint64_t>);
static_assert(std::is_same_v<ReportOf<Protocol::kOlh>, OlhReport>);
static_assert(std::is_same_v<ReportOf<Protocol::kOue>, std::vector<uint8_t>>);
static_assert(std::is_same_v<ReportOf<Protocol::kPgr>, uint32_t>);
static_assert(std::is_same_v<ReportOf<Protocol::kFldp>, FldpReport>);

struct ReportData {
  ReportPayload payload;

  Protocol protocol() const { return static_cast<Protocol>(payload.index()); }

  friend bool operator==(const ReportData&, const ReportData&) = default;
};

// Device-side perturbation behind one interface, so collectors need no
// per-protocol branches. Create via MakeReportClient (fo/registry.h).
class ReportClient {
 public:
  virtual ~ReportClient() = default;

  // Perturbs `value` in [0, domain) into a protocol-tagged report.
  virtual ReportData Perturb(uint64_t value, Rng& rng) const = 0;

  virtual Protocol protocol() const = 0;
  virtual uint64_t domain() const = 0;
};

}  // namespace felip::fo

#endif  // FELIP_FO_REPORT_H_
