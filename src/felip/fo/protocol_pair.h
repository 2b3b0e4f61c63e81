// One oracle template and one report-client template for every protocol.
//
// Internal to fo/: the registry (registry.cc) instantiates these for its
// make_oracle / make_client rows; every other layer goes through the
// registry. A protocol is its client/server pair plus a ProtocolPair<P>
// specialization naming what really differs between protocols:
//   * Client / Server and how they are built from ProtocolOptions,
//   * CheckReport — the untrusted-report checks IngestReport(s) run before
//     Server::Add (which FELIP_CHECKs instead of returning a Status),
//   * Export / Restore — which OracleState fields carry the accumulator,
//     and the checks that make restoring untrusted state safe.
// Everything else (buffering, flushing, tag checks, estimation) is shared
// by PairOracle and PairReportClient.

#ifndef FELIP_FO_PROTOCOL_PAIR_H_
#define FELIP_FO_PROTOCOL_PAIR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "felip/common/rng.h"
#include "felip/common/status.h"
#include "felip/fo/fldp.h"
#include "felip/fo/frequency_oracle.h"
#include "felip/fo/grr.h"
#include "felip/fo/olh.h"
#include "felip/fo/oue.h"
#include "felip/fo/pgr.h"
#include "felip/fo/protocol.h"
#include "felip/fo/registry.h"
#include "felip/fo/report.h"

namespace felip::fo {

template <Protocol P>
struct ProtocolPair;

template <>
struct ProtocolPair<Protocol::kGrr> {
  using Client = GrrClient;
  using Server = GrrServer;
  static Client MakeClient(double epsilon, uint64_t domain,
                           const ProtocolOptions&) {
    return Client(epsilon, domain);
  }
  static Server MakeServer(double epsilon, uint64_t domain,
                           const ProtocolOptions&) {
    return Server(epsilon, domain);
  }
  static Status CheckReport(const Client& client, const Server&,
                            uint64_t report) {
    if (report >= client.domain()) {
      return Status::InvalidArgument("GRR report outside the domain");
    }
    return Status::Ok();
  }
  static void Export(const Server& server, OracleState* state) {
    state->counts = server.counts();
  }
  static Status Restore(const Client& client, Server* server,
                        OracleState state) {
    if (state.counts.size() != client.domain()) {
      return Status::InvalidArgument("GRR state size does not match domain");
    }
    uint64_t total = 0;
    for (const uint64_t c : state.counts) total += c;
    if (total != state.num_reports) {
      return Status::InvalidArgument("GRR counts do not sum to num_reports");
    }
    server->RestoreState(std::move(state.counts), state.num_reports);
    return Status::Ok();
  }
};

template <>
struct ProtocolPair<Protocol::kOlh> {
  using Client = OlhClient;
  using Server = OlhServer;
  static Client MakeClient(double epsilon, uint64_t domain,
                           const ProtocolOptions& options) {
    return Client(epsilon, domain, options.olh);
  }
  static Server MakeServer(double epsilon, uint64_t domain,
                           const ProtocolOptions& options) {
    return Server(epsilon, domain, options.olh);
  }
  static Status CheckReport(const Client& client, const Server&,
                            const OlhReport& report) {
    if (report.hashed_report >= client.g()) {
      return Status::InvalidArgument("OLH hashed report outside [0, g)");
    }
    const uint32_t pool = client.options().seed_pool_size;
    if (pool > 0) {
      if (report.seed_index >= pool) {
        return Status::InvalidArgument("OLH seed index outside the pool");
      }
    } else if (report.seed_index != OlhReport::kNoPool) {
      return Status::InvalidArgument("OLH pool index on a per-user oracle");
    }
    return Status::Ok();
  }
  static void Export(const Server& server, OracleState* state) {
    state->pool_counts = server.pool_counts();
    state->reports = server.reports();
  }
  static Status Restore(const Client& client, Server* server,
                        OracleState state) {
    const uint32_t pool = client.options().seed_pool_size;
    if (pool > 0) {
      if (!state.reports.empty()) {
        return Status::InvalidArgument("raw reports in pooled OLH state");
      }
      const size_t bins = static_cast<size_t>(pool) * client.g();
      if (state.pool_counts.size() != bins) {
        return Status::InvalidArgument("OLH pool histogram is not K * g");
      }
      uint64_t total = 0;
      for (const uint32_t c : state.pool_counts) total += c;
      if (total != state.num_reports) {
        return Status::InvalidArgument(
            "OLH pool histogram does not sum to num_reports");
      }
      server->RestorePoolState(std::move(state.pool_counts),
                               state.num_reports);
      return Status::Ok();
    }
    if (!state.pool_counts.empty()) {
      return Status::InvalidArgument("pool histogram in per-user OLH state");
    }
    if (state.reports.size() != state.num_reports) {
      return Status::InvalidArgument(
          "OLH report list does not match num_reports");
    }
    for (const OlhReport& r : state.reports) {
      if (r.hashed_report >= client.g() ||
          r.seed_index != OlhReport::kNoPool) {
        return Status::InvalidArgument("invalid report in OLH state");
      }
    }
    server->RestoreReports(std::move(state.reports));
    return Status::Ok();
  }
};

template <>
struct ProtocolPair<Protocol::kOue> {
  using Client = OueClient;
  using Server = OueServer;
  static Client MakeClient(double epsilon, uint64_t domain,
                           const ProtocolOptions&) {
    return Client(epsilon, domain);
  }
  static Server MakeServer(double epsilon, uint64_t domain,
                           const ProtocolOptions&) {
    return Server(epsilon, domain);
  }
  static Status CheckReport(const Client& client, const Server&,
                            const std::vector<uint8_t>& bits) {
    if (bits.size() != client.domain()) {
      return Status::InvalidArgument("OUE bit vector length != domain");
    }
    for (const uint8_t bit : bits) {
      if (bit > 1) {
        return Status::InvalidArgument("OUE bit vector has a non-bit entry");
      }
    }
    return Status::Ok();
  }
  static void Export(const Server& server, OracleState* state) {
    state->counts = server.counts();
  }
  static Status Restore(const Client& client, Server* server,
                        OracleState state) {
    if (state.counts.size() != client.domain()) {
      return Status::InvalidArgument("OUE state size does not match domain");
    }
    // Each report contributes at most one to every bit's count, so no bit
    // count can exceed the report total.
    for (const uint64_t c : state.counts) {
      if (c > state.num_reports) {
        return Status::InvalidArgument("OUE bit count exceeds num_reports");
      }
    }
    server->RestoreState(std::move(state.counts), state.num_reports);
    return Status::Ok();
  }
};

template <>
struct ProtocolPair<Protocol::kPgr> {
  using Client = PgrClient;
  using Server = PgrServer;
  static Client MakeClient(double epsilon, uint64_t domain,
                           const ProtocolOptions&) {
    return Client(epsilon, domain);
  }
  static Server MakeServer(double epsilon, uint64_t domain,
                           const ProtocolOptions& options) {
    return Server(epsilon, domain, options.pgr);
  }
  static Status CheckReport(const Client&, const Server& server,
                            uint32_t point) {
    if (point >= server.params().num_points) {
      return Status::InvalidArgument("PGR point outside the point space");
    }
    return Status::Ok();
  }
  static void Export(const Server& server, OracleState* state) {
    state->counts = server.counts();
  }
  static Status Restore(const Client&, Server* server, OracleState state) {
    if (state.counts.size() != server->params().num_points) {
      return Status::InvalidArgument(
          "PGR histogram does not match the point space");
    }
    uint64_t total = 0;
    for (const uint64_t c : state.counts) total += c;
    if (total != state.num_reports) {
      return Status::InvalidArgument("PGR counts do not sum to num_reports");
    }
    server->RestoreState(std::move(state.counts), state.num_reports);
    return Status::Ok();
  }
};

template <>
struct ProtocolPair<Protocol::kFldp> {
  using Client = FldpClient;
  using Server = FldpServer;
  static Client MakeClient(double epsilon, uint64_t domain,
                           const ProtocolOptions& options) {
    return Client(epsilon, domain, options.fldp);
  }
  static Server MakeServer(double epsilon, uint64_t domain,
                           const ProtocolOptions& options) {
    return Server(epsilon, domain, options.fldp);
  }
  static Status CheckReport(const Client& client, const Server&,
                            const FldpReport& report) {
    if (report.subset_index >= client.options().subset_pool_size) {
      return Status::InvalidArgument("FLDP subset index outside the pool");
    }
    if (report.bits.size() != client.subset_size()) {
      return Status::InvalidArgument("FLDP bit vector length != subset size");
    }
    for (const uint8_t bit : report.bits) {
      if (bit > 1) {
        return Status::InvalidArgument("FLDP bit vector has a non-bit entry");
      }
    }
    return Status::Ok();
  }
  static void Export(const Server& server, OracleState* state) {
    state->counts = server.counts();
    state->pool_counts = server.coverage_counts();
  }
  static Status Restore(const Client& client, Server* server,
                        OracleState state) {
    const uint32_t s = client.subset_size();
    const uint32_t pools = client.options().subset_pool_size;
    if (state.pool_counts.size() != pools) {
      return Status::InvalidArgument(
          "FLDP coverage does not match the pool size");
    }
    if (state.counts.size() != static_cast<size_t>(pools) * s) {
      return Status::InvalidArgument("FLDP histogram is not K * s");
    }
    uint64_t total = 0;
    for (const uint32_t c : state.pool_counts) total += c;
    if (total != state.num_reports) {
      return Status::InvalidArgument(
          "FLDP coverage does not sum to num_reports");
    }
    // A slot's set-bit count can exceed neither the users who drew that
    // pool index (each contributes at most one bit per slot).
    for (uint32_t k = 0; k < pools; ++k) {
      const size_t base = static_cast<size_t>(k) * s;
      for (uint32_t j = 0; j < s; ++j) {
        if (state.counts[base + j] > state.pool_counts[k]) {
          return Status::InvalidArgument(
              "FLDP set-bit count exceeds pool coverage");
        }
      }
    }
    server->RestoreState(std::move(state.counts),
                         std::move(state.pool_counts), state.num_reports);
    return Status::Ok();
  }
};

template <typename Client>
using PerturbResult = decltype(std::declval<const Client&>().Perturb(
    uint64_t{0}, std::declval<Rng&>()));

// The FrequencyOracle of protocol `P`: a client for buffered simulation,
// a server for aggregation, and a buffer of reports awaiting FlushReports.
template <Protocol P>
class PairOracle final : public FrequencyOracle {
  using Pair = ProtocolPair<P>;
  using Report = ReportOf<P>;
  static_assert(std::is_same_v<PerturbResult<typename Pair::Client>, Report>,
                "a protocol's client must produce its ReportPayload type");

 public:
  PairOracle(double epsilon, uint64_t domain, const ProtocolOptions& options)
      : client_(Pair::MakeClient(epsilon, domain, options)),
        server_(Pair::MakeServer(epsilon, domain, options)) {}

  void BufferUserValue(uint64_t value, Rng& rng) override {
    buffer_.push_back(client_.Perturb(value, rng));
  }
  void FlushReports(unsigned thread_count) override {
    server_.AggregateReports(buffer_, thread_count);
    buffer_.clear();
  }
  size_t buffered_reports() const override { return buffer_.size(); }

  Status IngestReport(const ReportData& report) override {
    const Report* payload = nullptr;
    FELIP_RETURN_IF_ERROR(Check(report, &payload));
    server_.Add(*payload);
    return Status::Ok();
  }
  size_t IngestReports(std::span<const ReportData* const> reports) override {
    size_t accepted = 0;
    for (const ReportData* report : reports) {
      const Report* payload = nullptr;
      if (!Check(*report, &payload).ok()) continue;
      server_.Add(*payload);
      ++accepted;
    }
    return accepted;
  }

  OracleState ExportState() const override {
    OracleState state;
    state.protocol = P;
    state.num_reports = server_.num_reports();
    Pair::Export(server_, &state);
    return state;
  }
  Status RestoreState(OracleState state) override {
    if (!buffer_.empty()) {
      return Status::FailedPrecondition(
          "unflushed reports; call FlushReports");
    }
    if (state.protocol != P) {
      return Status::InvalidArgument("oracle state protocol is not " +
                                     std::string(ProtocolName(P)));
    }
    return Pair::Restore(client_, &server_, std::move(state));
  }

  StatusOr<std::vector<double>> EstimateFrequencies(
      unsigned thread_count) const override {
    if (!buffer_.empty()) {
      return Status::FailedPrecondition(
          "unflushed reports; call FlushReports");
    }
    // Only protocols whose estimation parallelizes take a thread count.
    if constexpr (requires(const typename Pair::Server& server) {
                    server.EstimateFrequencies(thread_count);
                  }) {
      return server_.EstimateFrequencies(thread_count);
    } else {
      return server_.EstimateFrequencies();
    }
  }

  uint64_t domain() const override { return client_.domain(); }
  uint64_t num_reports() const override { return server_.num_reports(); }
  Protocol protocol() const override { return P; }

 private:
  // The one validation of both ingest entry points: the payload must be
  // this protocol's report and pass Pair::CheckReport. Sets `*payload` on
  // success.
  Status Check(const ReportData& report, const Report** payload) const {
    *payload = std::get_if<static_cast<size_t>(P)>(&report.payload);
    if (*payload == nullptr) {
      return Status::InvalidArgument(
          std::string(ProtocolName(report.protocol())) + " report sent to a " +
          std::string(ProtocolName(P)) + " oracle");
    }
    return Pair::CheckReport(client_, server_, **payload);
  }

  typename Pair::Client client_;
  typename Pair::Server server_;
  std::vector<Report> buffer_;
};

// The ReportClient of protocol `P`: the protocol client's report, wrapped
// in the matching ReportData alternative.
template <Protocol P>
class PairReportClient final : public ReportClient {
 public:
  PairReportClient(double epsilon, uint64_t domain,
                   const ProtocolOptions& options)
      : client_(ProtocolPair<P>::MakeClient(epsilon, domain, options)) {}

  ReportData Perturb(uint64_t value, Rng& rng) const override {
    return ReportData{ReportPayload(std::in_place_index<static_cast<size_t>(P)>,
                                    client_.Perturb(value, rng))};
  }
  Protocol protocol() const override { return P; }
  uint64_t domain() const override { return client_.domain(); }

 private:
  typename ProtocolPair<P>::Client client_;
};

}  // namespace felip::fo

#endif  // FELIP_FO_PROTOCOL_PAIR_H_
