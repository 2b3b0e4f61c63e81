// Networked query answering: loopback and TCP round trips must return
// answers BIT-IDENTICAL to the in-process batch engine; schema-invalid
// queries come back kInvalidArgument with the offending index (never fatal —
// network input is untrusted); a pipeline that has not finalized answers
// kFailedPrecondition; and a fault-injection soak (drops, truncations, resets) must
// still converge to the identical answers through the client's retry loop.

#include "felip/svc/query_service.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"
#include "felip/svc/fault_injection.h"
#include "felip/svc/loopback.h"
#include "felip/svc/tcp.h"
#include "felip/wire/wire.h"

namespace felip::svc {
namespace {

constexpr uint64_t kUsers = 3000;
constexpr uint32_t kAttributes = 4;
constexpr uint32_t kNumDomain = 30;
constexpr uint32_t kCatDomain = 6;
constexpr uint64_t kSeed = 7;

core::FelipConfig MakeConfig() {
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.seed = kSeed;
  return config;
}

struct Fixture {
  data::Dataset dataset;
  core::FelipPipeline pipeline;
  std::vector<query::Query> workload;
  std::vector<double> expected;  // in-process AnswerQueries over workload
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    data::Dataset dataset =
        data::MakeIpumsLike(kUsers, kAttributes, kNumDomain, kCatDomain, kSeed);
    core::FelipPipeline pipeline = core::RunFelip(dataset, MakeConfig());
    std::vector<query::Query> workload;
    Rng rng(kSeed + 1);
    for (uint32_t dimension = 1; dimension <= kAttributes; ++dimension) {
      const auto generated = query::GenerateQueries(
          dataset, 30, {.dimension = dimension, .selectivity = 0.4}, rng);
      workload.insert(workload.end(), generated.begin(), generated.end());
    }
    std::vector<double> expected =
        pipeline.AnswerQueries(std::span<const query::Query>(workload));
    return new Fixture{std::move(dataset), std::move(pipeline),
                       std::move(workload), std::move(expected)};
  }();
  return *fixture;
}

void ExpectBitIdenticalAnswers(const QueryOutcome& outcome,
                               const std::vector<double>& expected) {
  ASSERT_TRUE(outcome.ok()) << "attempts=" << outcome.attempts;
  EXPECT_EQ(outcome.status.code(), StatusCode::kOk);
  ASSERT_EQ(outcome.answers.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    // EXPECT_EQ on doubles: the networked path must not perturb a single
    // bit relative to the in-process engine.
    EXPECT_EQ(outcome.answers[i], expected[i]) << "query " << i;
  }
}

TEST(QueryServiceTest, LoopbackAnswersBitIdenticalToInProcess) {
  const Fixture& f = GetFixture();
  LoopbackTransport transport;
  QueryServer server(&transport, "queries", &f.pipeline);
  ASSERT_TRUE(server.Start());

  QueryClient client(&transport, server.endpoint());
  const QueryOutcome outcome = client.AnswerQueries(f.workload);
  ExpectBitIdenticalAnswers(outcome, f.expected);
  EXPECT_TRUE(server.WaitForBatches(1, 5000));
  EXPECT_EQ(server.batches_answered(), 1u);
  EXPECT_EQ(server.queries_answered(), f.workload.size());
  EXPECT_EQ(server.batches_invalid(), 0u);
  server.Stop();
}

TEST(QueryServiceTest, BatchResentAfterALostResponseCountsOnce) {
  // The client's retry of a batch whose response was dropped is answered
  // again, but WaitForBatches(n) must count distinct batches: a server
  // told to answer n batches may not stop before the client's n-th.
  const Fixture& f = GetFixture();
  LoopbackTransport transport;
  QueryServer server(&transport, "queries", &f.pipeline);
  ASSERT_TRUE(server.Start());
  FaultOptions faults;
  faults.drop_response_prob = 1.0;
  FaultInjectingTransport lossy(&transport, faults);
  QueryClientOptions once;
  once.max_attempts = 1;
  once.response_timeout_ms = 50;
  EXPECT_FALSE(
      QueryClient(&lossy, server.endpoint(), once).AnswerQueries(f.workload)
          .ok());
  QueryClient client(&transport, server.endpoint());
  ExpectBitIdenticalAnswers(client.AnswerQueries(f.workload), f.expected);
  EXPECT_EQ(server.batches_answered(), 1u);
  EXPECT_EQ(server.queries_answered(), f.workload.size());
  EXPECT_FALSE(server.WaitForBatches(2, 50));
  server.Stop();
}

TEST(QueryServiceTest, TcpAnswersBitIdenticalToInProcess) {
  const Fixture& f = GetFixture();
  TcpTransport transport;
  QueryServer server(&transport, "127.0.0.1:0", &f.pipeline);
  ASSERT_TRUE(server.Start());

  QueryClient client(&transport, server.endpoint());
  const QueryOutcome outcome = client.AnswerQueries(f.workload);
  ExpectBitIdenticalAnswers(outcome, f.expected);
  server.Stop();
}

TEST(QueryServiceTest, OutOfDomainQueryRejectedWithIndex) {
  const Fixture& f = GetFixture();
  LoopbackTransport transport;
  QueryServer server(&transport, "queries", &f.pipeline);
  ASSERT_TRUE(server.Start());
  QueryClient client(&transport, server.endpoint());

  // Structurally valid (the codec accepts it) but outside the schema: the
  // numerical domain is kNumDomain, so hi == kNumDomain is one past the
  // last value. The server must blame exactly this query, not die and not
  // answer.
  std::vector<query::Query> batch = {
      query::Query({{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 5}}),
      query::Query({{.attr = 1, .op = query::Op::kEquals, .lo = 1}}),
      query::Query({{.attr = 0,
                     .op = query::Op::kBetween,
                     .lo = 0,
                     .hi = kNumDomain}}),
  };
  const QueryOutcome outcome = client.AnswerQueries(batch);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(outcome.bad_query, 2u);
  EXPECT_EQ(outcome.attempts, 1);  // kInvalid is terminal, never retried
  EXPECT_EQ(server.batches_invalid(), 1u);
  EXPECT_EQ(server.batches_answered(), 0u);

  // An attribute the schema does not have is rejected the same way.
  const QueryOutcome beyond = client.AnswerQueries({query::Query(
      {{.attr = kAttributes, .op = query::Op::kEquals, .lo = 0}})});
  EXPECT_FALSE(beyond.ok());
  EXPECT_EQ(beyond.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(beyond.bad_query, 0u);
  server.Stop();
}

TEST(QueryServiceTest, OversizedBatchRejectedWholesale) {
  const Fixture& f = GetFixture();
  LoopbackTransport transport;
  QueryServerOptions options;
  options.max_batch_queries = 4;
  QueryServer server(&transport, "queries", &f.pipeline, options);
  ASSERT_TRUE(server.Start());
  QueryClient client(&transport, server.endpoint());

  const std::vector<query::Query> batch(
      5, query::Query(
             {{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 5}}));
  const QueryOutcome outcome = client.AnswerQueries(batch);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
  // No single query is to blame for an oversized frame.
  EXPECT_EQ(outcome.bad_query, wire::kBadQueryNone);
  server.Stop();
}

TEST(QueryServiceTest, EmptyBatchAnswersOkWithNoAnswers) {
  const Fixture& f = GetFixture();
  LoopbackTransport transport;
  QueryServer server(&transport, "queries", &f.pipeline);
  ASSERT_TRUE(server.Start());
  QueryClient client(&transport, server.endpoint());
  const QueryOutcome outcome = client.AnswerQueries({});
  EXPECT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.answers.empty());
  server.Stop();
}

TEST(QueryServiceTest, UnfinalizedPipelineAnswersNotReady) {
  const Fixture& f = GetFixture();
  // A freshly planned pipeline: schema known, nothing collected. The
  // server must refuse with the retryable status, not crash and not
  // answer garbage. (Finalizing under a live server is exercised by the
  // felip_server tool, which starts serving only after Finalize.)
  const core::FelipPipeline unfinalized(f.dataset.attributes(), kUsers,
                                        MakeConfig());
  LoopbackTransport transport;
  QueryServer server(&transport, "queries", &unfinalized);
  ASSERT_TRUE(server.Start());

  QueryClientOptions client_options;
  client_options.max_attempts = 3;
  QueryClient client(&transport, server.endpoint(), client_options);
  const QueryOutcome outcome = client.AnswerQueries(f.workload);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_GE(server.batches_not_ready(), 3u);
  server.Stop();

  // The identical workload against the finalized fixture succeeds.
  QueryServer ready(&transport, "ready", &f.pipeline);
  ASSERT_TRUE(ready.Start());
  QueryClient retry_client(&transport, ready.endpoint());
  ExpectBitIdenticalAnswers(retry_client.AnswerQueries(f.workload),
                            f.expected);
  ready.Stop();
}

TEST(QueryServiceTest, FaultSoakConvergesToIdenticalAnswers) {
  const Fixture& f = GetFixture();
  LoopbackTransport transport;
  QueryServer server(&transport, "queries", &f.pipeline);
  ASSERT_TRUE(server.Start());

  FaultOptions faults;
  faults.drop_prob = 0.12;
  faults.truncate_prob = 0.08;
  faults.reset_prob = 0.05;
  faults.drop_response_prob = 0.08;
  faults.seed = kSeed + 99;
  FaultInjectingTransport faulty(&transport, faults);

  QueryClientOptions client_options;
  client_options.max_attempts = 64;
  client_options.response_timeout_ms = 250;
  QueryClient faulty_client(&faulty, server.endpoint(), client_options);

  // Many small batches so the soak sees enough frames for every fault
  // kind to fire; answers must match the in-process engine bit for bit
  // despite resends (queries are idempotent reads).
  constexpr size_t kStride = 10;
  size_t answered = 0;
  for (size_t begin = 0; begin < f.workload.size(); begin += kStride) {
    const size_t end = std::min(begin + kStride, f.workload.size());
    const std::vector<query::Query> batch(f.workload.begin() + begin,
                                          f.workload.begin() + end);
    const QueryOutcome outcome = faulty_client.AnswerQueries(batch);
    ASSERT_TRUE(outcome.ok())
        << "batch at " << begin << " attempts=" << outcome.attempts;
    ASSERT_EQ(outcome.answers.size(), end - begin);
    for (size_t i = 0; i < outcome.answers.size(); ++i) {
      EXPECT_EQ(outcome.answers[i], f.expected[begin + i])
          << "query " << begin + i;
    }
    answered += outcome.answers.size();
  }
  EXPECT_EQ(answered, f.workload.size());
  // The soak must actually have exercised the recovery paths.
  EXPECT_GT(faulty.faults_injected(), 0u);
  EXPECT_GT(faulty_client.retries() + faulty_client.reconnects(), 0u);
  server.Stop();
}

}  // namespace
}  // namespace felip::svc
