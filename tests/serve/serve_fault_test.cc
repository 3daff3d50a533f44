// Fault isolation in the serving layer: an injected crash aborts only
// the query that carries the fault plan. Its concurrent neighbors —
// sharing the physical mesh, the relation, and the worker pools — finish
// correctly, and the service keeps serving afterwards. With recovery
// armed, a crashed session replays inside the service without the client
// ever seeing the failure. The failure mode being guarded against is a
// hang (a crashed session wedging a shared resource), so the suite runs
// under a hard ctest timeout.

#include <chrono>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "net/fault.h"
#include "serve/cluster_service.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

TEST(ServeFault, CrashedQueryDoesNotPoisonItsNeighbors) {
  WorkloadSpec workload;
  workload.num_nodes = 4;
  workload.num_tuples = 12'000;
  workload.num_groups = 400;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       GenerateRelation(workload));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));

  ServiceConfig config;
  config.params = SmallClusterParams(4, 12'000);
  config.cache_entries = 0;
  config.scheduler.max_inflight = 3;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));

  // Three concurrent submissions; the middle one crashes node 1
  // mid-scan. Short detection timeout keeps the abort prompt.
  ServeQuery healthy;
  healthy.spec = spec;
  healthy.algorithm = AlgorithmKind::kAdaptiveTwoPhase;

  ServeQuery doomed = healthy;
  ASSERT_OK_AND_ASSIGN(doomed.options.fault_plan,
                       FaultPlan::Parse("crash:node=1,tuple=500"));
  doomed.options.failure.recv_idle_timeout_s = 2.0;

  ASSERT_OK_AND_ASSIGN(QueryTicketPtr left, service->Submit(healthy));
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr mid, service->Submit(doomed));
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr right, service->Submit(healthy));

  const RunResult& aborted = mid->Wait();
  EXPECT_FALSE(aborted.status.ok());
  EXPECT_NE(aborted.status.message().find("injected crash"),
            std::string::npos)
      << aborted.status.ToString();
  EXPECT_EQ(aborted.metrics.Value("fault.crashes_injected"), 1);

  for (const QueryTicketPtr& ticket : {left, right}) {
    const RunResult& run = ticket->Wait();
    ASSERT_OK(run.status);
    EXPECT_TRUE(ResultSetsEqual(run.results, expected))
        << "neighbor of the crashed query returned " <<
        run.results.num_rows() << " rows, expected " <<
        expected.num_rows();
  }

  MetricsSnapshot metrics = service->Metrics();
  EXPECT_EQ(metrics.Value("serve.aborted"), 1);
  EXPECT_EQ(metrics.Value("serve.completed"), 2);

  // The service is still healthy: a fresh submission after the abort
  // executes normally.
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr after, service->Submit(healthy));
  const RunResult& recovered = after->Wait();
  ASSERT_OK(recovered.status);
  EXPECT_TRUE(ResultSetsEqual(recovered.results, expected));

  service->Shutdown();
  EXPECT_EQ(service->resident_threads(), 0);
}

// The served twin of FailureDetection.CrashedPeerDetectedAtTransportSpeed:
// the crashed session's endpoint closes inside the session router, its
// peers abort at once, and the service replays it. Under the 30 s idle
// deadline a silence-only detector could not finish in under 30 s.
TEST(ServeFault, CrashedPeerDetectedAtTransportSpeed) {
  WorkloadSpec workload;
  workload.num_nodes = 4;
  workload.num_tuples = 12'000;
  workload.num_groups = 400;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       GenerateRelation(workload));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));

  ServiceConfig config;
  config.params = SmallClusterParams(4, 12'000);
  config.cache_entries = 0;
  config.scheduler.max_inflight = 3;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));

  ServeQuery healthy;
  healthy.spec = spec;
  healthy.algorithm = AlgorithmKind::kRepartitioning;

  ServeQuery doomed = healthy;
  ASSERT_OK_AND_ASSIGN(doomed.options.fault_plan,
                       FaultPlan::Parse("crash:node=1,tuple=500"));
  doomed.options.failure.recv_idle_timeout_s = 30.0;
  doomed.options.recovery.enabled = true;

  const auto start = std::chrono::steady_clock::now();
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr left, service->Submit(healthy));
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr mid, service->Submit(doomed));
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr right, service->Submit(healthy));

  const RunResult& replayed = mid->Wait();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
  ASSERT_OK(replayed.status);
  EXPECT_TRUE(ResultSetsEqual(replayed.results, expected));
  EXPECT_EQ(replayed.metrics.Value("recovery.attempts"), 1);
  EXPECT_LT(elapsed, 5.0);

  for (const QueryTicketPtr& ticket : {left, right}) {
    const RunResult& run = ticket->Wait();
    ASSERT_OK(run.status);
    EXPECT_TRUE(ResultSetsEqual(run.results, expected));
    EXPECT_EQ(run.metrics.Value("fault.peer_closed"), 0);
  }

  MetricsSnapshot metrics = service->Metrics();
  EXPECT_EQ(metrics.Value("serve.recovery.replays"), 1);
  EXPECT_EQ(metrics.Value("serve.completed"), 3);
  EXPECT_EQ(metrics.Value("serve.aborted"), 0);

  service->Shutdown();
  EXPECT_EQ(service->resident_threads(), 0);
}

TEST(ServeFault, CrashedSessionReplaysInsideTheService) {
  WorkloadSpec workload;
  workload.num_nodes = 3;
  workload.num_tuples = 9'000;
  workload.num_groups = 300;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(workload));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec, MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));

  ServiceConfig config;
  config.params = SmallClusterParams(3, workload.num_tuples);
  config.cache_entries = 0;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));

  // Node 1 crashes mid-scan; with recovery on, the service replays the
  // session internally and the ticket resolves OK — the client never
  // sees the crash.
  ServeQuery query;
  query.spec = spec;
  query.algorithm = AlgorithmKind::kAdaptiveTwoPhase;
  ASSERT_OK_AND_ASSIGN(query.options.fault_plan,
                       FaultPlan::Parse("crash:node=1,tuple=500"));
  query.options.failure.recv_idle_timeout_s = 2.0;
  query.options.recovery.enabled = true;
  query.options.recovery.checkpoint_every_batches = 4;

  ASSERT_OK_AND_ASSIGN(QueryTicketPtr ticket, service->Submit(query));
  const RunResult& run = ticket->Wait();
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  EXPECT_EQ(run.metrics.Value("recovery.attempts"), 1);
  EXPECT_EQ(run.metrics.Value("recovery.attempt_wall_us"), 2);

  MetricsSnapshot metrics = service->Metrics();
  EXPECT_GE(metrics.Value("serve.recovery.replays"), 1);
  EXPECT_EQ(metrics.Value("serve.aborted"), 0);
  EXPECT_EQ(metrics.Value("serve.completed"), 1);

  // Without recovery, the same plan still aborts descriptively: the
  // replay path must not swallow legitimate failures.
  query.options.recovery.enabled = false;
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr doomed, service->Submit(query));
  const RunResult& aborted = doomed->Wait();
  EXPECT_FALSE(aborted.status.ok());
  EXPECT_NE(aborted.status.message().find("injected crash"),
            std::string::npos)
      << aborted.status.ToString();

  service->Shutdown();
}

}  // namespace
}  // namespace adaptagg
