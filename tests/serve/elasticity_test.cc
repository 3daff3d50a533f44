// Elasticity and crash replay on the resident serving layer. Resize
// quiesces the service, rebuilds the data plane at the new node count,
// rebalances the relation, and bumps the membership epoch; queries
// before and after must agree with the reference aggregate at every
// size. Session crash replay re-executes a crashed attempt inside the
// service without the client ever seeing the failure. Both paths can
// hang when broken, so the suite runs under the fault-test ceiling.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "net/fault.h"
#include "serve/cluster_service.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

TEST(Elasticity, ResizeServesCorrectRowsAtEverySize) {
  WorkloadSpec workload;
  workload.num_nodes = 3;
  workload.num_tuples = 9'000;
  workload.num_groups = 300;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(workload));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec, MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));
  const int64_t tuples_before = rel.total_tuples();

  ServiceConfig config;
  config.params = SmallClusterParams(3, workload.num_tuples);
  config.cache_entries = 4;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));
  EXPECT_EQ(service->membership_epoch(), 0u);

  ServeQuery query;
  query.spec = spec;
  query.algorithm = AlgorithmKind::kAdaptiveTwoPhase;

  // Shrink to 2, then grow to 4: a leave and a join. At every size the
  // relation keeps its tuple multiset, the epoch advances, and the same
  // query lands on the same rows.
  const int sizes[] = {2, 4};
  uint32_t epoch = 0;
  for (int size : sizes) {
    SCOPED_TRACE(size);
    ASSERT_OK_AND_ASSIGN(QueryTicketPtr before, service->Submit(query));
    const RunResult& pre = before->Wait();
    ASSERT_OK(pre.status);
    EXPECT_TRUE(ResultSetsEqual(pre.results, expected));

    const uint64_t version_before = rel.version();
    ASSERT_OK(service->Resize(size));
    EXPECT_EQ(rel.num_nodes(), size);
    EXPECT_EQ(rel.total_tuples(), tuples_before);
    EXPECT_GT(rel.version(), version_before);
    EXPECT_EQ(service->membership_epoch(), ++epoch);
    EXPECT_GT(service->resident_threads(), 0);

    ASSERT_OK_AND_ASSIGN(QueryTicketPtr after, service->Submit(query));
    const RunResult& post = after->Wait();
    ASSERT_OK(post.status);
    // The pre-resize cache entry is keyed on the old relation version,
    // so this is a genuine re-execution at the new size.
    EXPECT_FALSE(post.from_cache);
    EXPECT_EQ(post.num_nodes, size);
    EXPECT_TRUE(ResultSetsEqual(post.results, expected));
  }

  EXPECT_EQ(service->Metrics().Value("serve.resizes"), 2);
  service->Shutdown();
  EXPECT_EQ(service->resident_threads(), 0);
}

TEST(Elasticity, ResizeValidatesItsArguments) {
  WorkloadSpec workload;
  workload.num_nodes = 2;
  workload.num_tuples = 2'000;
  workload.num_groups = 100;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(workload));
  ServiceConfig config;
  config.params = SmallClusterParams(2, workload.num_tuples);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));

  EXPECT_EQ(service->Resize(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Resize(-3).code(), StatusCode::kInvalidArgument);

  // Resizing to the current size is a no-op: no epoch bump, no
  // rebalance, no cache invalidation.
  const uint64_t version = rel.version();
  ASSERT_OK(service->Resize(2));
  EXPECT_EQ(service->membership_epoch(), 0u);
  EXPECT_EQ(rel.version(), version);
  EXPECT_EQ(service->Metrics().Value("serve.resizes"), 0);

  service->Shutdown();
  EXPECT_EQ(service->Resize(3).code(), StatusCode::kFailedPrecondition);
}

TEST(Elasticity, CrashedSessionReplaysInsideTheService) {
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

TEST(Elasticity, ResizeAfterReplayKeepsServing) {
  // A crash replay followed by a resize followed by a query: the stale
  // frames of the crashed attempt and the retired pre-resize plane must
  // both be invisible to the final run.
  WorkloadSpec workload;
  workload.num_nodes = 3;
  workload.num_tuples = 6'000;
  workload.num_groups = 200;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(workload));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec, MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));

  ServiceConfig config;
  config.params = SmallClusterParams(3, workload.num_tuples);
  config.cache_entries = 0;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));

  ServeQuery crashing;
  crashing.spec = spec;
  crashing.algorithm = AlgorithmKind::kRepartitioning;
  ASSERT_OK_AND_ASSIGN(crashing.options.fault_plan,
                       FaultPlan::Parse("crash:node=2,tuple=500"));
  crashing.options.failure.recv_idle_timeout_s = 2.0;
  crashing.options.recovery.enabled = true;
  crashing.options.recovery.checkpoint_every_batches = 4;

  ASSERT_OK_AND_ASSIGN(QueryTicketPtr replayed, service->Submit(crashing));
  ASSERT_OK(replayed->Wait().status);
  EXPECT_TRUE(ResultSetsEqual(replayed->Wait().results, expected));

  ASSERT_OK(service->Resize(2));

  ServeQuery plain;
  plain.spec = spec;
  plain.algorithm = AlgorithmKind::kAdaptiveTwoPhase;
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr after, service->Submit(plain));
  const RunResult& run = after->Wait();
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));

  service->Shutdown();
}

}  // namespace
}  // namespace adaptagg
