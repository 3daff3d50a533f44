#include "serve/cluster_service.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/run_report.h"
#include "core/algorithm.h"
#include "exec/expression.h"
#include "net/fault.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

Result<PartitionedRelation> MakeServedRelation(int nodes = 4,
                                               int64_t tuples = 20'000,
                                               int64_t groups = 1'000) {
  WorkloadSpec workload;
  workload.num_nodes = nodes;
  workload.num_tuples = tuples;
  workload.num_groups = groups;
  return GenerateRelation(workload);
}

/// Test algorithm that parks every node thread until released: lets the
/// admission tests hold queries in flight for as long as they need.
class GateAlgorithm : public Algorithm {
 public:
  std::string name() const override { return "test-gate"; }

  Status RunNode(NodeContext& ctx) const override {
    (void)ctx;
    started_.fetch_add(1, std::memory_order_acq_rel);
    while (!release_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  }

  void Release() { release_.store(true, std::memory_order_release); }

  int started() const { return started_.load(std::memory_order_acquire); }

 private:
  mutable std::atomic<int> started_{0};
  std::atomic<bool> release_{false};
};

// The tentpole guarantee: queries running concurrently through the
// serving layer produce byte-identical results — and identical modeled
// times — to the same queries run one at a time through the one-shot
// engine. Session isolation (namespaced exchange, scoped disks, private
// obs shards) is what makes this hold.
TEST(ClusterService, ConcurrentQueriesMatchSequentialRuns) {
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, MakeServedRelation());
  const SystemParams params = SmallClusterParams(4, 20'000);

  // Four query shapes: the plain bench query plus three WHERE filters.
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  std::vector<AlgorithmOptions> shapes(4);
  shapes[1].where = Gt(Col(kBenchGroupCol), Lit(int64_t{100}));
  shapes[2].where = Gt(Col(kBenchGroupCol), Lit(int64_t{500}));
  shapes[3].where = Gt(Col(kBenchGroupCol), Lit(int64_t{900}));

  // Sequential baseline: one-shot Cluster::Run per shape.
  std::vector<RunResult> solo;
  for (const AlgorithmOptions& options : shapes) {
    Cluster cluster(params);
    solo.push_back(cluster.Run(
        *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), spec, rel,
        options));
    ASSERT_OK(solo.back().status);
  }

  // Served: two copies of every shape submitted from concurrent client
  // threads, cache off so each one actually executes.
  ServiceConfig config;
  config.params = params;
  config.cache_entries = 0;
  config.scheduler.max_inflight = 4;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));

  constexpr int kCopies = 2;
  std::vector<QueryTicketPtr> tickets(shapes.size() * kCopies);
  std::vector<std::thread> clients;
  for (int copy = 0; copy < kCopies; ++copy) {
    clients.emplace_back([&, copy] {
      for (size_t i = 0; i < shapes.size(); ++i) {
        ServeQuery query;
        query.spec = spec;
        query.algorithm = AlgorithmKind::kAdaptiveTwoPhase;
        query.options = shapes[i];
        auto ticket = service->Submit(std::move(query));
        ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
        tickets[static_cast<size_t>(copy) * shapes.size() + i] = *ticket;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t i = 0; i < tickets.size(); ++i) {
    const RunResult& run = tickets[i]->Wait();
    const RunResult& expected = solo[i % shapes.size()];
    ASSERT_OK(run.status);
    EXPECT_FALSE(run.from_cache);
    EXPECT_NE(run.query_id, 0u);
    EXPECT_TRUE(ResultSetsEqual(run.results, expected.results))
        << "shape " << i % shapes.size() << ": got "
        << run.results.num_rows() << " rows, expected "
        << expected.results.num_rows();
    // Modeled-time parity: running beside neighbors must not change
    // what the cost model says the query costs. Tolerance, not exact
    // equality: clock totals are double sums accumulated in message
    // arrival order, which jitters at the ~1e-15 level even between two
    // identical one-shot runs.
    EXPECT_NEAR(run.sim_time_s, expected.sim_time_s, 1e-9)
        << "shape " << i % shapes.size();
  }

  MetricsSnapshot metrics = service->Metrics();
  EXPECT_EQ(metrics.Value("serve.admitted"),
            static_cast<int64_t>(tickets.size()));
  EXPECT_EQ(metrics.Value("serve.completed"),
            static_cast<int64_t>(tickets.size()));
  EXPECT_EQ(metrics.Value("serve.aborted"), 0);
  EXPECT_GE(metrics.Value("serve.inflight_high_water"), 2);

  service->Shutdown();
  EXPECT_EQ(service->resident_threads(), 0);
}

// Page reads are views of the shared node disks' own pages: four
// sessions scan one partition per node through their ScopedDisks while
// a fifth keeps creating, filling, reading and deleting spill files on
// the same base disks. A view must keep its bytes whatever the spiller
// does to the disk's file table, so every row matches the oracle; under
// TSan a missing ordering edge between an append and a later in-place
// read shows up as a report (CI repeats this test there).
TEST(ClusterService, ConcurrentScansBesideSpillingSession) {
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, MakeServedRelation());
  ServiceConfig config;
  // 1,000 groups fit the scans' tables; the spiller's do not.
  config.params = SmallClusterParams(4, 20'000, /*max_hash_entries=*/2'000);
  config.cache_entries = 0;  // every query executes
  config.scheduler.max_inflight = 5;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));
  ASSERT_OK_AND_ASSIGN(AggregationSpec scan_spec,
                       MakeBenchQuery(&rel.schema()));
  // GROUP BY the measure column: thousands of groups per node.
  ASSERT_OK_AND_ASSIGN(
      AggregationSpec spill_spec,
      MakeCountSumSpec(&rel.schema(), kBenchValueCol, kBenchGroupCol));
  ASSERT_OK_AND_ASSIGN(ResultSet scan_expected,
                       ReferenceAggregate(scan_spec, rel));
  ASSERT_OK_AND_ASSIGN(ResultSet spill_expected,
                       ReferenceAggregate(spill_spec, rel));

  constexpr int kScanners = 4;
  constexpr int kRounds = 3;
  // Per client and round: 1 = rows equal the oracle (and, for the
  // spiller, records really spilled), 0 = not, -1 = never finished.
  std::vector<std::vector<int>> ok(kScanners + 1,
                                   std::vector<int>(kRounds, -1));
  std::vector<std::thread> clients;
  for (int c = 0; c <= kScanners; ++c) {
    clients.emplace_back([&, c] {
      const bool spiller = c == kScanners;
      for (int r = 0; r < kRounds; ++r) {
        ServeQuery query;
        query.spec = spiller ? spill_spec : scan_spec;
        query.algorithm = spiller ? AlgorithmKind::kRepartitioning
                                  : AlgorithmKind::kTwoPhase;
        auto ticket = service->Submit(std::move(query));
        if (!ticket.ok()) return;
        const RunResult& run = (*ticket)->Wait();
        const bool right =
            run.status.ok() &&
            ResultSetsEqual(run.results,
                            spiller ? spill_expected : scan_expected) &&
            (!spiller || run.total_spilled_records() > 0);
        ok[static_cast<size_t>(c)][static_cast<size_t>(r)] = right ? 1 : 0;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c <= kScanners; ++c) {
    for (int r = 0; r < kRounds; ++r) {
      EXPECT_EQ(ok[static_cast<size_t>(c)][static_cast<size_t>(r)], 1)
          << (c == kScanners ? "spiller" : "scanner ") << c << " round "
          << r;
    }
  }
  service->Shutdown();
}

/// Files live on `disk` and their total bytes, found by probing every id
/// below a fresh marker file (which is deleted again).
std::pair<int64_t, int64_t> DiskUsage(Disk& disk) {
  Result<FileId> marker = disk.CreateFile("usage.marker");
  EXPECT_TRUE(marker.ok());
  if (!marker.ok()) return {-1, -1};
  int64_t files = 0;
  int64_t bytes = 0;
  for (FileId id = 1; id < *marker; ++id) {
    Result<int64_t> pages = disk.NumPages(id);
    if (!pages.ok()) continue;
    ++files;
    bytes += *pages * disk.page_size();
  }
  EXPECT_TRUE(disk.DeleteFile(*marker).ok());
  return {files, bytes};
}

// A resident service must not accumulate per-query files: result files
// are dropped once charged, spill buckets once replayed (or with their
// aggregator when a query aborts first) and sort runs with their
// sorter, so the node disks hold only the relation however many
// queries have run.
TEST(ClusterService, DiskUsageStaysFlatAcrossServedQueries) {
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       MakeServedRelation(2, 6'000, 2'000));
  ServiceConfig config;
  config.params = SmallClusterParams(2, 6'000, /*max_hash_entries=*/64);
  config.cache_entries = 0;  // every query executes
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));

  const std::pair<int64_t, int64_t> before[] = {DiskUsage(rel.disk(0)),
                                                DiskUsage(rel.disk(1))};
  EXPECT_EQ(before[0].first, 1);  // the node's partition
  const std::vector<AlgorithmKind> kinds = AllAlgorithms();
  for (size_t q = 0; q < 2 * kinds.size(); ++q) {
    ServeQuery query;
    query.spec = spec;
    query.algorithm = kinds[q % kinds.size()];
    ASSERT_OK_AND_ASSIGN(QueryTicketPtr ticket, service->Submit(query));
    const RunResult& run = ticket->Wait();
    ASSERT_OK(run.status);
    EXPECT_GT(run.total_result_rows(), 0);
    EXPECT_TRUE(ResultSetsEqual(run.results, expected));
    for (int node = 0; node < 2; ++node) {
      EXPECT_EQ(DiskUsage(rel.disk(node)), before[node])
          << "node " << node << " after query " << q << " ("
          << AlgorithmKindToString(query.algorithm) << ")";
    }
  }

  // Node 1 stops at the emit boundary with its overflow buckets still
  // unread: the aborted query must not leave them behind.
  ServeQuery doomed;
  doomed.spec = spec;
  doomed.algorithm = AlgorithmKind::kRepartitioning;
  ASSERT_OK_AND_ASSIGN(doomed.options.fault_plan,
                       FaultPlan::Parse("crash:node=1,phase=emit"));
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr ticket, service->Submit(doomed));
  EXPECT_FALSE(ticket->Wait().status.ok());
  for (int node = 0; node < 2; ++node) {
    EXPECT_EQ(DiskUsage(rel.disk(node)), before[node]) << "node " << node;
  }
}

TEST(ClusterService, ResubmissionIsServedFromTheCache) {
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       MakeServedRelation(2, 6'000, 300));
  ServiceConfig config;
  config.params = SmallClusterParams(2, 6'000);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));

  ServeQuery first;
  first.spec = spec;
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr miss, service->Submit(first));
  const RunResult& executed = miss->Wait();
  ASSERT_OK(executed.status);
  EXPECT_FALSE(executed.from_cache);

  // Same fingerprint, different algorithm: still a hit — every
  // algorithm computes the same rows, so the algorithm choice is
  // deliberately not part of the cache key.
  ServeQuery second;
  second.spec = spec;
  second.algorithm = AlgorithmKind::kTwoPhase;
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr hit, service->Submit(second));
  const RunResult& cached = hit->Wait();
  ASSERT_OK(cached.status);
  EXPECT_TRUE(cached.from_cache);
  EXPECT_TRUE(ResultSetsEqual(cached.results, executed.results));

  // The per-query report labels carry the session id and cache bit.
  EXPECT_NE(RunSummaryLine(executed).find("qid="), std::string::npos);
  EXPECT_EQ(RunSummaryLine(executed).find("cached=1"), std::string::npos);
  EXPECT_NE(RunSummaryLine(cached).find("cached=1"), std::string::npos);
  EXPECT_NE(RunReport(cached).find("served from result cache"),
            std::string::npos);

  MetricsSnapshot metrics = service->Metrics();
  EXPECT_EQ(metrics.Value("serve.cache.hits"), 1);
  EXPECT_GE(metrics.Value("serve.cache.misses"), 1);
}

TEST(ClusterService, RelationMutationInvalidatesCachedResults) {
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       MakeServedRelation(2, 6'000, 300));
  ServiceConfig config;
  config.params = SmallClusterParams(2, 6'000);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));

  ServeQuery query;
  query.spec = spec;
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr warm, service->Submit(query));
  const RunResult& before = warm->Wait();
  ASSERT_OK(before.status);

  ASSERT_OK_AND_ASSIGN(QueryTicketPtr hit, service->Submit(query));
  EXPECT_TRUE(hit->Wait().from_cache);

  // Mutate the relation: Append bumps the version, so the cached entry
  // can never be looked up again — the next submission re-executes and
  // sees the new tuple.
  const uint64_t version_before = rel.version();
  TupleBuffer t(&rel.schema());
  t.SetInt64(kBenchGroupCol, 0);
  t.SetInt64(kBenchValueCol, 1);
  ASSERT_OK(rel.Append(0, t.view()));
  ASSERT_OK(rel.Flush());
  EXPECT_GT(rel.version(), version_before);

  ASSERT_OK_AND_ASSIGN(QueryTicketPtr fresh, service->Submit(query));
  const RunResult& after = fresh->Wait();
  ASSERT_OK(after.status);
  EXPECT_FALSE(after.from_cache);
  EXPECT_FALSE(ResultSetsEqual(after.results, before.results));

  // The explicit hook drops entries for out-of-band mutation too.
  service->InvalidateCache();
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr again, service->Submit(query));
  EXPECT_FALSE(again->Wait().from_cache);
}

TEST(ClusterService, BoundedQueueRejectsWithBackpressure) {
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       MakeServedRelation(2, 2'000, 100));
  ServiceConfig config;
  config.params = SmallClusterParams(2, 2'000);
  config.cache_entries = 0;
  config.scheduler.max_inflight = 1;
  config.scheduler.queue_capacity = 1;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));

  GateAlgorithm gate;
  ServeQuery query;
  query.spec = spec;
  query.custom_algorithm = &gate;

  // First query occupies the single slot...
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr running, service->Submit(query));
  for (int i = 0; i < 2'000 && gate.started() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(gate.started(), 2);  // both node threads are parked

  // ...the second fills the queue...
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr queued, service->Submit(query));
  EXPECT_FALSE(queued->done());

  // ...and the third bounces with kResourceExhausted.
  auto rejected = service->Submit(query);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find("queue"), std::string::npos)
      << rejected.status().ToString();

  gate.Release();
  ASSERT_OK(running->Wait().status);
  ASSERT_OK(queued->Wait().status);

  MetricsSnapshot metrics = service->Metrics();
  EXPECT_EQ(metrics.Value("serve.admitted"), 2);
  EXPECT_EQ(metrics.Value("serve.rejected.queue_full"), 1);
  EXPECT_GE(metrics.Value("serve.queue_depth_high_water"), 1);
}

TEST(ClusterService, ShutdownDrainsInflightAndFailsQueued) {
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       MakeServedRelation(2, 2'000, 100));
  ServiceConfig config;
  config.params = SmallClusterParams(2, 2'000);
  config.cache_entries = 0;
  config.scheduler.max_inflight = 1;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));

  GateAlgorithm gate;
  ServeQuery query;
  query.spec = spec;
  query.custom_algorithm = &gate;

  ASSERT_OK_AND_ASSIGN(QueryTicketPtr running, service->Submit(query));
  for (int i = 0; i < 2'000 && gate.started() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr queued, service->Submit(query));

  std::thread shutdown([&] { service->Shutdown(); });
  // Shutdown drains: the in-flight query keeps running until released.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(running->done());
  gate.Release();
  shutdown.join();

  EXPECT_OK(running->Wait().status);
  const RunResult& bounced = queued->Wait();
  EXPECT_EQ(bounced.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service->resident_threads(), 0);

  // New submissions after shutdown are turned away at the door.
  auto late = service->Submit(query);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ClusterService, IdleServiceShutsDownCleanly) {
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       MakeServedRelation(2, 2'000, 100));
  ServiceConfig config;
  config.params = SmallClusterParams(2, 2'000);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));
  EXPECT_GT(service->resident_threads(), 0);
  service->Shutdown();
  EXPECT_EQ(service->resident_threads(), 0);
  service->Shutdown();  // idempotent; the destructor calls it again
  EXPECT_EQ(service->resident_threads(), 0);
}

TEST(ClusterService, StartValidatesShapeMismatch) {
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       MakeServedRelation(2, 2'000, 100));
  ServiceConfig config;
  config.params = SmallClusterParams(4, 2'000);  // != rel's 2 partitions
  EXPECT_FALSE(ClusterService::Start(config, &rel).ok());

  config.params = SmallClusterParams(2, 2'000);
  config.scheduler.max_inflight = 0;
  EXPECT_FALSE(ClusterService::Start(config, &rel).ok());
}

TEST(ClusterService, TicketCarriesLatencyStamps) {
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       MakeServedRelation(2, 2'000, 100));
  ServiceConfig config;
  config.params = SmallClusterParams(2, 2'000);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ClusterService> service,
                       ClusterService::Start(config, &rel));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));

  ServeQuery query;
  query.spec = spec;
  ASSERT_OK_AND_ASSIGN(QueryTicketPtr ticket, service->Submit(query));
  ASSERT_OK(ticket->Wait().status);
  EXPECT_TRUE(ticket->done());
  EXPECT_GT(ticket->submit_wall_s(), 0.0);
  EXPECT_GE(ticket->complete_wall_s(), ticket->submit_wall_s());
}

}  // namespace
}  // namespace adaptagg
