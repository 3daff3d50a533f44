// End-to-end wiring of the radix pre-partitioning decision and SIMD
// dispatch observability: the cluster records the decisions as trace
// instants, the auto policy engages off the sampling estimate (and only
// then), and radix runs emit exactly the hash-direct results.

#include <gtest/gtest.h>

#include <string>

#include "model/locality_model.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

struct Fixture {
  PartitionedRelation rel;
  AggregationSpec spec;
};

Result<Fixture> MakeFixture(int nodes, int64_t tuples, int64_t groups,
                            double zipf_theta = 0.0) {
  WorkloadSpec wspec;
  wspec.num_nodes = nodes;
  wspec.num_tuples = tuples;
  wspec.num_groups = groups;
  if (zipf_theta > 0) {
    wspec.distribution = GroupDistribution::kZipf;
    wspec.zipf_theta = zipf_theta;
  }
  ADAPTAGG_ASSIGN_OR_RETURN(PartitionedRelation rel,
                            GenerateRelation(wspec));
  ADAPTAGG_ASSIGN_OR_RETURN(AggregationSpec spec,
                            MakeBenchQuery(&rel.schema()));
  return Fixture{std::move(rel), std::move(spec)};
}

int CountInstants(const RunResult& run, const std::string& name) {
  int count = 0;
  for (const TraceEvent& e : run.trace_events) {
    if (e.kind == TraceEvent::Kind::kInstant && e.name == name) ++count;
  }
  return count;
}

TEST(RadixWiring, SimdDispatchInstantRecordedOncePerRun) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 4'000, 50));
  Cluster cluster(SmallClusterParams(2, 4'000));
  AlgorithmOptions opts;
  opts.obs.traces = true;
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                              f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_EQ(CountInstants(run, "simd.dispatch"), 1);
}

TEST(RadixWiring, ForcedRadixRecordsEngageInstantsAndMatchesReference) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 8'000, 200));
  const SystemParams params = SmallClusterParams(2, 8'000, /*max=*/4'096);
  AlgorithmOptions opts;
  opts.obs.traces = true;
  opts.radix_mode = RadixMode::kOn;
  opts.gather_results = true;

  ASSERT_OK_AND_ASSIGN(ResultSet expected,
                       ReferenceAggregate(f.spec, f.rel));
  Cluster cluster(params);
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                              f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  // kOn engages the local table on both nodes and the global merge
  // table on both nodes.
  EXPECT_EQ(CountInstants(run, "radix.engage.local"), 2);
  EXPECT_EQ(CountInstants(run, "radix.engage.global"), 2);
}

TEST(RadixWiring, RadixOnAndOffEmitIdenticalResults) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 12'000, 300));
  const SystemParams params =
      SmallClusterParams(4, 12'000, /*max=*/4'096);
  AlgorithmOptions on;
  on.radix_mode = RadixMode::kOn;
  on.gather_results = true;
  AlgorithmOptions off;
  off.radix_mode = RadixMode::kOff;
  off.gather_results = true;

  Cluster cluster(params);
  RunResult run_on = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                                 f.spec, f.rel, on);
  ASSERT_OK(run_on.status);
  RunResult run_off = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                                  f.spec, f.rel, off);
  ASSERT_OK(run_off.status);
  EXPECT_TRUE(ResultSetsEqual(run_on.results, run_off.results, 0.0))
      << "radix must not change a single emitted value";
  // And neither perturbs the modeled time: staging is wall-clock-only.
  ASSERT_EQ(run_on.clocks.size(), run_off.clocks.size());
  EXPECT_EQ(run_on.sim_time_s, run_off.sim_time_s);
}

TEST(RadixWiring, AutoEngagesOffTheSamplingEstimate) {
  // Shrink the modeled caches so the sampled group estimate crosses the
  // LLC gate: sampling sets the per-node estimate, and the auto policy
  // must then engage the local aggregation.
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 10'000, 400));
  const SystemParams params =
      SmallClusterParams(2, 10'000, /*max=*/8'192);
  AlgorithmOptions opts;
  opts.obs.traces = true;
  opts.radix_mode = RadixMode::kAuto;
  opts.radix_l2_bytes = 1'024;
  opts.radix_llc_bytes = 1'024;
  opts.crossover_threshold = 1'000'000;  // keep the two-phase body
  opts.gather_results = true;

  ASSERT_OK_AND_ASSIGN(ResultSet expected,
                       ReferenceAggregate(f.spec, f.rel));
  Cluster cluster(params);
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                              f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  EXPECT_GE(CountInstants(run, "radix.engage.local"), 1);
  // The decision is observability-only: it must not count as an
  // adaptive switch.
  EXPECT_EQ(run.metrics.Value("core.switches"), 0);
}

TEST(RadixWiring, AutoStaysOffWithoutPressure) {
  // Few groups, default cache budgets: the working set fits the LLC,
  // nothing engages, and the run stays hash-direct with no instants.
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 6'000, 20));
  AlgorithmOptions opts;
  opts.obs.traces = true;
  opts.radix_mode = RadixMode::kAuto;
  Cluster cluster(SmallClusterParams(2, 6'000));
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                              f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_EQ(CountInstants(run, "radix.engage.local"), 0);
  EXPECT_EQ(CountInstants(run, "radix.engage.global"), 0);
}

TEST(RadixWiring, RepartitioningBodyEngagesGlobalTable) {
  // Forced radix through the repartitioning body: the merge-side table
  // engages on every node.
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 8'000, 500));
  AlgorithmOptions opts;
  opts.obs.traces = true;
  opts.radix_mode = RadixMode::kOn;
  opts.gather_results = true;

  ASSERT_OK_AND_ASSIGN(ResultSet expected,
                       ReferenceAggregate(f.spec, f.rel));
  Cluster cluster(SmallClusterParams(2, 8'000, /*max=*/4'096));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kRepartitioning), f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  EXPECT_EQ(CountInstants(run, "radix.engage.global"), 2);
}

TEST(RadixWiring, SamplingMergeSideStagingHonorsRadixMode) {
  // Zipf-skewed groups under a 64 KiB LLC budget. Sampling estimates
  // ~10.2k global groups and ~4.7k per node: the global estimate / N
  // (~2.5k groups, ~92 KB) busts the budget while the local estimate / N
  // (~1.2k, ~42 KB) would not, so kAuto must engage the merge-side
  // table on every node off the global estimate — and kOff must engage
  // nothing, merge side included.
  constexpr int kNodes = 4;
  ASSERT_OK_AND_ASSIGN(Fixture f,
                       MakeFixture(kNodes, 40'000, 20'000, /*zipf=*/0.9));
  ASSERT_OK_AND_ASSIGN(ResultSet expected,
                       ReferenceAggregate(f.spec, f.rel));
  Cluster cluster(SmallClusterParams(kNodes, 40'000, /*max=*/16'384));
  for (RadixMode mode : {RadixMode::kAuto, RadixMode::kOff}) {
    SCOPED_TRACE(mode == RadixMode::kAuto ? "auto" : "off");
    AlgorithmOptions opts;
    opts.obs.traces = true;
    opts.radix_mode = mode;
    opts.radix_llc_bytes = 64 * 1024;
    opts.crossover_threshold = 1'000'000;  // keep the two-phase body
    opts.gather_results = true;
    RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                                f.spec, f.rel, opts);
    ASSERT_OK(run.status);
    EXPECT_TRUE(ResultSetsEqual(run.results, expected));
    EXPECT_EQ(CountInstants(run, "radix.engage.global"),
              mode == RadixMode::kAuto ? kNodes : 0);
    if (mode == RadixMode::kOff) {
      EXPECT_EQ(CountInstants(run, "radix.engage.local"), 0);
    }
  }
}

}  // namespace
}  // namespace adaptagg
