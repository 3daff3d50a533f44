#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

// ---------------------------------------------------------------------
// The no-perturbation contract: checkpointing is wall-clock-only work on
// dedicated disks, so a fault-free run with recovery ON must be
// bit-identical — modeled time, adaptive switches, result rows — to the
// same run with recovery OFF.

class RecoveryParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadSpec wspec;
    wspec.num_nodes = 3;
    wspec.num_tuples = 9'000;
    wspec.num_groups = 300;
    ASSERT_OK_AND_ASSIGN(rel_, GenerateRelation(wspec));
    auto spec = MakeBenchQuery(&rel_->schema());
    ASSERT_TRUE(spec.ok());
    spec_ = std::make_unique<AggregationSpec>(std::move(spec).value());
    params_ = SmallClusterParams(3, wspec.num_tuples, 256);
  }

  RunResult RunWith(AlgorithmKind kind, bool recovery,
                    int64_t every_batches) {
    Cluster cluster(params_);
    AlgorithmOptions opts;
    opts.gather_results = true;
    opts.recovery.enabled = recovery;
    opts.recovery.checkpoint_every_batches = every_batches;
    return cluster.Run(*MakeAlgorithm(kind), *spec_, *rel_, opts);
  }

  std::optional<PartitionedRelation> rel_;
  std::unique_ptr<AggregationSpec> spec_;
  SystemParams params_;
};

TEST_F(RecoveryParityTest, FaultFreeRunsAreBitIdenticalWithCheckpointing) {
  const AlgorithmKind kinds[] = {
      AlgorithmKind::kTwoPhase, AlgorithmKind::kRepartitioning,
      AlgorithmKind::kAdaptiveTwoPhase, AlgorithmKind::kSampling};
  for (AlgorithmKind kind : kinds) {
    SCOPED_TRACE(AlgorithmKindToString(kind));
    RunResult off = RunWith(kind, /*recovery=*/false, 0);
    RunResult on = RunWith(kind, /*recovery=*/true, /*every_batches=*/4);
    ASSERT_OK(off.status);
    ASSERT_OK(on.status);
    // Same modeled outcome: same adaptive switches, byte-identical
    // result rows, and clock totals equal to within the ~1e-15
    // summation-order jitter that two identical one-shot runs already
    // show (totals are double sums accumulated in message arrival
    // order; see the serving-layer parity test).
    EXPECT_NEAR(off.sim_time_s, on.sim_time_s, 1e-9);
    EXPECT_NEAR(off.wire_time_s, on.wire_time_s, 1e-9);
    EXPECT_EQ(off.nodes_switched(), on.nodes_switched());
    EXPECT_TRUE(ResultSetsEqual(off.results, on.results));
    // And the checkpointing actually happened on the recovery side.
    EXPECT_GT(on.metrics.Value("recovery.checkpoints_written"), 0);
    EXPECT_EQ(off.metrics.Value("recovery.checkpoints_written"), 0);
  }
}

TEST_F(RecoveryParityTest, AutoCadenceAlsoLeavesModeledTimeUntouched) {
  RunResult off = RunWith(AlgorithmKind::kTwoPhase, false, 0);
  // -1 asks the cost model (DecideCheckpointInterval) for the cadence.
  RunResult on = RunWith(AlgorithmKind::kTwoPhase, true, -1);
  ASSERT_OK(off.status);
  ASSERT_OK(on.status);
  EXPECT_NEAR(off.sim_time_s, on.sim_time_s, 1e-9);
  EXPECT_TRUE(ResultSetsEqual(off.results, on.results));
}

TEST_F(RecoveryParityTest, CadenceZeroMeansNoCheckpoints) {
  RunResult on = RunWith(AlgorithmKind::kTwoPhase, true, 0);
  ASSERT_OK(on.status);
  EXPECT_EQ(on.metrics.Value("recovery.checkpoints_written"), 0);
}

}  // namespace
}  // namespace adaptagg
