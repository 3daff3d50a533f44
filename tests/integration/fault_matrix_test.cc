#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fault.h"
#include "net/transport.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

/// One cell of the fault matrix: a plan, the transport, the algorithm,
/// and the contract the run must satisfy — either it completes with the
/// correct result, or it aborts cleanly within the deadline with a
/// status that names a node. No outcome is allowed to hang.
struct FaultCase {
  const char* label;
  const char* plan;
  bool expect_ok;
  /// Substring the abort status must carry (nullptr: any message).
  const char* expect_substr;
  /// Code the abort status must carry (kOk: any expected failure code).
  StatusCode expect_code = StatusCode::kOk;
};

constexpr FaultCase kCases[] = {
    // A dropped repartition/merge message is detected as sequence loss
    // or peer silence — never an indefinite wait.
    {"drop", "drop:from=1,to=2,nth=0", false, "node"},
    // Duplicated delivery is discarded by sequence-number dedup; the
    // aggregate must not double-count.
    {"duplicate", "dup:from=1,to=2,nth=0", true, nullptr},
    // A delayed message still arrives; heartbeats keep peers patient.
    {"delay", "delay:from=1,to=2,nth=0,factor=50", true, nullptr},
    // A corrupted frame fails its checksum and becomes a detectable
    // drop.
    {"corrupt", "corrupt:from=1,to=2,nth=0", false, "node"},
    // A fail-stop crash mid-scan closes the node's endpoint; the run
    // aborts at once with a status naming the dead node.
    {"crash", "crash:node=1,tuple=500", false, "node 1"},
    // A hang keeps its endpoint open, so only silence detection (no
    // heartbeats within the idle deadline) can find it.
    {"hang", "hang:node=1,tuple=500", false, "node 1",
     StatusCode::kDeadlineExceeded},
    // A straggler survives: heartbeats prove liveness until it catches
    // up.
    {"straggler", "straggle:node=1,factor=20", true, nullptr},
};

class FaultMatrixTest : public ::testing::Test {
 protected:
  void RunMatrix(bool tcp, int base_port) {
    WorkloadSpec wspec;
    wspec.num_nodes = 3;
    wspec.num_tuples = 6'000;
    wspec.num_groups = 200;
    ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                         GenerateRelation(wspec));
    ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                         MakeBenchQuery(&rel.schema()));
    ASSERT_OK_AND_ASSIGN(ResultSet expected,
                         ReferenceAggregate(spec, rel));

    // One traditional algorithm (Repartitioning: raw-tuple traffic in
    // the scan phase) and one adaptive (A-2P: partials in the merge
    // phase), so faults hit both traffic shapes.
    const AlgorithmKind kinds[] = {AlgorithmKind::kRepartitioning,
                                   AlgorithmKind::kAdaptiveTwoPhase};
    SystemParams params = SmallClusterParams(3, wspec.num_tuples, 256);

    int port = base_port;
    for (AlgorithmKind kind : kinds) {
      for (const FaultCase& fc : kCases) {
        SCOPED_TRACE(std::string(AlgorithmKindToString(kind)) + "/" +
                     fc.label + (tcp ? "/tcp" : "/inproc"));
        Cluster cluster(params);
        if (tcp) {
          const int base = port;
          port += 10;
          cluster.set_transport_factory(
              [base](int n) { return MakeTcpMesh(n, base); });
        }
        AlgorithmOptions opts;
        ASSERT_OK_AND_ASSIGN(opts.fault_plan, FaultPlan::Parse(fc.plan));
        opts.failure.enabled = true;
        opts.failure.recv_idle_timeout_s = 2.0;

        RunResult run =
            cluster.Run(*MakeAlgorithm(kind), spec, rel, opts);
        if (fc.expect_ok) {
          ASSERT_OK(run.status);
          EXPECT_TRUE(ResultSetsEqual(run.results, expected));
        } else {
          ASSERT_FALSE(run.status.ok());
          // Clean, descriptive abort: an expected failure code, and a
          // message naming the node at fault.
          EXPECT_TRUE(
              run.status.code() == StatusCode::kNetworkError ||
              run.status.code() == StatusCode::kDeadlineExceeded ||
              run.status.code() == StatusCode::kInternal)
              << run.status.ToString();
          if (fc.expect_code != StatusCode::kOk) {
            EXPECT_EQ(run.status.code(), fc.expect_code)
                << run.status.ToString();
          }
          if (fc.expect_substr != nullptr) {
            EXPECT_NE(run.status.message().find(fc.expect_substr),
                      std::string::npos)
                << run.status.ToString();
          }
        }
      }
    }
  }
};

TEST_F(FaultMatrixTest, InprocMesh) { RunMatrix(/*tcp=*/false, 0); }

TEST_F(FaultMatrixTest, TcpMesh) { RunMatrix(/*tcp=*/true, 47000); }

// The two acceptance scenarios called out by the issue, pinned as their
// own tests so a regression is named precisely.
TEST_F(FaultMatrixTest, DropRepartitionMessageAbortsDescriptively) {
  WorkloadSpec wspec;
  wspec.num_nodes = 3;
  wspec.num_tuples = 6'000;
  wspec.num_groups = 200;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));

  AlgorithmOptions opts;
  ASSERT_OK_AND_ASSIGN(opts.fault_plan,
                       FaultPlan::Parse("drop:from=1,to=2,nth=0"));
  opts.failure.enabled = true;
  opts.failure.recv_idle_timeout_s = 2.0;

  Cluster cluster(SmallClusterParams(3, wspec.num_tuples, 256));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kRepartitioning), spec, rel, opts);
  ASSERT_FALSE(run.status.ok());
  EXPECT_TRUE(run.status.code() == StatusCode::kNetworkError ||
              run.status.code() == StatusCode::kDeadlineExceeded)
      << run.status.ToString();
  EXPECT_NE(run.status.message().find("node"), std::string::npos)
      << run.status.ToString();
}

// ---------------------------------------------------------------
// Recovery matrix: {crash@scan, crash@merge, crash@emit} x
// {checkpointed, uncheckpointed} x {inproc, tcp}. With recovery
// enabled, every cell must COMPLETE — survivor re-execution replays
// the crashed attempt from the last checkpoint (or scratch) — and the
// result multiset must be byte-identical to the fault-free run.

class RecoveryMatrixTest : public ::testing::Test {
 protected:
  void RunMatrix(bool tcp, int base_port) {
    WorkloadSpec wspec;
    wspec.num_nodes = 3;
    wspec.num_tuples = 6'000;
    wspec.num_groups = 200;
    ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                         GenerateRelation(wspec));
    ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                         MakeBenchQuery(&rel.schema()));
    ASSERT_OK_AND_ASSIGN(ResultSet expected,
                         ReferenceAggregate(spec, rel));

    const AlgorithmKind kinds[] = {AlgorithmKind::kRepartitioning,
                                   AlgorithmKind::kAdaptiveTwoPhase};
    const char* crashes[] = {"crash:node=1,tuple=500",
                             "crash:node=1,phase=merge",
                             "crash:node=1,phase=emit"};
    // 4 = checkpoint every 4 batches; 0 = recovery without checkpoints
    // (replay from scratch) — both must land on the same rows.
    const int64_t cadences[] = {4, 0};
    SystemParams params = SmallClusterParams(3, wspec.num_tuples, 256);

    int port = base_port;
    for (AlgorithmKind kind : kinds) {
      for (const char* crash : crashes) {
        for (int64_t cadence : cadences) {
          SCOPED_TRACE(std::string(AlgorithmKindToString(kind)) + "/" +
                       crash + "/every=" + std::to_string(cadence) +
                       (tcp ? "/tcp" : "/inproc"));
          Cluster cluster(params);
          if (tcp) {
            // Each attempt builds a fresh mesh; bump the port block per
            // call so the replay never races the dying listeners.
            const int base = port;
            port += 40;
            cluster.set_transport_factory(
                [base, used = 0](int n) mutable {
                  const int at = base + used;
                  used += 10;
                  return MakeTcpMesh(n, at);
                });
          }
          AlgorithmOptions opts;
          opts.gather_results = true;
          ASSERT_OK_AND_ASSIGN(opts.fault_plan, FaultPlan::Parse(crash));
          opts.failure.enabled = true;
          opts.failure.recv_idle_timeout_s = 2.0;
          opts.recovery.enabled = true;
          opts.recovery.checkpoint_every_batches = cadence;

          RunResult run =
              cluster.Run(*MakeAlgorithm(kind), spec, rel, opts);
          ASSERT_OK(run.status);
          EXPECT_TRUE(ResultSetsEqual(run.results, expected));
          EXPECT_EQ(run.metrics.Value("recovery.attempts"), 1);
          EXPECT_EQ(run.metrics.Value("recovery.attempt_wall_us"), 2);
        }
      }
    }
  }
};

TEST_F(RecoveryMatrixTest, InprocMesh) { RunMatrix(/*tcp=*/false, 0); }

TEST_F(RecoveryMatrixTest, TcpMesh) { RunMatrix(/*tcp=*/true, 48000); }

TEST_F(RecoveryMatrixTest, DoubleCrashSameNodeRecoversTwice) {
  WorkloadSpec wspec;
  wspec.num_nodes = 3;
  wspec.num_tuples = 6'000;
  wspec.num_groups = 200;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));

  AlgorithmOptions opts;
  opts.gather_results = true;
  ASSERT_OK_AND_ASSIGN(
      opts.fault_plan,
      FaultPlan::Parse("crash:node=1,tuple=500;crash:node=1,phase=merge"));
  opts.failure.enabled = true;
  opts.failure.recv_idle_timeout_s = 2.0;
  opts.recovery.enabled = true;
  opts.recovery.checkpoint_every_batches = 4;

  Cluster cluster(SmallClusterParams(3, wspec.num_tuples, 256));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), spec, rel, opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  EXPECT_EQ(run.metrics.Value("recovery.attempts"), 2);
  EXPECT_EQ(run.metrics.Value("recovery.attempt_wall_us"), 3);
}

TEST_F(RecoveryMatrixTest, TwoNodesCrashingTogetherRecoverInOneReplay) {
  WorkloadSpec wspec;
  wspec.num_nodes = 3;
  wspec.num_tuples = 6'000;
  wspec.num_groups = 200;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));

  AlgorithmOptions opts;
  opts.gather_results = true;
  // Both crash on entering the scan, which Repartitioning does before
  // its first receive: neither can see the other's close first, so the
  // two crashes land in one attempt by construction.
  ASSERT_OK_AND_ASSIGN(
      opts.fault_plan,
      FaultPlan::Parse("crash:node=0,phase=scan;crash:node=2,phase=scan"));
  opts.failure.enabled = true;
  opts.failure.recv_idle_timeout_s = 2.0;
  opts.recovery.enabled = true;
  opts.recovery.checkpoint_every_batches = 4;

  Cluster cluster(SmallClusterParams(3, wspec.num_tuples, 256));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kRepartitioning), spec, rel, opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  EXPECT_EQ(run.metrics.Value("recovery.attempts"), 1);
}

TEST_F(RecoveryMatrixTest, FailingCheckpointDiskDegradesToScratchReplay) {
  WorkloadSpec wspec;
  wspec.num_nodes = 3;
  wspec.num_tuples = 6'000;
  wspec.num_groups = 200;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));

  AlgorithmOptions opts;
  opts.gather_results = true;
  // Node 1's checkpoint disk rejects every append: no checkpoint ever
  // becomes durable, so the replay runs from scratch — and must still
  // land on exactly the fault-free rows.
  ASSERT_OK_AND_ASSIGN(
      opts.fault_plan,
      FaultPlan::Parse("crash:node=1,tuple=500;disk-fail:node=1,nth=0"));
  opts.failure.enabled = true;
  opts.failure.recv_idle_timeout_s = 2.0;
  opts.recovery.enabled = true;
  opts.recovery.checkpoint_every_batches = 2;

  // Two Phase checkpoints on scan progress, so the write attempts (and
  // their failures) land at deterministic batch boundaries.
  Cluster cluster(SmallClusterParams(3, wspec.num_tuples, 256));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kTwoPhase), spec, rel, opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  EXPECT_GT(run.metrics.Value("recovery.checkpoint_failures"), 0);
}

TEST_F(RecoveryMatrixTest, TornCheckpointIsDataLossNeverAWrongAnswer) {
  WorkloadSpec wspec;
  wspec.num_nodes = 3;
  wspec.num_tuples = 6'000;
  wspec.num_groups = 200;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));

  AlgorithmOptions opts;
  opts.gather_results = true;
  // Two Phase with cadence 3 and a crash at ~batch 4: node 1 writes
  // exactly one checkpoint (at scan batch 3 = tuple 384) before dying,
  // and that very first checkpoint append is torn (persisted
  // half-zeroed, reported as success). The replay must detect the
  // damage via CRC, count it as data loss, and fall back to a scratch
  // replay — never fold the damaged partials.
  ASSERT_OK_AND_ASSIGN(
      opts.fault_plan,
      FaultPlan::Parse("crash:node=1,tuple=400;torn-write:node=1,nth=0"));
  opts.failure.enabled = true;
  opts.failure.recv_idle_timeout_s = 2.0;
  opts.recovery.enabled = true;
  opts.recovery.checkpoint_every_batches = 3;

  Cluster cluster(SmallClusterParams(3, wspec.num_tuples, 256));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kTwoPhase), spec, rel, opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  EXPECT_GT(run.metrics.Value("recovery.checkpoint_data_loss"), 0);
}

TEST_F(RecoveryMatrixTest, RecoveryDisabledKeepsTheCleanAbortPath) {
  WorkloadSpec wspec;
  wspec.num_nodes = 3;
  wspec.num_tuples = 6'000;
  wspec.num_groups = 200;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));

  AlgorithmOptions opts;
  ASSERT_OK_AND_ASSIGN(opts.fault_plan,
                       FaultPlan::Parse("crash:node=1,tuple=500"));
  opts.failure.enabled = true;
  opts.failure.recv_idle_timeout_s = 2.0;
  // recovery.enabled stays false: the run must abort descriptively,
  // exactly as before the recovery subsystem existed.

  Cluster cluster(SmallClusterParams(3, wspec.num_tuples, 256));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), spec, rel, opts);
  ASSERT_FALSE(run.status.ok());
  EXPECT_NE(run.status.message().find("injected crash"),
            std::string::npos)
      << run.status.ToString();
  EXPECT_EQ(run.metrics.Value("recovery.attempts"), 0);
}

TEST_F(FaultMatrixTest, CrashNodeMidScanAbortsDescriptively) {
  WorkloadSpec wspec;
  wspec.num_nodes = 3;
  wspec.num_tuples = 6'000;
  wspec.num_groups = 200;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));

  AlgorithmOptions opts;
  ASSERT_OK_AND_ASSIGN(opts.fault_plan,
                       FaultPlan::Parse("crash:node=1,tuple=500"));
  opts.failure.enabled = true;
  opts.failure.recv_idle_timeout_s = 2.0;

  Cluster cluster(SmallClusterParams(3, wspec.num_tuples, 256));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), spec, rel, opts);
  ASSERT_FALSE(run.status.ok());
  EXPECT_NE(run.status.message().find("injected crash"),
            std::string::npos)
      << run.status.ToString();
  EXPECT_NE(run.status.message().find("node 1"), std::string::npos)
      << run.status.ToString();
  EXPECT_EQ(run.metrics.Value("fault.crashes_injected"), 1);
}

}  // namespace
}  // namespace adaptagg
