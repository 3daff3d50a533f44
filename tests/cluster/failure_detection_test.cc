#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>

#include "cluster/cluster.h"
#include "net/fault.h"
#include "net/transport.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

/// Regression shape for the pre-detector deadlock: every node enters the
/// merge phase expecting a message from node 1, but node 1 returns
/// without sending anything. Before failure detection this wedged the
/// run forever inside a blocking receive; now the wait must abort with
/// a status naming the silent peer and the stuck phase.
class SilentPeerAlgorithm : public Algorithm {
 public:
  std::string name() const override { return "silent-peer"; }

  Status RunNode(NodeContext& ctx) const override {
    ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("merge"));
    if (ctx.node_id() == 1) {
      return Status::OK();  // exits without the message peers expect
    }
    ADAPTAGG_ASSIGN_OR_RETURN(
        Message msg, ctx.AwaitMessage([](int p) { return p == 1; }));
    if (msg.type == MessageType::kAbort) {
      return Status::Internal("aborted by peer node " +
                              std::to_string(msg.from));
    }
    return Status::Internal("unexpected message");
  }
};

TEST(FailureDetection, SilentPeerDetectedInsteadOfDeadlock) {
  WorkloadSpec wspec;
  wspec.num_nodes = 3;
  wspec.num_tuples = 300;
  wspec.num_groups = 10;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));

  AlgorithmOptions opts;
  opts.failure.enabled = true;
  opts.failure.recv_idle_timeout_s = 1.0;

  Cluster cluster(SmallClusterParams(3, wspec.num_tuples));
  const auto start = std::chrono::steady_clock::now();
  RunResult run = cluster.Run(SilentPeerAlgorithm(), spec, rel, opts);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kDeadlineExceeded)
      << run.status.ToString();
  // The diagnostic names the silent peer and the phase that was stuck.
  EXPECT_NE(run.status.message().find("node 1"), std::string::npos)
      << run.status.ToString();
  EXPECT_NE(run.status.message().find("merge"), std::string::npos)
      << run.status.ToString();
  // Detection, not a hang: well inside the 1s timeout plus slack.
  EXPECT_LT(elapsed, 20.0);
}

TEST(FailureDetection, StragglerSurvivesWithHeartbeats) {
  WorkloadSpec wspec;
  wspec.num_nodes = 4;
  wspec.num_tuples = 4'000;
  wspec.num_groups = 50;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));

  // Node 2 sleeps 0.3s at every poll site while the detector's idle
  // timeout is 1s: the straggler must be kept alive by heartbeats, and
  // the run must still produce correct results.
  AlgorithmOptions opts;
  ASSERT_OK_AND_ASSIGN(opts.fault_plan,
                       FaultPlan::Parse("straggle:node=2,factor=300"));
  opts.failure.enabled = true;
  opts.failure.recv_idle_timeout_s = 1.0;

  Cluster cluster(SmallClusterParams(4, wspec.num_tuples));
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                              spec, rel, opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  EXPECT_GT(run.metrics.Value("fault.straggle_sleeps"), 0);
  EXPECT_GT(run.metrics.Value("fault.heartbeats_sent"), 0);
}

/// Records each node's failure-detection arming state from inside a run.
class ArmingProbeAlgorithm : public Algorithm {
 public:
  ArmingProbeAlgorithm(std::atomic<bool>* armed,
                       std::atomic<double>* timeout)
      : armed_(armed), timeout_(timeout) {}

  std::string name() const override { return "arming-probe"; }

  Status RunNode(NodeContext& ctx) const override {
    if (ctx.node_id() == 0) {
      armed_->store(ctx.failure_detection_armed());
      timeout_->store(ctx.recv_idle_timeout_s());
    }
    return Status::OK();
  }

 private:
  std::atomic<bool>* armed_;
  std::atomic<double>* timeout_;
};

TEST(FailureDetection, UnarmedByDefaultArmedByPlanOrFlag) {
  WorkloadSpec wspec;
  wspec.num_nodes = 2;
  wspec.num_tuples = 100;
  wspec.num_groups = 5;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  Cluster cluster(SmallClusterParams(2, wspec.num_tuples));

  std::atomic<bool> armed{false};
  std::atomic<double> timeout{0};
  ArmingProbeAlgorithm probe(&armed, &timeout);

  // Default options: unarmed, with a generous derived idle deadline so
  // fault-free runs behave exactly as before this subsystem existed.
  ASSERT_OK(cluster.Run(probe, spec, rel).status);
  EXPECT_FALSE(armed.load());
  EXPECT_GE(timeout.load(), 60.0);

  // failure.enabled arms detection and tightens the deadline.
  AlgorithmOptions enabled;
  enabled.failure.enabled = true;
  enabled.failure.recv_idle_timeout_s = 7.0;
  ASSERT_OK(cluster.Run(probe, spec, rel, enabled).status);
  EXPECT_TRUE(armed.load());
  EXPECT_DOUBLE_EQ(timeout.load(), 7.0);

  // A non-empty fault plan arms detection on its own.
  AlgorithmOptions with_plan;
  ASSERT_OK_AND_ASSIGN(with_plan.fault_plan,
                       FaultPlan::Parse("delay:from=0,to=1,secs=0.001"));
  ASSERT_OK(cluster.Run(probe, spec, rel, with_plan).status);
  EXPECT_TRUE(armed.load());
}

// A crashed node's endpoint closes, and its peers must abort (or replay)
// the moment they see the close. The 30 s idle deadline means the old
// silence-only path could not finish in under 30 s; the 5 s bound leaves
// room for a slow sanitizer host while still proving the close was seen.
TEST(FailureDetection, CrashedPeerDetectedAtTransportSpeed) {
  WorkloadSpec wspec;
  wspec.num_nodes = 3;
  wspec.num_tuples = 6'000;
  wspec.num_groups = 200;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));

  int port = 44200;
  for (bool tcp : {false, true}) {
    for (bool recovery : {false, true}) {
      SCOPED_TRACE(std::string(tcp ? "tcp" : "inproc") +
                   (recovery ? "/recovery" : "/abort"));
      Cluster cluster(SmallClusterParams(3, wspec.num_tuples, 256));
      if (tcp) {
        // A replay builds a fresh mesh; give each its own port block.
        cluster.set_transport_factory([&port](int n) {
          const int at = port;
          port += 10;
          return MakeTcpMesh(n, at);
        });
      }
      AlgorithmOptions opts;
      ASSERT_OK_AND_ASSIGN(opts.fault_plan,
                           FaultPlan::Parse("crash:node=1,tuple=500"));
      opts.failure.enabled = true;
      opts.failure.recv_idle_timeout_s = 30.0;
      opts.recovery.enabled = recovery;

      const auto start = std::chrono::steady_clock::now();
      RunResult run = cluster.Run(
          *MakeAlgorithm(AlgorithmKind::kRepartitioning), spec, rel, opts);
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();

      if (recovery) {
        ASSERT_OK(run.status);
        EXPECT_TRUE(ResultSetsEqual(run.results, expected));
      } else {
        ASSERT_FALSE(run.status.ok());
        // The root cause is still the crash itself, not its detection.
        EXPECT_NE(run.status.message().find("node 1"), std::string::npos)
            << run.status.ToString();
        EXPECT_NE(run.status.message().find("injected crash"),
                  std::string::npos)
            << run.status.ToString();
        EXPECT_GE(run.metrics.Value("fault.peer_closed"), 1);
        EXPECT_EQ(run.metrics.Value("fault.deadline_aborts"), 0);
      }
      EXPECT_LT(elapsed, 5.0);
    }
  }
}

}  // namespace
}  // namespace adaptagg
