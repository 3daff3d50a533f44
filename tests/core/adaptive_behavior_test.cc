#include <gtest/gtest.h>

#include <array>
#include <chrono>

#include "common/mutex.h"
#include "core/phases.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

struct Fixture {
  PartitionedRelation rel;
  AggregationSpec spec;
};

Result<Fixture> MakeFixture(int nodes, int64_t tuples, int64_t groups) {
  WorkloadSpec wspec;
  wspec.num_nodes = nodes;
  wspec.num_tuples = tuples;
  wspec.num_groups = groups;
  ADAPTAGG_ASSIGN_OR_RETURN(PartitionedRelation rel,
                            GenerateRelation(wspec));
  ADAPTAGG_ASSIGN_OR_RETURN(AggregationSpec spec,
                            MakeBenchQuery(&rel.schema()));
  return Fixture{std::move(rel), std::move(spec)};
}

// --------------------------------------------------------------------------
// Adaptive Two Phase (§3.2): the switch must fire exactly when the local
// group count exceeds the table bound M.

TEST(AdaptiveTwoPhase, NoSwitchWhenGroupsFit) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 8'000, 100));
  Cluster cluster(SmallClusterParams(4, 8'000, /*M=*/512));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), f.spec, f.rel);
  ASSERT_OK(run.status);
  EXPECT_EQ(run.nodes_switched(), 0);
  int64_t raw = 0;
  for (const auto& s : run.node_stats) raw += s.raw_records_sent;
  EXPECT_EQ(raw, 0) << "no raw repartitioning when 2P suffices";
}

TEST(AdaptiveTwoPhase, AllNodesSwitchWhenGroupsOverflow) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 8'000, 4'000));
  Cluster cluster(SmallClusterParams(4, 8'000, /*M=*/128));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), f.spec, f.rel);
  ASSERT_OK(run.status);
  EXPECT_EQ(run.nodes_switched(), 4);
  for (const auto& s : run.node_stats) {
    // The switch happens once the table holds M groups — i.e. after at
    // least M tuples and well before the end of the partition.
    EXPECT_GE(s.switch_at_tuple, 128);
    EXPECT_LT(s.switch_at_tuple, 8'000 / 4);
    EXPECT_GT(s.raw_records_sent, 0);
    // Exactly M partials were flushed at switch time.
    EXPECT_EQ(s.partial_records_sent, 128);
  }
}

TEST(AdaptiveTwoPhase, SwitchPointRespectsAblationKnob) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 4'000, 2'000));
  SystemParams params = SmallClusterParams(2, 4'000, /*M=*/1'000);
  Cluster cluster(params);
  AlgorithmOptions half;
  half.switch_fill_fraction = 0.25;
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), f.spec, f.rel, half);
  ASSERT_OK(run.status);
  for (const auto& s : run.node_stats) {
    EXPECT_TRUE(s.switched);
    EXPECT_EQ(s.partial_records_sent, 250);  // M * 0.25
  }
}

TEST(AdaptiveTwoPhase, LocalTableNeverSpillsLocally) {
  // A-2P's point is to avoid local intermediate I/O entirely: local
  // overflow turns into repartitioning, so only the *global* phase may
  // spill. With M large enough globally (G/N < M), no spill at all.
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 8'000, 1'600));
  Cluster cluster(SmallClusterParams(4, 8'000, /*M=*/512));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), f.spec, f.rel);
  ASSERT_OK(run.status);
  EXPECT_EQ(run.nodes_switched(), 4);  // 1600 local groups > 512
  // G/N = 400 < 512: global tables fit, so nothing spilled anywhere.
  EXPECT_EQ(run.total_spilled_records(), 0);
}

// --------------------------------------------------------------------------
// Adaptive Repartitioning (§3.3).

TEST(AdaptiveRepartitioning, SticksWithRepartitioningWhenGroupsAreMany) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 12'000, 6'000));
  SystemParams params = SmallClusterParams(4, 12'000, 512);
  Cluster cluster(params);
  AlgorithmOptions opts;
  opts.init_seg = 1'000;
  opts.few_groups_threshold = 400;
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveRepartitioning), f.spec,
      f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_EQ(run.nodes_switched(), 0);
  int64_t raw = 0, partial = 0;
  for (const auto& s : run.node_stats) {
    raw += s.raw_records_sent;
    partial += s.partial_records_sent;
  }
  EXPECT_EQ(raw, 12'000);
  EXPECT_EQ(partial, 0);
}

TEST(AdaptiveRepartitioning, SwitchesToTwoPhaseWhenGroupsAreFew) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 12'000, 20));
  SystemParams params = SmallClusterParams(4, 12'000, 512);
  Cluster cluster(params);
  AlgorithmOptions opts;
  opts.init_seg = 1'000;
  opts.few_groups_threshold = 400;
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveRepartitioning), f.spec,
      f.rel, opts);
  ASSERT_OK(run.status);
  // Every node sees only 20 groups in its first 1000 tuples -> all
  // switch.
  EXPECT_EQ(run.nodes_switched(), 4);
  for (const auto& s : run.node_stats) {
    // Only the initial segment went out raw.
    EXPECT_LE(s.raw_records_sent, opts.init_seg + kPollInterval);
    EXPECT_GT(s.partial_records_sent, 0);
  }
}

/// Per-follower latch that opens once node 0 has sent that follower its
/// end-of-phase message.
class EndOfPhaseGate {
 public:
  void Open(int node) ADAPTAGG_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    open_[static_cast<size_t>(node)] = true;
    cv_.NotifyAll();
  }

  /// Blocks until `node`'s latch opens, for at most 30 s so a regression
  /// that never sends end-of-phase fails the test instead of hanging it.
  void AwaitOpen(int node) ADAPTAGG_EXCLUDES(mu_) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    MutexLock lock(&mu_);
    while (!open_[static_cast<size_t>(node)]) {
      if (!cv_.WaitUntil(mu_, deadline)) return;
    }
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::array<bool, 4> open_ ADAPTAGG_GUARDED_BY(mu_) = {};
};

/// Holds a follower's first inbox poll until node 0's end-of-phase is in
/// that inbox, so the message always lands mid-scan. Sends never block
/// on a receiver, so node 0 reaches its own decision unhindered.
class GatedTransport : public Transport {
 public:
  GatedTransport(std::unique_ptr<Transport> inner, EndOfPhaseGate* gate)
      : inner_(std::move(inner)), gate_(gate) {}

  int node_id() const override { return inner_->node_id(); }
  int num_nodes() const override { return inner_->num_nodes(); }
  Status Send(int to, Message msg) override {
    const bool eop =
        node_id() == 0 && msg.type == MessageType::kEndOfPhase;
    Status st = inner_->Send(to, std::move(msg));
    if (eop) gate_->Open(to);
    return st;
  }
  Result<Message> Recv() override {
    AwaitGate();
    return inner_->Recv();
  }
  Result<Message> RecvWithDeadline(double timeout_s) override {
    AwaitGate();
    return inner_->RecvWithDeadline(timeout_s);
  }
  std::optional<Message> TryRecv() override {
    AwaitGate();
    return inner_->TryRecv();
  }
  size_t inbox_high_water() const override {
    return inner_->inbox_high_water();
  }

 private:
  void AwaitGate() {
    if (node_id() == 0 || passed_) return;
    gate_->AwaitOpen(node_id());
    passed_ = true;
  }

  std::unique_ptr<Transport> inner_;
  EndOfPhaseGate* gate_;
  bool passed_ = false;
};

TEST(AdaptiveRepartitioning, EndOfPhasePropagatesAcrossNodes) {
  // Give only node 0 few groups locally (the others would not switch on
  // their own within init_seg); node 0's end-of-phase must pull the
  // others out of repartitioning too (§3.3 "follow suit").
  Schema schema = MakeBenchSchema(100);
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       PartitionedRelation::Create(schema, 4));
  Prng prng(5);
  TupleBuffer t(&schema);
  const int64_t per_node = 4'000;
  for (int node = 0; node < 4; ++node) {
    for (int64_t i = 0; i < per_node; ++i) {
      // Node 0: a single group. Others: thousands of groups.
      uint64_t g = node == 0 ? 0 : 10 + prng.NextBelow(3'000);
      t.SetInt64(kBenchGroupCol, static_cast<int64_t>(g));
      t.SetInt64(kBenchValueCol, static_cast<int64_t>(g % 97));
      ASSERT_OK(rel.Append(node, t.view()));
    }
  }
  ASSERT_OK(rel.Flush());
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec, MakeBenchQuery(&rel.schema()));

  SystemParams params = SmallClusterParams(4, 4 * per_node, 8'000);
  Cluster cluster(params);
  // Unsynchronized, a follower could scan all of its input before node 0
  // reaches its decision; the gate pins the message inside the scan.
  EndOfPhaseGate gate;
  cluster.set_transport_factory(
      [&gate](int n) -> Result<std::vector<std::unique_ptr<Transport>>> {
        std::vector<std::unique_ptr<Transport>> mesh = MakeInprocMesh(n);
        for (auto& t : mesh) {
          t = std::make_unique<GatedTransport>(std::move(t), &gate);
        }
        return mesh;
      });
  AlgorithmOptions opts;
  opts.init_seg = 500;
  opts.few_groups_threshold = 100;
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveRepartitioning), spec, rel,
      opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(run.node_stats[0].switched);
  // At least one other node must have followed suit via the message (it
  // cannot have decided locally: it sees ~500 distinct groups in 500
  // tuples, far above the threshold of 100).
  int followers = 0;
  for (int i = 1; i < 4; ++i) {
    if (run.node_stats[i].switched) ++followers;
  }
  EXPECT_GE(followers, 1);
  // Correctness under the mixed-mode execution.
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
}

TEST(AdaptiveRepartitioning, DoubleSwitchWhenDecisionWasWrong) {
  // A-Rep composes both adaptive behaviors (§3.3): a node that switches
  // to local aggregation but then overflows its table flushes partials
  // and returns to repartitioning. Provoke it: few distinct groups in
  // the first init_seg tuples, many afterwards.
  Schema schema = MakeBenchSchema(100);
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       PartitionedRelation::Create(schema, 2));
  Prng prng(99);
  TupleBuffer t(&schema);
  const int64_t per_node = 6'000;
  for (int node = 0; node < 2; ++node) {
    for (int64_t i = 0; i < per_node; ++i) {
      // First third: 5 groups. Rest: thousands.
      uint64_t g = i < per_node / 3 ? i % 5 : 100 + prng.NextBelow(3'000);
      t.SetInt64(kBenchGroupCol, static_cast<int64_t>(g));
      t.SetInt64(kBenchValueCol, static_cast<int64_t>(g % 101));
      ASSERT_OK(rel.Append(node, t.view()));
    }
  }
  ASSERT_OK(rel.Flush());
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec, MakeBenchQuery(&rel.schema()));

  SystemParams params = SmallClusterParams(2, 2 * per_node, /*M=*/64);
  Cluster cluster(params);
  AlgorithmOptions opts;
  opts.init_seg = 500;
  opts.few_groups_threshold = 50;
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveRepartitioning), spec, rel,
      opts);
  ASSERT_OK(run.status);
  for (const auto& s : run.node_stats) {
    EXPECT_TRUE(s.switched);  // switched to local aggregation first...
    // ...then the 3000-group tail overflowed M=64 and went raw again:
    // raw records well beyond the init segment alone.
    EXPECT_GT(s.raw_records_sent, opts.init_seg + 1'000);
    EXPECT_GT(s.partial_records_sent, 0);
  }
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
}

// --------------------------------------------------------------------------
// Graefe's optimized Two Phase.

TEST(GraefeTwoPhase, ForwardsRawOnOverflowAndKeepsTable) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 8'000, 4'000));
  Cluster cluster(SmallClusterParams(4, 8'000, /*M=*/128));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kGraefeTwoPhase), f.spec, f.rel);
  ASSERT_OK(run.status);
  for (const auto& s : run.node_stats) {
    EXPECT_TRUE(s.switched);
    EXPECT_GT(s.raw_records_sent, 0);
    // Table kept until the end: exactly M partials emitted afterwards.
    EXPECT_EQ(s.partial_records_sent, 128);
  }
}

TEST(GraefeTwoPhase, MoreTrafficThanAdaptiveTwoPhase) {
  // §3.2's argument 2: Graefe's optimization still routes the *hits* of
  // late tuples through the local table but misses go raw; every raw
  // record that finds no entry at the destination cost a message for
  // nothing. A-2P sends raw records too, but frees memory and avoids the
  // double pass. At minimum, the two should produce identical results
  // while Graefe's local tables hold memory the whole time.
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 8'000, 4'000));
  Cluster cluster(SmallClusterParams(4, 8'000, /*M=*/128));
  RunResult graefe = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kGraefeTwoPhase), f.spec, f.rel);
  RunResult a2p = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), f.spec, f.rel);
  ASSERT_OK(graefe.status);
  ASSERT_OK(a2p.status);
  EXPECT_TRUE(ResultSetsEqual(graefe.results, a2p.results));
}

}  // namespace
}  // namespace adaptagg
