#include <gtest/gtest.h>

#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

// Exact accounting: on a tiny, fully-deterministic workload the engine's
// charged costs must equal the paper's §2 formulas to the last
// microsecond. 2 nodes, 100 tuples/node (3 pages of 40+40+20), exactly
// 4 groups (sequential distribution), M large (no spill anywhere),
// high-bandwidth network.

constexpr int kNodes = 2;
constexpr int64_t kTuplesPerNode = 100;
constexpr int64_t kTuples = kNodes * kTuplesPerNode;
constexpr int64_t kGroups = 4;
constexpr int64_t kPagesPerNode = 3;  // ceil(100 / 40) with 100B tuples
// Sequential groups (i % 4) over round-robin placement (i % 2) means
// node 0 holds exactly groups {0, 2} and node 1 {1, 3}.
constexpr int64_t kLocalGroupsPerNode = 2;

struct Fixture {
  PartitionedRelation rel;
  AggregationSpec spec;
};

Result<Fixture> MakeFixture() {
  WorkloadSpec wspec;
  wspec.num_nodes = kNodes;
  wspec.num_tuples = kTuples;
  wspec.num_groups = kGroups;
  wspec.distribution = GroupDistribution::kSequential;
  ADAPTAGG_ASSIGN_OR_RETURN(PartitionedRelation rel,
                            GenerateRelation(wspec));
  ADAPTAGG_ASSIGN_OR_RETURN(AggregationSpec spec,
                            MakeBenchQuery(&rel.schema()));
  return Fixture{std::move(rel), std::move(spec)};
}

double TotalCpu(const RunResult& run) {
  double s = 0;
  for (const auto& c : run.clocks) s += c.cpu_s();
  return s;
}
double TotalIo(const RunResult& run) {
  double s = 0;
  for (const auto& c : run.clocks) s += c.io_s();
  return s;
}
double TotalNet(const RunResult& run) {
  double s = 0;
  for (const auto& c : run.clocks) s += c.net_s();
  return s;
}

TEST(CostAccounting, RepartitioningMatchesPaperFormulas) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture());
  SystemParams p = SmallClusterParams(kNodes, kTuples, /*M=*/10'000);
  Cluster cluster(p);
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kRepartitioning), f.spec, f.rel);
  ASSERT_OK(run.status);

  // --- CPU ---
  // select: |R|(t_r + t_w); route: |R|(t_h + t_d);
  // merge on receipt: |R|(t_r + t_a); result generation: G * t_w.
  double expected_cpu = kTuples * (p.t_r() + p.t_w()) +
                        kTuples * (p.t_h() + p.t_d()) +
                        kTuples * (p.t_r() + p.t_a()) +
                        kGroups * p.t_w();
  EXPECT_NEAR(TotalCpu(run), expected_cpu, 1e-12);

  // --- I/O ---
  // Scan: 3 sequential pages per node; store: one result page per node
  // that owns at least one group.
  int nodes_with_rows = 0;
  int64_t raw_sent = 0, raw_received = 0;
  for (const auto& s : run.node_stats) {
    if (s.result_rows > 0) ++nodes_with_rows;
    raw_sent += s.raw_records_sent;
    raw_received += s.raw_records_received;
  }
  EXPECT_EQ(raw_sent, kTuples);
  EXPECT_EQ(raw_received, kTuples);
  double expected_io =
      (kNodes * kPagesPerNode + nodes_with_rows) * p.io_seq_s;
  EXPECT_NEAR(TotalIo(run), expected_io, 1e-12);

  // --- network ---
  // Every data message carries one 2 KB page = 0.5 model pages: sender
  // pays 0.5(m_p + m_l) (high bandwidth), receiver pays 0.5 m_p. EOS
  // messages are free. Each node broadcasts EOS to both nodes.
  int64_t total_msgs = 0;
  for (const auto& s : run.node_stats) total_msgs += s.messages_sent;
  int64_t data_msgs = total_msgs - kNodes * kNodes;  // minus EOS
  EXPECT_GT(data_msgs, 0);
  double expected_net =
      data_msgs * 0.5 * (p.m_p() + p.m_l())  // send side
      + data_msgs * 0.5 * p.m_p();           // receive side
  EXPECT_NEAR(TotalNet(run), expected_net, 1e-12);
}

TEST(CostAccounting, TwoPhaseMatchesPaperFormulas) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture());
  SystemParams p = SmallClusterParams(kNodes, kTuples, /*M=*/10'000);
  Cluster cluster(p);
  RunResult run =
      cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase), f.spec, f.rel);
  ASSERT_OK(run.status);

  // Each node sees all 4 groups locally (sequential distribution), so
  // partials total N * G.
  int64_t partials_sent = 0, partials_received = 0;
  for (const auto& s : run.node_stats) {
    partials_sent += s.partial_records_sent;
    partials_received += s.partial_records_received;
  }
  EXPECT_EQ(partials_sent, kNodes * kLocalGroupsPerNode);
  EXPECT_EQ(partials_received, kNodes * kLocalGroupsPerNode);

  // select |R|(t_r+t_w); local agg |R|(t_r+t_h+t_a); partial
  // generation and merge on the per-node local group counts; final
  // G*t_w.
  const int64_t partials = kNodes * kLocalGroupsPerNode;
  double expected_cpu = kTuples * (p.t_r() + p.t_w()) +
                        kTuples * (p.t_r() + p.t_h() + p.t_a()) +
                        partials * p.t_w() +
                        partials * (p.t_r() + p.t_a()) +
                        kGroups * p.t_w();
  EXPECT_NEAR(TotalCpu(run), expected_cpu, 1e-12);

  int nodes_with_rows = 0;
  for (const auto& s : run.node_stats) {
    if (s.result_rows > 0) ++nodes_with_rows;
  }
  double expected_io =
      (kNodes * kPagesPerNode + nodes_with_rows) * p.io_seq_s;
  EXPECT_NEAR(TotalIo(run), expected_io, 1e-12);
}

TEST(CostAccounting, HavingEvaluationChargesReadPerGroup) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture());
  SystemParams p = SmallClusterParams(kNodes, kTuples, /*M=*/10'000);
  Cluster cluster(p);
  AlgorithmOptions opts;
  // cnt >= 0 keeps everything but still costs one t_r per group.
  opts.having = Ge(ColNamed("cnt"), Lit(int64_t{0}));
  RunResult with = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                               f.spec, f.rel, opts);
  RunResult without =
      cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase), f.spec, f.rel);
  ASSERT_OK(with.status);
  ASSERT_OK(without.status);
  EXPECT_NEAR(TotalCpu(with) - TotalCpu(without), kGroups * p.t_r(),
              1e-12);
}

TEST(CostAccounting, WhereEvaluationChargesReadPerScannedTuple) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture());
  SystemParams p = SmallClusterParams(kNodes, kTuples, /*M=*/10'000);
  Cluster cluster(p);
  AlgorithmOptions opts;
  // g >= 0 keeps every tuple but still costs one t_r per scanned tuple.
  opts.where = Ge(ColNamed("g"), Lit(int64_t{0}));
  RunResult with = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                               f.spec, f.rel, opts);
  RunResult without =
      cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase), f.spec, f.rel);
  ASSERT_OK(with.status);
  ASSERT_OK(without.status);
  EXPECT_NEAR(TotalCpu(with) - TotalCpu(without), kTuples * p.t_r(), 1e-12);
}

}  // namespace
}  // namespace adaptagg
