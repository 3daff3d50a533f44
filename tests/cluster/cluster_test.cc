#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <cstring>

#include "cluster/exchange.h"
#include "cluster/run_assembly.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

/// A minimal algorithm: each node counts its local tuples and sends the
/// count to node 0 in a raw page; node 0 verifies the grand total.
class CountingAlgorithm : public Algorithm {
 public:
  std::string name() const override { return "counting"; }

  Status RunNode(NodeContext& ctx) const override {
    LocalScanner scan(&ctx);
    TupleBatch batch(&ctx.spec());
    int64_t local = 0;
    while (int n = scan.FillBatch(batch)) local += n;
    ADAPTAGG_RETURN_IF_ERROR(scan.status());

    Message m;
    m.type = MessageType::kRawPage;
    m.phase = 42;
    m.payload.resize(8);
    std::memcpy(m.payload.data(), &local, 8);
    ADAPTAGG_RETURN_IF_ERROR(ctx.Send(0, std::move(m)));

    if (ctx.node_id() == 0) {
      int64_t total = 0;
      for (int i = 0; i < ctx.num_nodes(); ++i) {
        ADAPTAGG_ASSIGN_OR_RETURN(Message got, ctx.RecvWithDeadline(30.0));
        int64_t v;
        std::memcpy(&v, got.payload.data(), 8);
        total += v;
      }
      if (total != ctx.local_partition()->num_tuples() * ctx.num_nodes()) {
        // Uniform round-robin load in this test: every node equal.
        return Status::Internal("bad total " + std::to_string(total));
      }
    }
    return Status::OK();
  }
};

/// Fails on one node to exercise error propagation.
class FailingAlgorithm : public Algorithm {
 public:
  std::string name() const override { return "failing"; }
  Status RunNode(NodeContext& ctx) const override {
    if (ctx.node_id() == 2) {
      return Status::Internal("injected failure");
    }
    return Status::OK();
  }
};

/// Each node emits node_id + 2 rows keyed 1000 * node_id + j straight
/// through the emit path, so the gathered order can be checked exactly.
class EmittingAlgorithm : public Algorithm {
 public:
  std::string name() const override { return "emitting"; }
  Status RunNode(NodeContext& ctx) const override {
    const AggregationSpec& spec = ctx.spec();
    std::vector<uint8_t> key(static_cast<size_t>(spec.key_width()), 0);
    std::vector<uint8_t> state(static_cast<size_t>(spec.state_width()));
    spec.InitState(state.data());
    for (int j = 0; j < ctx.node_id() + 2; ++j) {
      const int64_t g = 1000 * ctx.node_id() + j;
      std::memcpy(key.data(), &g, sizeof(g));
      ADAPTAGG_RETURN_IF_ERROR(ctx.EmitFinalRow(key.data(), state.data()));
    }
    return ctx.FinishResults();
  }
};

TEST(Cluster, GatheredRowsAreTheNodeOrderConcatenation) {
  WorkloadSpec wspec;
  wspec.num_nodes = 4;
  wspec.num_tuples = 400;
  wspec.num_groups = 10;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  Cluster cluster(SmallClusterParams(4, 400));
  RunResult run = cluster.Run(EmittingAlgorithm(), spec, rel);
  ASSERT_OK(run.status);
  std::vector<int64_t> want;
  for (int node = 0; node < 4; ++node) {
    for (int j = 0; j < node + 2; ++j) want.push_back(1000 * node + j);
  }
  std::vector<int64_t> got;
  for (const auto& row : run.results.rows) {
    int64_t g;
    std::memcpy(&g, row.data(), sizeof(g));
    got.push_back(g);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(run.results.num_rows(), run.total_result_rows());
}

TEST(Cluster, GatheredRowsMatchNodeStatsOnSpillingRuns) {
  // A table bound far below the group count: every algorithm overflows
  // its memory and emits what it spilled.
  WorkloadSpec wspec;
  wspec.num_nodes = 4;
  wspec.num_tuples = 20'000;
  wspec.num_groups = 3'000;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));
  Cluster cluster(SmallClusterParams(4, 20'000, /*max_hash_entries=*/64));
  for (AlgorithmKind kind : AllAlgorithms()) {
    SCOPED_TRACE(AlgorithmKindToString(kind));
    RunResult run = cluster.Run(*MakeAlgorithm(kind), spec, rel);
    ASSERT_OK(run.status);
    // Sort-2P overflows into sort runs, which SpillStats does not count.
    if (kind != AlgorithmKind::kSortTwoPhase) {
      EXPECT_GT(run.total_spilled_records(), 0);
    }
    EXPECT_EQ(run.results.num_rows(), run.total_result_rows());
    EXPECT_EQ(run.results.num_rows(), expected.num_rows());
    EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  }
}

TEST(Cluster, RunsCustomAlgorithm) {
  WorkloadSpec wspec;
  wspec.num_nodes = 4;
  wspec.num_tuples = 4'000;
  wspec.num_groups = 10;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  Cluster cluster(SmallClusterParams(4, 4'000));
  RunResult run = cluster.Run(CountingAlgorithm(), spec, rel);
  ASSERT_OK(run.status);
  for (const auto& s : run.node_stats) {
    EXPECT_EQ(s.tuples_scanned, 1'000);
  }
  EXPECT_GT(run.wall_time_s, 0);
}

TEST(Cluster, NodeErrorsPropagateWithNodeId) {
  WorkloadSpec wspec;
  wspec.num_nodes = 4;
  wspec.num_tuples = 100;
  wspec.num_groups = 5;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeBenchQuery(&rel.schema()));
  Cluster cluster(SmallClusterParams(4, 100));
  RunResult run = cluster.Run(FailingAlgorithm(), spec, rel);
  EXPECT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kInternal);
  EXPECT_NE(run.status.message().find("node 2"), std::string::npos);
}

TEST(NodeContext, StashReordersAheadOfNetwork) {
  auto mesh = MakeInprocMesh(1);
  SystemParams params = SmallClusterParams(1, 10);
  NetworkModel net(params);
  Schema schema = MakeBenchSchema(32);
  auto spec = MakeBenchQuery(&schema);
  ASSERT_TRUE(spec.ok());
  AlgorithmOptions opts;
  NodeContext ctx(0, params, *spec, opts, nullptr, nullptr, mesh[0].get(),
                  &net);

  Message net_msg;
  net_msg.type = MessageType::kRawPage;
  ASSERT_OK(ctx.Send(0, net_msg));

  Message stashed;
  stashed.type = MessageType::kControl;
  ctx.Stash(std::move(stashed));

  auto first = ctx.RecvWithDeadline(5.0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, MessageType::kControl);
  auto second = ctx.RecvWithDeadline(5.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, MessageType::kRawPage);
}

TEST(NodeContext, ResolvedDefaultsFollowParams) {
  auto mesh = MakeInprocMesh(1);
  SystemParams params = SmallClusterParams(4, 10, /*M=*/777);
  params.num_nodes = 1;
  NetworkModel net(params);
  Schema schema = MakeBenchSchema(32);
  auto spec = MakeBenchQuery(&schema);
  ASSERT_TRUE(spec.ok());
  AlgorithmOptions opts;
  NodeContext ctx(0, params, *spec, opts, nullptr, nullptr, mesh[0].get(),
                  &net);
  EXPECT_EQ(ctx.max_hash_entries(), 777);
  EXPECT_EQ(ctx.crossover_threshold(), 100);  // 100 * N, N = 1
  EXPECT_EQ(ctx.few_groups_threshold(), 100);

  AlgorithmOptions custom;
  custom.max_hash_entries = 5;
  custom.crossover_threshold = 9;
  custom.few_groups_threshold = 3;
  NodeContext ctx2(0, params, *spec, custom, nullptr, nullptr,
                   mesh[0].get(), &net);
  EXPECT_EQ(ctx2.max_hash_entries(), 5);
  EXPECT_EQ(ctx2.crossover_threshold(), 9);
  EXPECT_EQ(ctx2.few_groups_threshold(), 3);
}

TEST(LocalScanner, WhereFillsBatchesWithSurvivorsInScanOrder) {
  constexpr int64_t kTuples = 1'000;
  constexpr int64_t kSurvivors = kTuples - kTuples / 3;
  auto mesh = MakeInprocMesh(1);
  SystemParams params = SmallClusterParams(1, kTuples);
  NetworkModel net(params);
  Schema schema = MakeBenchSchema(32);
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec, MakeBenchQuery(&schema));
  // Small pages, so page runs and batches cut each other at many points.
  SimDisk disk(512);
  ASSERT_OK_AND_ASSIGN(HeapFile file, HeapFile::Create(&disk, &schema, "r"));
  TupleBuffer t(&schema);
  for (int64_t i = 0; i < kTuples; ++i) {
    t.SetInt64(kBenchGroupCol, i);
    t.SetInt64(kBenchValueCol, i % 3);
    ASSERT_OK(file.Append(t.view()));
  }
  ASSERT_OK(file.Flush());
  AlgorithmOptions opts;
  opts.where = Ne(Col(kBenchValueCol), Lit(int64_t{2}));  // every third
  ASSERT_OK(ValidateRunOptions(spec, opts));

  // The per-tuple filtered sequence, projected.
  const size_t width = static_cast<size_t>(spec.projected_width());
  std::vector<uint8_t> want;
  std::vector<uint8_t> rec(width);
  HeapFileScanner tuples(&file);
  for (TupleView v = tuples.Next(); v.valid(); v = tuples.Next()) {
    if (!EvalPredicate(*opts.where, v)) continue;
    spec.ProjectRaw(v, rec.data());
    want.insert(want.end(), rec.begin(), rec.end());
  }
  ASSERT_EQ(want.size(), static_cast<size_t>(kSurvivors) * width);

  NodeContext ctx(0, params, spec, opts, &file, &disk, mesh[0].get(), &net);
  LocalScanner scan(&ctx);
  TupleBatch batch(&spec);
  std::vector<int> sizes;
  std::vector<uint8_t> got;
  while (int n = scan.FillBatch(batch)) {
    sizes.push_back(n);
    got.insert(got.end(), batch.record(0), batch.record(0) + n * width);
  }
  ASSERT_OK(scan.status());
  ASSERT_EQ(sizes.size(), static_cast<size_t>(kSurvivors / kBatchWidth + 1));
  for (size_t b = 0; b + 1 < sizes.size(); ++b) {
    EXPECT_EQ(sizes[b], kBatchWidth) << "batch " << b;
  }
  EXPECT_EQ(sizes.back(), kSurvivors % kBatchWidth);
  EXPECT_EQ(got, want);
  EXPECT_EQ(ctx.stats().tuples_scanned, kSurvivors);
}

}  // namespace
}  // namespace adaptagg
