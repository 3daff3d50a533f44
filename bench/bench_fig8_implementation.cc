// Reproduces Figure 8: the implementation study. Eight shared-nothing
// nodes (threads + message channels standing in for the paper's
// SparcServer/PVM cluster), 2 million 100-byte tuples partitioned
// round-robin, messages blocked into 2 KB pages, 10 Mbit/s-class shared
// network. All five parallel algorithms, modeled completion time vs.
// grouping selectivity.
//
// ADAPTAGG_BENCH_SCALE scales the tuple count (and the hash-table bound
// with it) for quick runs; 1.0 = the paper's full workload.

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

Status Run() {
  const double scale = BenchScale();
  SystemParams params = SystemParams::Cluster8();
  params.num_tuples =
      static_cast<int64_t>(static_cast<double>(params.num_tuples) * scale);
  params.max_hash_entries = std::max<int64_t>(
      64, static_cast<int64_t>(
              static_cast<double>(params.max_hash_entries) * scale));

  PrintHeader("Figure 8",
              "Relative Performance of the Approaches (implementation)",
              params.ToString() + " scale=" + FmtSeconds(scale));

  std::vector<std::string> cols = {"S", "groups"};
  for (AlgorithmKind kind : Figure8Algorithms()) {
    cols.push_back(AlgorithmKindToString(kind) + "(s)");
  }
  cols.push_back("A-2P switched");
  TablePrinter table(cols);

  Cluster cluster(params);
  for (double s : SelectivitySweep(params.num_tuples)) {
    int64_t groups = std::max<int64_t>(
        1, static_cast<int64_t>(s * static_cast<double>(params.num_tuples)));
    WorkloadSpec wspec;
    wspec.num_nodes = params.num_nodes;
    wspec.num_tuples = params.num_tuples;
    wspec.num_groups = groups;
    wspec.seed = 8 + static_cast<uint64_t>(groups);
    auto rel = GenerateRelation(wspec);
    if (!rel.ok()) return rel.status();
    auto spec = MakeBenchQuery(&rel->schema());
    if (!spec.ok()) return spec.status();

    std::vector<std::string> row = {FmtSci(s), FmtInt(groups)};
    int a2p_switched = 0;
    AlgorithmOptions opts;
    opts.gather_results = false;
    for (AlgorithmKind kind : Figure8Algorithms()) {
      EngineRunOutcome out = RunEngine(cluster, kind, *spec, *rel, opts);
      row.push_back(out.ok ? FmtSeconds(out.sim_time_s) : "ERR");
      if (kind == AlgorithmKind::kAdaptiveTwoPhase) {
        a2p_switched = out.nodes_switched;
      }
    }
    row.push_back(FmtInt(a2p_switched));
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper Fig. 8, low-bandwidth cluster): 2P and the\n"
      "algorithms that behave like it win until the hash tables\n"
      "overflow; beyond that A-2P switches (column on the right) and\n"
      "tracks the better strategy; Rep pays the shared-network tax at\n"
      "low S but closes the gap at very high S.\n");
  return Status::OK();
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main() {
  return adaptagg::bench::BenchExitCode(adaptagg::bench::Run());
}
