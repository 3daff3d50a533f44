// §6.1 companion experiment: input skew. One node holds `factor` times
// the tuples of the others; the skewed node's extra scan I/O and
// processing bound the completion time for every algorithm (the paper's
// qualitative discussion — there is no corresponding figure, so this
// bench documents the claimed behavior on the engine).

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

Status Run() {
  const double scale = BenchScale();
  SystemParams params = SystemParams::Cluster8();
  params.num_tuples = static_cast<int64_t>(500'000 * scale);
  params.max_hash_entries =
      std::max<int64_t>(64, static_cast<int64_t>(2'500 * scale));

  PrintHeader("Input skew (§6.1)",
              "modeled time vs input skew factor, one skewed node",
              params.ToString() + " scale=" + FmtSeconds(scale));

  for (int64_t groups :
       {static_cast<int64_t>(100), params.num_tuples / 8}) {
    std::printf("--- groups = %lld (%s selectivity) ---\n",
                static_cast<long long>(groups),
                groups <= 1'000 ? "low" : "high");
    std::vector<std::string> cols = {"factor"};
    for (AlgorithmKind kind : Figure8Algorithms()) {
      cols.push_back(AlgorithmKindToString(kind) + "(s)");
    }
    TablePrinter table(cols);
    Cluster cluster(params);
    for (double factor : {1.0, 2.0, 4.0, 8.0}) {
      WorkloadSpec wspec;
      wspec.num_nodes = params.num_nodes;
      wspec.num_tuples = params.num_tuples;
      wspec.num_groups = groups;
      wspec.input_skew_factor = factor;
      wspec.input_skew_nodes = 1;
      wspec.seed = 61;
      auto rel = GenerateRelation(wspec);
      if (!rel.ok()) return rel.status();
      auto spec = MakeBenchQuery(&rel->schema());
      if (!spec.ok()) return spec.status();
      std::vector<std::string> row = {FmtSeconds(factor)};
      AlgorithmOptions opts;
      opts.gather_results = false;
      for (AlgorithmKind kind : Figure8Algorithms()) {
        EngineRunOutcome out = RunEngine(cluster, kind, *spec, *rel, opts);
        row.push_back(out.ok ? FmtSeconds(out.sim_time_s) : "ERR");
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Expected shape: times grow roughly linearly with the skewed\n"
      "node's share for every algorithm (input skew hits the scan, which\n"
      "nobody can shed); Rep is hurt slightly less at high selectivity\n"
      "because it offloads the aggregation work, as §6.1 argues.\n");
  return Status::OK();
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main() {
  return adaptagg::bench::BenchExitCode(adaptagg::bench::Run());
}
