// Ablation: where should Adaptive Two Phase switch? The paper argues the
// memory-overflow point (table full, fraction 1.0) is right: switching
// earlier throws away cheap local aggregation; there is no "later" —
// staying past overflow is what plain 2P does (intermediate I/O). This
// bench sweeps the switch threshold as a fraction of M on the engine.

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

  PrintHeader("Ablation: A-2P switch point",
              "modeled time vs switch threshold (fraction of M)",
              params.ToString() + " scale=" + FmtSeconds(scale));

  const std::vector<double> fractions = {0.05, 0.1, 0.25, 0.5, 0.75, 1.0};
  const std::vector<int64_t> group_counts = {
      100, params.max_hash_entries / 2, params.max_hash_entries * 4,
      params.num_tuples / 8};

  std::vector<std::string> cols = {"fraction"};
  for (int64_t g : group_counts) cols.push_back("G=" + FmtInt(g) + "(s)");
  TablePrinter table(cols);

  Cluster cluster(params);
  for (double fraction : fractions) {
    std::vector<std::string> row = {FmtSeconds(fraction)};
    for (int64_t groups : group_counts) {
      WorkloadSpec wspec;
      wspec.num_nodes = params.num_nodes;
      wspec.num_tuples = params.num_tuples;
      wspec.num_groups = groups;
      wspec.seed = 1234;
      auto rel = GenerateRelation(wspec);
      if (!rel.ok()) return rel.status();
      auto spec = MakeBenchQuery(&rel->schema());
      if (!spec.ok()) return spec.status();
      AlgorithmOptions opts;
      opts.switch_fill_fraction = fraction;
      opts.gather_results = false;
      EngineRunOutcome out = RunEngine(
          cluster, AlgorithmKind::kAdaptiveTwoPhase, *spec, *rel, opts);
      row.push_back(out.ok ? FmtSeconds(out.sim_time_s) : "ERR");
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nExpected shape: at small G every fraction behaves like 2P (no\n"
      "switch); at large G, early switching (small fractions) wastes the\n"
      "local-aggregation benefit on repeated groups, so fraction 1.0 —\n"
      "the paper's overflow-point rule — is at or near the minimum in\n"
      "every column.\n");
  return Status::OK();
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main() {
  return adaptagg::bench::BenchExitCode(adaptagg::bench::Run());
}
