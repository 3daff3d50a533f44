// Ablation: hash-based vs sort-based aggregation inside Two Phase — the
// §1 design decision ("we assume that aggregation on a node is done by
// hashing", with [BBDW83]'s sort-based algorithms as the prior art).
// Sorting's intermediate I/O scales with the input that exceeds memory;
// hashing's scales with the number of groups. At low selectivity the
// hash table absorbs everything and sort pays full run I/O for nothing.

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

Status Run() {
  const double scale = BenchScale();
  SystemParams params = SystemParams::Cluster8();
  params.network = NetworkKind::kHighBandwidth;  // isolate the I/O story
  params.num_tuples = static_cast<int64_t>(500'000 * scale);
  params.max_hash_entries =
      std::max<int64_t>(64, static_cast<int64_t>(2'500 * scale));

  PrintHeader("Ablation: sort-based vs hash-based aggregation",
              "2P with hashing vs Sort-2P ([BBDW83] baseline), engine",
              params.ToString() + " scale=" + FmtSeconds(scale));

  TablePrinter table({"S", "groups", "2P-hash(s)", "Sort-2P(s)",
                      "hash spill pages", "sort run pages"});
  Cluster cluster(params);
  for (double s : SelectivitySweep(params.num_tuples)) {
    int64_t groups = std::max<int64_t>(
        1, static_cast<int64_t>(s * static_cast<double>(params.num_tuples)));
    WorkloadSpec wspec;
    wspec.num_nodes = params.num_nodes;
    wspec.num_tuples = params.num_tuples;
    wspec.num_groups = groups;
    wspec.seed = 55 + static_cast<uint64_t>(groups);
    auto rel = GenerateRelation(wspec);
    if (!rel.ok()) return rel.status();
    auto spec = MakeBenchQuery(&rel->schema());
    if (!spec.ok()) return spec.status();

    AlgorithmOptions opts;
    opts.gather_results = false;
    RunResult hash = cluster.Run(
        *MakeAlgorithm(AlgorithmKind::kTwoPhase), *spec, *rel, opts);
    RunResult sort = cluster.Run(
        *MakeAlgorithm(AlgorithmKind::kSortTwoPhase), *spec, *rel, opts);
    if (!hash.status.ok()) return hash.status;
    if (!sort.status.ok()) return sort.status;
    int64_t hash_pages = 0, sort_pages = 0;
    for (const auto& st : hash.node_stats) {
      hash_pages += st.spill.spill_pages_written;
    }
    for (const auto& st : sort.node_stats) {
      sort_pages += st.spill.spill_pages_written;
    }
    table.AddRow({FmtSci(s), FmtInt(groups),
                  FmtSeconds(hash.sim_time_s), FmtSeconds(sort.sim_time_s),
                  FmtInt(hash_pages), FmtInt(sort_pages)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: identical when everything fits in memory; once\n"
      "the input exceeds M records, Sort-2P pays run I/O proportional to\n"
      "the INPUT at every selectivity, while hash 2P's spill I/O grows\n"
      "only with the GROUP count — the reason the paper assumes hashing.\n");
  return Status::OK();
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main() {
  return adaptagg::bench::BenchExitCode(adaptagg::bench::Run());
}
