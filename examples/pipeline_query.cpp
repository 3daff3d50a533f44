// Full SQL-shaped query through the builder API (§2's scan → select →
// aggregate pipeline): WHERE is evaluated by each node's scan as it
// feeds the aggregation, HAVING after grouping on the emitted rows.
//
//   SELECT g, COUNT(*) AS cnt, SUM(v) AS total, MAX(v) AS peak
//   FROM R
//   WHERE v >= 25000 AND v < 75000
//   GROUP BY g
//   HAVING cnt >= 75

#include <cstdio>

#include "core/query.h"
#include "workload/generator.h"

using namespace adaptagg;

int main() {
  WorkloadSpec workload;
  workload.num_nodes = 4;
  workload.num_tuples = 300'000;
  workload.num_groups = 2'000;
  auto rel = GenerateRelation(workload);
  if (!rel.ok()) {
    std::fprintf(stderr, "generate: %s\n", rel.status().ToString().c_str());
    return 1;
  }

  auto query = QueryBuilder(&rel->schema())
                   .Where(And(Ge(ColNamed("v"), Lit(int64_t{25'000})),
                              Lt(ColNamed("v"), Lit(int64_t{75'000}))))
                   .GroupBy({"g"})
                   .Count("cnt")
                   .Sum("v", "total")
                   .Max("v", "peak")
                   .Having(Ge(ColNamed("cnt"), Lit(int64_t{75})))
                   .Build();
  if (!query.ok()) {
    std::fprintf(stderr, "build: %s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n\n", query->ToString().c_str());

  SystemParams params;
  params.num_nodes = workload.num_nodes;
  params.num_tuples = workload.num_tuples;
  params.max_hash_entries = 1'000;
  Cluster cluster(params);

  for (AlgorithmKind kind :
       {AlgorithmKind::kTwoPhase, AlgorithmKind::kAdaptiveTwoPhase}) {
    RunResult run = query->Execute(cluster, *rel, kind);
    if (!run.status.ok()) {
      std::fprintf(stderr, "%s: %s\n", AlgorithmKindToString(kind).c_str(),
                   run.status.ToString().c_str());
      return 1;
    }
    int64_t dropped = 0, scanned = 0;
    for (const auto& s : run.node_stats) {
      dropped += s.rows_filtered_by_having;
      scanned += s.tuples_scanned;
    }
    std::printf(
        "%-6s modeled=%.4fs  tuples passing WHERE=%lld  groups kept=%lld"
        "  dropped by HAVING=%lld  switched=%d/%d\n",
        AlgorithmKindToString(kind).c_str(), run.sim_time_s,
        static_cast<long long>(scanned),
        static_cast<long long>(run.results.num_rows()),
        static_cast<long long>(dropped), run.nodes_switched(),
        params.num_nodes);
  }

  // Show a few of the surviving groups.
  RunResult run =
      query->Execute(cluster, *rel, AlgorithmKind::kAdaptiveTwoPhase);
  if (!run.status.ok()) return 1;
  run.results.Sort();
  std::printf("\n  g     cnt   total     peak\n");
  for (int64_t i = 0; i < std::min<int64_t>(5, run.results.num_rows());
       ++i) {
    TupleView row = run.results.row(i);
    std::printf("  %-5lld %-5lld %-9lld %lld\n",
                static_cast<long long>(row.GetInt64(0)),
                static_cast<long long>(row.GetInt64(1)),
                static_cast<long long>(row.GetInt64(2)),
                static_cast<long long>(row.GetInt64(3)));
  }
  return 0;
}
