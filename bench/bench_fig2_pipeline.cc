// Reproduces Figure 2: the same traditional algorithms evaluated in an
// operator pipeline — no base-relation scan and no result store, as when
// the aggregate sits between other operators. Intermediate (overflow)
// I/O still counts; that is exactly what the figure exposes: without the
// scan floor, the Repartitioning algorithm's advantage at high
// selectivity is much starker.

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

void Run() {
  CostModel::Config cfg;
  cfg.params = SystemParams::Paper32();
  cfg.include_scan_io = false;
  cfg.include_store_io = false;
  CostModel model(cfg);

  PrintHeader("Figure 2", "The Performance in an Operator Pipeline",
              cfg.params.ToString() + " [no scan/store I/O]");

  TablePrinter table({"S", "groups", "C-2P(s)", "2P(s)", "Rep(s)"});
  for (double s : SelectivitySweep(cfg.params.num_tuples)) {
    int64_t groups = static_cast<int64_t>(
        std::max(1.0, s * static_cast<double>(cfg.params.num_tuples)));
    table.AddRow(
        {FmtSci(s), FmtInt(groups),
         FmtSeconds(model.Time(AlgorithmKind::kCentralizedTwoPhase, s)),
         FmtSeconds(model.Time(AlgorithmKind::kTwoPhase, s)),
         FmtSeconds(model.Time(AlgorithmKind::kRepartitioning, s))});
  }
  table.Print();
  std::printf(
      "\nExpected shape: without the scan floor the two-phase variants'\n"
      "intermediate I/O dominates at high S, motivating Repartitioning\n"
      "even on pipelines (§2, Figure 2).\n");
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main() {
  adaptagg::bench::Run();
  return 0;
}
