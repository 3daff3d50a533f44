// Reproduces Figure 1: the performance of the traditional algorithms
// (Centralized Two Phase, Two Phase, Repartitioning) on the 32-processor
// one-disk-per-node configuration, across the full grouping-selectivity
// range. Repartitioning is shown on both the high-bandwidth (IBM SP-2
// class) and the limited-bandwidth (Ethernet class) interconnect, which
// is the comparison the section draws.

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

void Run() {
  CostModel::Config high_cfg;
  high_cfg.params = SystemParams::Paper32();
  CostModel high(high_cfg);

  CostModel::Config low_cfg = high_cfg;
  low_cfg.params.network = NetworkKind::kLimitedBandwidth;
  CostModel low(low_cfg);

  PrintHeader("Figure 1", "The Performance of Traditional Algorithms",
              high_cfg.params.ToString());

  TablePrinter table({"S", "groups", "C-2P(s)", "2P(s)", "Rep-fast(s)",
                      "Rep-slow(s)"});
  for (double s : SelectivitySweep(high_cfg.params.num_tuples)) {
    int64_t groups = static_cast<int64_t>(
        std::max(1.0, s * static_cast<double>(high_cfg.params.num_tuples)));
    table.AddRow(
        {FmtSci(s), FmtInt(groups),
         FmtSeconds(high.Time(AlgorithmKind::kCentralizedTwoPhase, s)),
         FmtSeconds(high.Time(AlgorithmKind::kTwoPhase, s)),
         FmtSeconds(high.Time(AlgorithmKind::kRepartitioning, s)),
         FmtSeconds(low.Time(AlgorithmKind::kRepartitioning, s))});
  }
  table.Print();
  std::printf(
      "\nExpected shape: 2P wins at low S; Rep (fast net) wins at high S;\n"
      "C-2P's coordinator blows up with the group count; Rep on a slow\n"
      "network pays a constant heavy repartitioning tax.\n");
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main() {
  adaptagg::bench::Run();
  return 0;
}
