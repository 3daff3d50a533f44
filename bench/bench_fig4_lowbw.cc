// Reproduces Figure 4: the algorithms on an eight-processor,
// limited-bandwidth (10 Mbit/s Ethernet) configuration with a 2 million
// tuple relation — the analytical twin of the paper's implementation
// platform (§5).

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

void Run() {
  CostModel::Config cfg;
  cfg.params = SystemParams::Cluster8();
  CostModel model(cfg);

  PrintHeader("Figure 4", "Performance on a Low-Bandwidth Network",
              cfg.params.ToString());

  TablePrinter table(
      {"S", "2P(s)", "Rep(s)", "Samp(s)", "A-2P(s)", "A-Rep(s)"});
  for (double s : SelectivitySweep(cfg.params.num_tuples)) {
    table.AddRow(
        {FmtSci(s), FmtSeconds(model.Time(AlgorithmKind::kTwoPhase, s)),
         FmtSeconds(model.Time(AlgorithmKind::kRepartitioning, s)),
         FmtSeconds(model.Time(AlgorithmKind::kSampling, s)),
         FmtSeconds(model.Time(AlgorithmKind::kAdaptiveTwoPhase, s)),
         FmtSeconds(model.Time(AlgorithmKind::kAdaptiveRepartitioning, s))});
  }
  table.Print();
  std::printf(
      "\nExpected shape: the serialized Ethernet makes full\n"
      "repartitioning expensive everywhere, so Rep (and the algorithms\n"
      "that choose it) only pays off once intermediate I/O would be\n"
      "worse; A-2P degrades most gracefully because it repartitions only\n"
      "the overflow (§4, Figure 4).\n");
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main() {
  adaptagg::bench::Run();
  return 0;
}
