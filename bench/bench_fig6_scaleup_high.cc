// Reproduces Figure 6: scaleup at high grouping selectivity (S = 0.25),
// the duplicate-elimination end of the spectrum. Constant 250K tuples
// per node; ideal scaleup is a flat line.

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

constexpr double kSelectivity = 0.25;
constexpr int64_t kTuplesPerNode = 250'000;

void Run() {
  SystemParams base = SystemParams::Paper32();
  PrintHeader("Figure 6", "Scaleup of Algorithms: selectivity = 0.25",
              "|R| = 250K tuples * N, high-bandwidth network");

  TablePrinter table({"N", "|R|", "2P(s)", "Rep(s)", "Samp(s)", "A-2P(s)",
                      "A-Rep(s)"});
  for (int n : {1, 2, 4, 8, 16, 32, 64, 128}) {
    CostModel::Config cfg;
    cfg.params = base;
    cfg.params.num_nodes = n;
    cfg.params.num_tuples = kTuplesPerNode * n;
    CostModel model(cfg);
    table.AddRow(
        {FmtInt(n), FmtInt(cfg.params.num_tuples),
         FmtSeconds(model.Time(AlgorithmKind::kTwoPhase, kSelectivity)),
         FmtSeconds(
             model.Time(AlgorithmKind::kRepartitioning, kSelectivity)),
         FmtSeconds(model.Time(AlgorithmKind::kSampling, kSelectivity)),
         FmtSeconds(
             model.Time(AlgorithmKind::kAdaptiveTwoPhase, kSelectivity)),
         FmtSeconds(model.Time(AlgorithmKind::kAdaptiveRepartitioning,
                               kSelectivity))});
  }
  table.Print();
  std::printf(
      "\nExpected shape: A-2P switches to repartitioning and A-Rep stays\n"
      "with it, so both stay near-flat and near Rep; plain 2P is the\n"
      "clear loser here (duplicated work plus overflow I/O).\n");
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main() {
  adaptagg::bench::Run();
  return 0;
}
