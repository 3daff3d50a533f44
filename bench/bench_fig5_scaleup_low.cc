// Reproduces Figure 5: scaleup at very low grouping selectivity
// (S = 2.0e-6). The relation grows with the cluster (constant 250K
// tuples per node, as in Table 1); ideal scaleup is a flat line.

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

constexpr double kSelectivity = 2.0e-6;
constexpr int64_t kTuplesPerNode = 250'000;

void Run() {
  SystemParams base = SystemParams::Paper32();
  PrintHeader("Figure 5",
              "Scaleup of Algorithms: selectivity = 2.0e-6",
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
      "\nExpected shape: A-2P and A-Rep nearly flat (ideal scaleup);\n"
      "Sampling slightly rising (its crossover threshold, and therefore\n"
      "its sample, grows with N); plain Rep suffers at small group\n"
      "counts.\n");
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main() {
  adaptagg::bench::Run();
  return 0;
}
