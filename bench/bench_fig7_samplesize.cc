// Reproduces Figure 7: the sample size / performance trade-off of the
// Sampling algorithm on the 32-processor configuration. Larger samples
// observe more distinct groups, raising the group count at which the
// coordinator still (correctly) chooses Repartitioning — at the price of
// a larger constant sampling cost.

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

void Run() {
  SystemParams params = SystemParams::Paper32();
  PrintHeader("Figure 7", "The sample size, performance trade-off",
              params.ToString());

  const std::vector<int64_t> sample_sizes = {3'200,    10'000,  32'000,
                                             100'000, 320'000, 1'000'000};
  // Selectivities in the contested middle range around the crossover.
  const std::vector<double> selectivities = {4e-5, 4e-4, 4e-3, 4e-2};

  std::vector<std::string> cols = {"sample", "cost(s)"};
  for (double s : selectivities) cols.push_back("T@S=" + FmtSci(s));
  TablePrinter table(cols);

  for (int64_t sample : sample_sizes) {
    CostModel::Config cfg;
    cfg.params = params;
    cfg.sample_size = sample;
    CostModel model(cfg);
    std::vector<std::string> row = {
        FmtInt(sample),
        FmtSeconds(
            model.Breakdown(AlgorithmKind::kSampling, 4e-4).sample_cost)};
    for (double s : selectivities) {
      row.push_back(FmtSeconds(model.Time(AlgorithmKind::kSampling, s)));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nExpected shape: total time first improves with sample size\n"
      "(fewer wrong algorithm picks near the threshold), then the\n"
      "sampling cost itself starts to dominate — the paper's trade-off\n"
      "between small samples on fast networks and larger ones on slow\n"
      "networks.\n");
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main() {
  adaptagg::bench::Run();
  return 0;
}
