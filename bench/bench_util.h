#ifndef ADAPTAGG_BENCH_BENCH_UTIL_H_
#define ADAPTAGG_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "agg/reference.h"
#include "cluster/cluster.h"
#include "core/algorithm.h"
#include "model/cost_model.h"
#include "obs/trace_export.h"
#include "workload/generator.h"

namespace adaptagg {
namespace bench {

/// Prints an aligned text table: header row, separator, data rows.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);

  /// Writes the whole table to stdout.
  void Print() const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Seconds with 4 significant digits ("12.34", "0.001234").
std::string FmtSeconds(double s);

/// Scientific notation with 2 digits ("2.5e-04").
std::string FmtSci(double v);

std::string FmtInt(int64_t v);

/// The paper's x-axis: log-spaced grouping selectivities from one group
/// (1/|R|) up to 0.5, `per_decade` points per decade.
std::vector<double> SelectivitySweep(int64_t num_tuples,
                                     int per_decade = 1);

/// Engine benchmark scale factor from ADAPTAGG_BENCH_SCALE (default 1.0
/// = the paper's full 2M-tuple workload). Scaling multiplies the tuple
/// count and the hash-table bound M together so algorithm crossovers stay
/// at the same selectivities.
double BenchScale();

/// One engine run's modeled completion time and adaptive behavior.
struct EngineRunOutcome {
  double sim_time_s = 0;
  int nodes_switched = 0;
  int64_t spilled_records = 0;
  bool ok = false;
};

/// Runs `kind` on the cluster. When the environment variable
/// ADAPTAGG_TRACE_DIR is set, trace collection is forced on and the run
/// is exported as `<dir>/TRACE_<algorithm>.json` (Chrome trace-event
/// format); the last run of each algorithm wins. A failed run or trace
/// export is printed to stderr and makes BenchExitCode return non-zero.
EngineRunOutcome RunEngine(Cluster& cluster, AlgorithmKind kind,
                           const AggregationSpec& spec,
                           PartitionedRelation& rel,
                           const AlgorithmOptions& options);

/// Prints the standard bench header: figure id, description, config line.
void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& config);

/// main()'s exit code: prints `run` to stderr and returns 1 if it
/// failed or if any RunEngine call failed, else returns 0.
int BenchExitCode(const Status& run);

}  // namespace bench
}  // namespace adaptagg

#endif  // ADAPTAGG_BENCH_BENCH_UTIL_H_
