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
#include "obs/metrics_export.h"
#include "obs/trace_export.h"
#include "workload/generator.h"

namespace adaptagg {
namespace bench {

/// Records the benchmark binary's name (basename of argv[0]) so
/// BenchJsonWriter can stamp it into every BENCH_*.json. Call first
/// thing in main().
void SetBenchBinaryName(const char* argv0);

/// The name recorded by SetBenchBinaryName, or "unknown".
std::string BenchBinaryName();

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

/// One engine run: generates (or reuses) the workload and reports modeled
/// completion time plus the run's merged metric snapshot.
struct EngineRunOutcome {
  double sim_time_s = 0;
  double wall_time_s = 0;
  int nodes_switched = 0;
  int64_t spilled_records = 0;
  bool ok = false;
  MetricsSnapshot metrics;
};

/// Runs `kind` on the cluster. When the environment variable
/// ADAPTAGG_TRACE_DIR is set, trace collection is forced on and the run
/// is exported as `<dir>/TRACE_<label>.json` (Chrome trace-event
/// format); `trace_label` defaults to the algorithm name, and the last
/// run with a given label wins.
EngineRunOutcome RunEngine(Cluster& cluster, AlgorithmKind kind,
                           const AggregationSpec& spec,
                           PartitionedRelation& rel,
                           const AlgorithmOptions& options,
                           const std::string& trace_label = std::string());

/// Prints the standard bench header: figure id, description, config line.
void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& config);

/// Schema version stamped into every BENCH_*.json. Bump when the layout
/// changes incompatibly. v2 added schema_version, bench_binary, and the
/// embedded metrics object; v3 added cpu_dispatch (the kernel code path,
/// simd::DispatchName() — "scalar" since the kernels are portable C++ —
/// so wall-clock numbers are never compared across different kernels by
/// accident).
inline constexpr int kBenchJsonSchemaVersion = 3;

/// Collects benchmark points and writes them as `BENCH_<bench_id>.json`
/// so numbers can be checked into the repo and diffed across commits.
/// Layout (schema v3):
///
///   {"bench": "...", "schema_version": 3, "bench_binary": "...",
///    "cpu_dispatch": "...", "config": "...",
///    "points": [{"name": "...", "sim_time_s": ...,
///                "wall_time_s": ..., "tuples_per_sec": ...}, ...],
///    "metrics": {...}}
///
/// Times are seconds; `tuples_per_sec` is input tuples divided by wall
/// time (0 when a point has no tuple count). Non-finite values are
/// written as 0 to keep the file valid JSON. `metrics` is the merged
/// observability snapshot of every run fed to MergeMetrics (omitted
/// when empty, e.g. in obs-disabled builds).
class BenchJsonWriter {
 public:
  BenchJsonWriter(std::string bench_id, std::string config);

  void AddPoint(const std::string& name, double sim_time_s,
                double wall_time_s, double tuples_per_sec);

  /// Folds one run's metric snapshot into the bench-wide snapshot that
  /// Write embeds under "metrics".
  void MergeMetrics(const MetricsSnapshot& metrics);

  /// Writes `<dir>/BENCH_<bench_id>.json` (dir defaults to
  /// ADAPTAGG_BENCH_JSON_DIR or "."). Returns false and prints to stderr
  /// on I/O failure.
  bool Write(const std::string& dir = std::string()) const;

 private:
  struct Point {
    std::string name;
    double sim_time_s;
    double wall_time_s;
    double tuples_per_sec;
  };

  std::string bench_id_;
  std::string config_;
  std::vector<Point> points_;
  MetricsSnapshot metrics_;
};

}  // namespace bench
}  // namespace adaptagg

#endif  // ADAPTAGG_BENCH_BENCH_UTIL_H_
