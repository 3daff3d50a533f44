#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace adaptagg {
namespace bench {
namespace {

// Set by RunEngine on any failure; read by BenchExitCode.
bool engine_run_failed = false;

}  // namespace

TablePrinter::TablePrinter(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> width(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    width[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf("%-*s%s", static_cast<int>(width[c]), cell.c_str(),
                  c + 1 < columns_.size() ? "  " : "");
    }
    std::printf("\n");
  };
  print_row(columns_);
  std::string sep;
  for (size_t c = 0; c < columns_.size(); ++c) {
    sep.append(width[c], '-');
    if (c + 1 < columns_.size()) sep.append("  ");
  }
  std::printf("%s\n", sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string FmtSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", s);
  return buf;
}

std::string FmtSci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

std::string FmtInt(int64_t v) { return std::to_string(v); }

std::vector<double> SelectivitySweep(int64_t num_tuples, int per_decade) {
  std::vector<double> out;
  double lo = 1.0 / static_cast<double>(num_tuples);
  double step = std::pow(10.0, 1.0 / per_decade);
  for (double s = lo; s < 0.5; s *= step) out.push_back(s);
  out.push_back(0.5);
  return out;
}

double BenchScale() {
  const char* env = std::getenv("ADAPTAGG_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

EngineRunOutcome RunEngine(Cluster& cluster, AlgorithmKind kind,
                           const AggregationSpec& spec,
                           PartitionedRelation& rel,
                           const AlgorithmOptions& options) {
  EngineRunOutcome out;
  const char* trace_dir = std::getenv("ADAPTAGG_TRACE_DIR");
  AlgorithmOptions opts = options;
  if (trace_dir != nullptr) {
    opts.obs.traces = true;
  }
  RunResult run = cluster.Run(*MakeAlgorithm(kind), spec, rel, opts);
  if (!run.status.ok()) {
    std::fprintf(stderr, "engine run %s failed: %s\n",
                 AlgorithmKindToString(kind).c_str(),
                 run.status.ToString().c_str());
    engine_run_failed = true;
    return out;
  }
  if (trace_dir != nullptr) {
    const std::string path = std::string(trace_dir) + "/TRACE_" +
                             AlgorithmKindToString(kind) + ".json";
    Status st =
        WriteChromeTrace(run.trace_events, run.num_nodes, path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace export to %s failed: %s\n", path.c_str(),
                   st.ToString().c_str());
      engine_run_failed = true;
    }
  }
  out.ok = true;
  out.sim_time_s = run.sim_time_s;
  out.nodes_switched = run.nodes_switched();
  out.spilled_records = run.total_spilled_records();
  return out;
}

void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& config) {
  std::printf("=== %s: %s ===\n", figure.c_str(), description.c_str());
  std::printf("config: %s\n\n", config.c_str());
}

int BenchExitCode(const Status& run) {
  if (!run.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", run.ToString().c_str());
    return 1;
  }
  return engine_run_failed ? 1 : 0;
}

}  // namespace bench
}  // namespace adaptagg
