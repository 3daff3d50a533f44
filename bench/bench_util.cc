#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/simd.h"

namespace adaptagg {
namespace bench {
namespace {

std::string& BinaryNameStorage() {
  static std::string name = "unknown";
  return name;
}

}  // namespace

void SetBenchBinaryName(const char* argv0) {
  if (argv0 == nullptr || *argv0 == '\0') return;
  std::string s(argv0);
  const size_t slash = s.find_last_of('/');
  BinaryNameStorage() =
      slash == std::string::npos ? s : s.substr(slash + 1);
}

std::string BenchBinaryName() { return BinaryNameStorage(); }

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
                           const AlgorithmOptions& options,
                           const std::string& trace_label) {
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
    return out;
  }
  if (trace_dir != nullptr) {
    const std::string label =
        trace_label.empty() ? AlgorithmKindToString(kind) : trace_label;
    const std::string path =
        std::string(trace_dir) + "/TRACE_" + label + ".json";
    Status st =
        WriteChromeTrace(run.trace_events, run.num_nodes, path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace export to %s failed: %s\n", path.c_str(),
                   st.ToString().c_str());
    }
  }
  out.ok = true;
  out.sim_time_s = run.sim_time_s;
  out.wall_time_s = run.wall_time_s;
  out.nodes_switched = run.nodes_switched();
  out.spilled_records = run.total_spilled_records();
  out.metrics = std::move(run.metrics);
  return out;
}

void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& config) {
  std::printf("=== %s: %s ===\n", figure.c_str(), description.c_str());
  std::printf("config: %s\n\n", config.c_str());
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

BenchJsonWriter::BenchJsonWriter(std::string bench_id, std::string config)
    : bench_id_(std::move(bench_id)), config_(std::move(config)) {}

void BenchJsonWriter::AddPoint(const std::string& name, double sim_time_s,
                               double wall_time_s, double tuples_per_sec) {
  points_.push_back({name, sim_time_s, wall_time_s, tuples_per_sec});
}

void BenchJsonWriter::MergeMetrics(const MetricsSnapshot& metrics) {
  metrics_.Merge(metrics);
}

bool BenchJsonWriter::Write(const std::string& dir) const {
  std::string out_dir = dir;
  if (out_dir.empty()) {
    const char* env = std::getenv("ADAPTAGG_BENCH_JSON_DIR");
    out_dir = env != nullptr ? env : ".";
  }
  const std::string path = out_dir + "/BENCH_" + bench_id_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"schema_version\": %d,\n"
               "  \"bench_binary\": \"%s\",\n  \"cpu_dispatch\": \"%s\",\n"
               "  \"config\": \"%s\",\n",
               JsonEscape(bench_id_).c_str(), kBenchJsonSchemaVersion,
               JsonEscape(BenchBinaryName()).c_str(), simd::DispatchName(),
               JsonEscape(config_).c_str());
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points_.size(); ++i) {
    const Point& pt = points_[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"sim_time_s\": %s, "
                 "\"wall_time_s\": %s, \"tuples_per_sec\": %s}%s\n",
                 JsonEscape(pt.name).c_str(),
                 JsonNumber(pt.sim_time_s).c_str(),
                 JsonNumber(pt.wall_time_s).c_str(),
                 JsonNumber(pt.tuples_per_sec).c_str(),
                 i + 1 < points_.size() ? "," : "");
  }
  if (metrics_.empty()) {
    std::fprintf(f, "  ]\n}\n");
  } else {
    std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n",
                 MetricsToJson(metrics_, 4).c_str());
  }
  const bool ok = std::fclose(f) == 0;
  if (ok) std::printf("\nwrote %s\n", path.c_str());
  return ok;
}

}  // namespace bench
}  // namespace adaptagg
