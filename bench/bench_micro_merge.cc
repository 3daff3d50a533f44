// Wall-clock A/B of merge-side radix staging: the Sampling algorithm
// under radix_mode kOff against kAuto, in two cells —
//
//   high_g_skew  : 80k zipf-skewed groups on 4 nodes under a 256 KiB LLC
//                  budget. The sampled global estimate / N busts the
//                  budget, so auto engages radix staging on every node's
//                  merge table (and on the scan-side tables, whose local
//                  estimates bust it too). Prediction: auto is faster.
//   llc_resident : the same shape with 8k groups. Each node's share of
//                  the merge table stays inside the budget, auto stays
//                  hash-direct, and the prediction is no change.
//
// Reps alternate which mode runs first, so machine drift and warm-up
// hit both modes alike; rep i's two runs form pair i. Each mode reports
// its median wall time and interquartile range; a cell's verdict counts
// the pairs auto won and checks the engagement the cell predicts. The
// modeled time is radix-invariant by construction, so the interesting
// number here is the wall clock. Numbers go to BENCH_micro_merge.json.
//
// ADAPTAGG_BENCH_SCALE scales tuple counts (group counts and M scale
// with them so the cells keep their shape).

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

/// Wall-clock pairs per cell.
constexpr int kReps = 51;

/// A mode's median counts as "no change" within this factor of the
/// other's; also the ceiling on a mode's IQR / median for its median
/// to be read at all.
constexpr double kTieBand = 1.10;

struct Cell {
  const char* name;
  int64_t groups;
  /// Whether auto is predicted to engage merge-side staging.
  bool expect_engage;
};

constexpr int kNodes = 4;
constexpr double kZipfTheta = 0.9;
constexpr int64_t kLlcBytes = 256 * 1024;

struct ModeOutcome {
  ModeOutcome(const char* l, RadixMode m) : label(l), mode(m) {}

  const char* label;
  RadixMode mode;
  double sim_time_s = 0;
  std::vector<double> walls;  // one sample per rep, in rep order
  /// Nodes whose merge-side table engaged radix staging.
  int engaged = 0;
};

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

AlgorithmOptions OptionsFor(RadixMode mode) {
  AlgorithmOptions opts;
  opts.gather_results = false;
  opts.radix_mode = mode;
  opts.radix_llc_bytes = kLlcBytes;
  opts.crossover_threshold = 1'000'000'000;  // keep the two-phase body
  return opts;
}

/// One untimed traced run: counts the merge-side engage instants.
int CountGlobalEngages(Cluster& cluster, const AggregationSpec& spec,
                       PartitionedRelation& rel, RadixMode mode) {
  AlgorithmOptions opts = OptionsFor(mode);
  opts.obs.traces = true;
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                              spec, rel, opts);
  if (!run.status.ok()) return -1;
  int count = 0;
  for (const TraceEvent& e : run.trace_events) {
    if (e.kind == TraceEvent::Kind::kInstant &&
        e.name == "radix.engage.global") {
      ++count;
    }
  }
  return count;
}

bool RunModeOnce(const Cell& cell, Cluster& cluster,
                 const AggregationSpec& spec, PartitionedRelation& rel,
                 BenchJsonWriter& json, bool first_rep, ModeOutcome& out) {
  EngineRunOutcome run =
      RunEngine(cluster, AlgorithmKind::kSampling, spec, rel,
                OptionsFor(out.mode),
                std::string(cell.name) + "_" + out.label);
  if (!run.ok) return false;
  out.sim_time_s = run.sim_time_s;
  out.walls.push_back(run.wall_time_s);
  if (first_rep) json.MergeMetrics(run.metrics);
  return true;
}

void Run() {
  const double scale = BenchScale();
  const auto scaled = [scale](int64_t v) {
    return std::max<int64_t>(64, static_cast<int64_t>(
                                     static_cast<double>(v) * scale));
  };
  const std::string host =
      "nproc=" + std::to_string(std::thread::hardware_concurrency());

  const Cell kCells[] = {
      {"high_g_skew", scaled(80'000), /*expect_engage=*/true},
      {"llc_resident", scaled(8'000), /*expect_engage=*/false},
  };

  PrintHeader("micro: merge-side radix staging",
              "radix_mode off vs auto, Sampling on zipf(0.9), " +
                  std::to_string(kReps) + " alternating pairs per cell",
              "scale=" + FmtSeconds(scale) + " " + host);

  TablePrinter table({"cell", "engaged", "off med(s)", "off iqr",
                      "auto med(s)", "auto iqr", "auto wins", "verdict"});
  BenchJsonWriter json("micro_merge",
                       "scale=" + FmtSeconds(scale) + " " + host);

  for (const Cell& cell : kCells) {
    SystemParams params;
    params.num_nodes = kNodes;
    params.num_tuples = scaled(160'000);
    params.max_hash_entries = scaled(65'536);
    params.network = NetworkKind::kHighBandwidth;

    WorkloadSpec wspec;
    wspec.num_nodes = kNodes;
    wspec.num_tuples = params.num_tuples;
    wspec.num_groups = cell.groups;
    wspec.distribution = GroupDistribution::kZipf;
    wspec.zipf_theta = kZipfTheta;
    auto rel = GenerateRelation(wspec);
    if (!rel.ok()) return;
    auto spec = MakeBenchQuery(&rel->schema());
    if (!spec.ok()) return;

    Cluster cluster(params);
    ModeOutcome outs[2] = {{"off", RadixMode::kOff},
                           {"auto", RadixMode::kAuto}};
    bool all_ok = true;
    for (ModeOutcome& out : outs) {
      out.engaged = CountGlobalEngages(cluster, *spec, *rel, out.mode);
      all_ok = all_ok && out.engaged >= 0;
    }
    for (int rep = 0; rep < kReps && all_ok; ++rep) {
      for (int k = 0; k < 2 && all_ok; ++k) {
        const int mi = (rep % 2 == 0) ? k : 1 - k;
        all_ok = RunModeOnce(cell, cluster, *spec, *rel, json,
                             rep == 0 && k == 0, outs[mi]);
      }
    }
    if (!all_ok) {
      table.AddRow({cell.name, "ERR", "", "", "", "", "", "ERR"});
      continue;
    }

    const ModeOutcome& off = outs[0];
    const ModeOutcome& on = outs[1];
    const double off_med = Quantile(off.walls, 0.5);
    const double on_med = Quantile(on.walls, 0.5);
    const double off_iqr =
        Quantile(off.walls, 0.75) - Quantile(off.walls, 0.25);
    const double on_iqr = Quantile(on.walls, 0.75) - Quantile(on.walls, 0.25);
    int auto_wins = 0;
    for (int i = 0; i < kReps; ++i) {
      if (on.walls[static_cast<size_t>(i)] <
          off.walls[static_cast<size_t>(i)]) {
        ++auto_wins;
      }
    }
    for (const ModeOutcome& out : outs) {
      const double med = Quantile(out.walls, 0.5);
      json.AddPoint(std::string(cell.name) + "/" + out.label,
                    out.sim_time_s, med,
                    med > 0 ? static_cast<double>(params.num_tuples) / med
                            : 0);
    }

    // Medians are only read when both IQRs sit inside the tie band.
    const bool tight = off_iqr <= off_med * (kTieBand - 1) &&
                       on_iqr <= on_med * (kTieBand - 1);
    const bool engaged_as_predicted =
        on.engaged == (cell.expect_engage ? kNodes : 0) && off.engaged == 0;
    bool pass = false;
    if (cell.expect_engage) {
      pass = engaged_as_predicted && tight && off_med - on_med > off_iqr &&
             auto_wins * 10 >= kReps * 9;
    } else {
      pass = engaged_as_predicted && tight && on_med <= off_med * kTieBand &&
             off_med <= on_med * kTieBand;
    }
    table.AddRow({cell.name, std::to_string(on.engaged) + "/" +
                                 std::to_string(kNodes),
                  FmtSeconds(off_med), FmtSeconds(off_iqr),
                  FmtSeconds(on_med), FmtSeconds(on_iqr),
                  std::to_string(auto_wins) + "/" + std::to_string(kReps),
                  pass ? "PASS" : "FAIL"});
  }
  table.Print();
  json.Write();
  std::printf(
      "\nPredicted shape: in high_g_skew auto engages merge-side staging\n"
      "on all %d nodes and beats off in >=90%% of the pairs by more than\n"
      "off's IQR; in llc_resident auto stays hash-direct and the two\n"
      "medians tie within %.2fx. Both IQRs must sit inside that band.\n",
      kNodes, kTieBand);
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main(int, char** argv) {
  adaptagg::bench::SetBenchBinaryName(argv[0]);
  adaptagg::bench::Run();
  return 0;
}
