// Engine workloads: the paper's COUNT(*), SUM(v) GROUP BY g over a
// resident relation, run by one closed-loop client through Cluster::Run,
// rotating algorithms. Every query's rows are checked against the
// reference oracle and every fault-free query's modeled time against the
// first fault-free run of its algorithm.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "core/algorithm.h"
#include "net/fault.h"
#include "obs/trace_export.h"
#include "workload/generator.h"
#include "workloads.h"

namespace aggbench {
namespace {

using adaptagg::AlgorithmKind;
using adaptagg::AlgorithmKindToString;
using adaptagg::AlgorithmOptions;
using adaptagg::PartitionedRelation;
using adaptagg::RunResult;

struct EngineShape {
  int64_t tuples;
  int64_t groups;
  /// Hash-table bound M per node.
  int64_t max_entries;
  std::vector<AlgorithmKind> rotation;
  /// crash_recover: recovery armed on every query, a scan-phase crash on
  /// every fourth.
  bool crash;
  /// Untraced fault-free queries a run measures at least.
  int64_t min_queries;
  /// A fault-free query whose modeled time differs from its algorithm's
  /// first run is a failed op. Off on many_groups: once the merge side
  /// spills, which partials overflow depends on arrival order, and so do
  /// the spill I/O charges (METHODOLOGY.md).
  bool sim_time_gated;
};

/// Queries per p90 window: ten samples beyond the p90.
constexpr size_t kMinQueries = 100;

const std::vector<AlgorithmKind> kFig3Rotation = {
    AlgorithmKind::kTwoPhase, AlgorithmKind::kRepartitioning,
    AlgorithmKind::kSampling, AlgorithmKind::kAdaptiveTwoPhase,
    AlgorithmKind::kAdaptiveRepartitioning};

/// The workload's relation size and rotation. The smoke variant keeps
/// each workload's regime (fits M / overflows M) at a twentieth of the
/// tuples.
EngineShape ShapeOf(const std::string& workload, bool smoke) {
  const int64_t div = smoke ? 20 : 1;
  if (workload == "few_groups") {
    // 2M x 100 B tuples, 1,000 groups (S = 5e-4): every table fits M.
    return {2'000'000 / div, 1'000, 10'000, kFig3Rotation, false,
            kMinQueries, true};
  }
  if (workload == "many_groups") {
    // S = 0.5, the paper's right edge, at a tenth of the paper's scale
    // with M scaled alongside (200K tuples, 100K groups, M = 1,000) so a
    // run fits the hundred queries its p90 needs: every local table
    // overflows M and spills.
    return {200'000 / div, 100'000 / div, 1'000 / div, kFig3Rotation, false,
            kMinQueries, false};
  }
  // crash_recover: few_groups's relation, the three distinct recovery
  // paths.
  return {2'000'000 / div,
          1'000,
          10'000,
          {AlgorithmKind::kTwoPhase, AlgorithmKind::kRepartitioning,
           AlgorithmKind::kAdaptiveTwoPhase},
          true,
          8,
          true};
}

/// Longest a run extends its measurement to reach the sample floor.
constexpr double kMaxMeasureSeconds = 100;

/// One measured query's outcome.
struct QueryOutcome {
  AlgorithmKind kind;
  bool crashed;
  bool traced;
  double wall_s;
};

}  // namespace

void RunEngineWorkload(const RunOptions& opts, Report& report) {
  const EngineShape shape = ShapeOf(opts.workload, opts.smoke);
  SpanLog spans(opts.trace);

  adaptagg::WorkloadSpec wspec;
  wspec.num_nodes = kNodes;
  wspec.num_tuples = shape.tuples;
  wspec.num_groups = shape.groups;
  wspec.seed = opts.seed;

  // Set-up: generate and flush the relation (GenerateRelation flushes
  // every partition). The first build is the one the run queries; the
  // rebuilds through the run, for the set-up median, are identical and
  // thrown away once timed. (Querying a rebuilt relation is not the same:
  // Samp's modeled time can differ between two builds of one seed.)
  std::optional<PartitionedRelation> rel;
  SetupTimes setup(opts.smoke, [&]() -> std::optional<double> {
    Span span(spans, "workload.GenerateRelation");
    const double t0 = Now();
    auto made = adaptagg::GenerateRelation(wspec);
    const double s = Now() - t0;
    if (!made.ok()) {
      report.Fail("GenerateRelation: " + made.status().ToString());
      return std::nullopt;
    }
    if (!rel) rel.emplace(std::move(made).value());
    return s;
  });
  if (!setup.Build()) return;
  auto spec = adaptagg::MakeBenchQuery(&rel->schema());
  if (!spec.ok()) {
    report.Fail("MakeBenchQuery: " + spec.status().ToString());
    return;
  }

  // The oracle, once per relation and untimed.
  std::optional<adaptagg::ResultSet> oracle;
  {
    Span span(spans, "agg.ReferenceAggregate");
    auto ref = adaptagg::ReferenceAggregate(*spec, *rel);
    if (!ref.ok()) {
      report.Fail("ReferenceAggregate: " + ref.status().ToString());
      return;
    }
    oracle.emplace(std::move(ref).value());
  }
  const adaptagg::ResultSet expected = ExpectedFor(*oracle, INT64_MIN);

  adaptagg::SystemParams params;
  params.num_nodes = kNodes;
  params.num_tuples = shape.tuples;
  params.max_hash_entries = shape.max_entries;
  params.network = adaptagg::NetworkKind::kHighBandwidth;
  adaptagg::Cluster cluster(params);

  std::map<AlgorithmKind, std::unique_ptr<adaptagg::Algorithm>> algos;
  for (AlgorithmKind kind : shape.rotation) {
    algos[kind] = adaptagg::MakeAlgorithm(kind);
  }

  // Seeded crash placement: node and scan position of each crashed query.
  adaptagg::Prng crash_rng(opts.seed * 0x9e3779b97f4a7c15ULL + 17);
  const int64_t per_node = shape.tuples / kNodes;

  auto options_for = [&](bool crash, bool traced) {
    AlgorithmOptions o;
    o.obs.traces = traced;
    if (shape.crash) {
      o.recovery.enabled = true;
      o.recovery.checkpoint_every_batches = -1;  // cost-model cadence
      o.failure.enabled = true;
      o.failure.recv_idle_timeout_s = 2.0;
    }
    if (crash) {
      const int node = static_cast<int>(crash_rng.NextBelow(kNodes));
      const int64_t tuple =
          per_node / 8 +
          static_cast<int64_t>(crash_rng.NextBelow(
              static_cast<uint64_t>(per_node * 3 / 4)));
      auto plan = adaptagg::FaultPlan::Parse(
          "crash:node=" + std::to_string(node) +
          ",tuple=" + std::to_string(tuple));
      if (plan.ok()) o.fault_plan = std::move(plan).value();
    }
    return o;
  };

  // One query: run, time, check rows and compare modeled time (when
  // fault-free) with the first run of its algorithm, which is in the
  // warm-up rotation.
  ResultFileSweeper sweeper(&*rel);
  std::map<AlgorithmKind, double> sim_ref;
  std::map<AlgorithmKind, Samples> sim_s;
  int64_t sim_checked = 0, sim_mismatched = 0;
  std::set<AlgorithmKind> traced_kinds;  // engine traces exported
  adaptagg::MetricsSnapshot merged;
  int64_t query_id = 0;
  bool corrupted = false, sim_corrupted = false;
  auto run_query = [&](AlgorithmKind kind, bool crash, bool traced,
                       bool measured) -> std::optional<QueryOutcome> {
    ++query_id;
    Span qspan(spans, "query " + AlgorithmKindToString(kind), 0, query_id);
    const AlgorithmOptions o = options_for(crash, traced);
    RunResult run;
    double wall_s = 0;
    {
      Span span(spans, "cluster.Run", qspan.id(), query_id);
      const double t0 = Now();
      run = cluster.Run(*algos[kind], *spec, *rel, o);
      wall_s = Now() - t0;
    }
    Span check(spans, "bench.check", qspan.id(), query_id);
    if (opts.corrupt_row && measured && !corrupted) {
      corrupted = true;
      CorruptOneRow(run.results);
    }
    if (opts.corrupt_sim && measured && !crash && !sim_corrupted) {
      sim_corrupted = true;
      run.sim_time_s = CorruptSimTime(run.sim_time_s);
    }
    sweeper.Sweep();
    bool ok = run.status.ok() && RowsMatch(run.results, expected);
    if (run.status.ok() && !crash) {
      sim_s[kind].Add(run.sim_time_s);
      auto [it, first] = sim_ref.emplace(kind, run.sim_time_s);
      if (!first) {
        ++sim_checked;
        if (!SimTimeMatches(it->second, run.sim_time_s)) {
          ++sim_mismatched;
          if (shape.sim_time_gated) {
            std::fprintf(stderr,
                         "aggbench: query %lld (%s): modeled time %.17g s, "
                         "first run %.17g s\n",
                         static_cast<long long>(query_id),
                         AlgorithmKindToString(kind).c_str(), run.sim_time_s,
                         it->second);
            ok = false;
          }
        }
      }
    }
    if (!ok) {
      std::fprintf(stderr, "aggbench: query %lld (%s%s) failed: %s\n",
                   static_cast<long long>(query_id),
                   AlgorithmKindToString(kind).c_str(),
                   crash ? ", crashed" : "", run.status.ToString().c_str());
    }
    if (!measured) {
      if (!ok) report.Fail("warm-up query failed");
      return std::nullopt;
    }
    report.CountOp(ok);
    if (!ok) return std::nullopt;
    merged.Merge(run.metrics);
    if (traced && traced_kinds.insert(kind).second) {
      const std::string path = opts.out_dir + "/trace_" + opts.workload +
                               "_" + AlgorithmKindToString(kind) + ".json";
      adaptagg::Status st =
          adaptagg::WriteChromeTrace(run.trace_events, run.num_nodes, path);
      if (!st.ok()) report.Fail("trace export: " + st.ToString());
    }
    return QueryOutcome{kind, crash, traced, wall_s};
  };

  // Warm-up rotation: unmeasured, fault-free; fixes each algorithm's
  // reference modeled time.
  for (AlgorithmKind kind : shape.rotation) {
    run_query(kind, false, false, false);
  }
  // Memory of the set-up and a query of every algorithm, taken before the
  // throwaway rebuilds double the relations held.
  const double rss_mb = PeakRssMb();

  // Measured loop: the run's seconds of closed-loop queries, extended
  // (up to kMaxMeasureSeconds) until the sample floor is met. A traced
  // run alternates traced and untraced rotations so the two medians see
  // the same conditions.
  std::vector<QueryOutcome> outcomes;
  int64_t untraced_fault_free = 0;  // the samples the floor counts
  const size_t rot = shape.rotation.size();
  const double start = Now();
  auto more = [&] {
    const double elapsed = Now() - start;
    return elapsed < opts.seconds ||
           (untraced_fault_free < shape.min_queries &&
            elapsed < kMaxMeasureSeconds);
  };
  for (int64_t i = 0; more(); ++i) {
    if (!setup.RebuildIfDue(start, opts.seconds)) return;
    const AlgorithmKind kind = shape.rotation[static_cast<size_t>(i) % rot];
    const bool crash = shape.crash && i % 4 == 3;
    const bool traced = opts.trace && (static_cast<size_t>(i) / rot) % 2 == 1;
    if (auto out = run_query(kind, crash, traced, true)) {
      outcomes.push_back(*out);
      if (!traced && !crash) ++untraced_fault_free;
    }
  }

  // Fault-free wall times (untraced ones for the end-to-end figures), and
  // the untraced queries in run order, crashed ones included.
  Samples query_ms, traced_ms, recovery_ms;
  std::vector<double> untraced_wall_s;
  std::map<AlgorithmKind, Samples> per_algo_ms;
  for (const QueryOutcome& q : outcomes) {
    if (!q.traced) untraced_wall_s.push_back(q.wall_s);
    if (q.crashed) {
      recovery_ms.Add(q.wall_s * 1e3);
      continue;
    }
    if (q.traced) {
      traced_ms.Add(q.wall_s * 1e3);
      continue;
    }
    query_ms.Add(q.wall_s * 1e3);
    per_algo_ms[q.kind].Add(q.wall_s * 1e3);
  }

  // The rotation's algorithms take very different times (5x apart on
  // crash_recover), so a median over all queries can fall on the edge
  // between two of them. Each algorithm's median, averaged over the
  // rotation, does not.
  double algo_median_sum_ms = 0;
  for (const auto& [kind, ms] : per_algo_ms) {
    std::fprintf(stderr, "aggbench: %-6s %4zu queries, p50 %.3f ms\n",
                 AlgorithmKindToString(kind).c_str(), ms.size(), ms.Median());
    algo_median_sum_ms += ms.Median();
  }
  const double algo_median_ms =
      algo_median_sum_ms / static_cast<double>(per_algo_ms.size());
  // Input tuples over summed wall time, per window of untraced queries
  // in run order; the median over windows, so a stall or a stretch of
  // host noise moves it less. A window is one rotation, and on
  // crash_recover four, so that it holds one crashed query of each
  // algorithm (every fourth query crashes). A run too short for one
  // window (a smoke run) takes all its queries.
  const size_t window = std::max<size_t>(
      1, std::min(shape.crash ? 4 * rot : rot, untraced_wall_s.size()));
  Samples window_tuples_per_s;
  for (size_t w = 0; w + window <= untraced_wall_s.size(); w += window) {
    double sum_s = 0;
    for (size_t i = w; i < w + window; ++i) sum_s += untraced_wall_s[i];
    window_tuples_per_s.Add(static_cast<double>(shape.tuples) *
                            static_cast<double>(window) / sum_s);
  }
  report.EndToEnd("setup_s", setup.times().Median(), "s");
  // On crash_recover the queries of interest are the crashed ones. Its
  // fault-free armed queries are too few in a run for a steady median,
  // and they run about 3x slower in stretches of several queries that
  // begin and end at a crash (METHODOLOGY.md); they are reported per
  // layer.
  report.EndToEnd("query_ms_p50",
                  shape.crash ? recovery_ms.Median() : algo_median_ms, "ms");
  report.EndToEnd("tuples_per_s", window_tuples_per_s.Median(), "tuples/s");
  report.EndToEnd("peak_rss_mb", rss_mb, "MiB");

  if (!opts.trace) return;
  report.Layer("workload.generate_s", setup.times().Median(), "s");
  if (!shape.crash) {
    // The tail, unbounded: its quartile spread over ten runs reached 0.23
    // on a VM whose neighbours take CPU time. The median p90 over
    // windows of kMinQueries untraced queries.
    if (auto p90 = query_ms.WindowedPercentile(
            0.90, std::max<size_t>(1, query_ms.size() / kMinQueries))) {
      report.Layer("query_ms_p90", *p90, "ms");
    } else {
      report.Fail("query_ms_p90: too few samples");
    }
  }
  ReportEngineCounters(report, merged, static_cast<int64_t>(outcomes.size()));
  // Modeled time of one rotation (each algorithm's median), and how
  // often a fault-free query's modeled time left its algorithm's first.
  double rotation_sim_s = 0;
  for (const auto& [kind, sims] : sim_s) rotation_sim_s += sims.Median();
  report.Layer("core.sim_time_s", rotation_sim_s, "s");
  report.Layer("core.sim_time_mismatch_frac",
               sim_checked > 0 ? static_cast<double>(sim_mismatched) /
                                     static_cast<double>(sim_checked)
                               : 0,
               "fraction");
  if (shape.crash) {
    report.Layer("recovery.armed_query_ms_p50", algo_median_ms, "ms");
    Samples overhead_ms;
    for (const QueryOutcome& q : outcomes) {
      if (q.crashed && !per_algo_ms[q.kind].empty()) {
        overhead_ms.Add(q.wall_s * 1e3 - per_algo_ms[q.kind].Median());
      }
    }
    report.Layer("recovery.overhead_ms_p50", overhead_ms.Median(), "ms");
  }
  report.Layer("obs.trace_overhead_frac",
               traced_ms.Median() / query_ms.Median() - 1, "fraction");
  RunLayerProbes(*rel, params, shape.max_entries, report, spans);
  report.Layer("ops_failed_frac", report.FailedFrac(), "fraction");
  spans.Write(opts.out_dir + "/spans_" + opts.workload + ".json");
}

}  // namespace aggbench
