#ifndef AGGBENCH_BENCH_COMMON_H_
#define AGGBENCH_BENCH_COMMON_H_

// Shared pieces of the repository benchmark: run options, honest
// percentiles, the result collector that prints the final JSON line, the
// benchmark's own span log, and the row checker against the reference
// oracle.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "agg/reference.h"
#include "obs/metric_registry.h"
#include "obs/trace_recorder.h"
#include "storage/partitioned_relation.h"

namespace aggbench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrinks every relation (self-test smoke); never used for numbers.
  bool smoke = false;
  /// Test hook: flips one byte of one measured query's result rows, which
  /// the row check must count as a failed op.
  bool corrupt_row = false;
  /// Test hook: shifts one measured fault-free query's modeled time, which
  /// the modeled-time check must count as a failed op (on every workload
  /// but many_groups, whose modeled time is not deterministic).
  bool corrupt_sim = false;
  /// Where traces and the stamped result file go.
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

/// Seconds on the engine's monotonic wall clock (the clock the serving
/// layer stamps tickets with).
inline double Now() { return adaptagg::WallSeconds(); }

/// A set of timing samples. Percentiles interpolate between ranks and are
/// only reported when at least ten samples lie beyond them; the median is
/// the one exception, reported with its sample count whatever the count
/// (a run's recovery median rests on a handful of two-second samples).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Median() const;
  /// Percentile `q` in (0, 1); nullopt when fewer than ten samples lie
  /// beyond it (or for an empty set).
  std::optional<double> Percentile(double q) const;
  /// Median over `windows` consecutive equal slices of the samples (in
  /// the order added) of each slice's percentile `q`, so one stretch of
  /// host noise moves the figure less; nullopt when a slice lacks the
  /// samples.
  std::optional<double> WindowedPercentile(double q, size_t windows) const;
  const std::vector<double>& values() const { return values_; }

 private:
  double Rank(double q) const;
  std::vector<double> values_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Collects a run's outcome and prints the final JSON result line:
/// {"correct", "attempted", "failed", "metrics"}. End-to-end metrics are
/// printed by untraced runs, per-layer metrics by traced runs.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);

  /// One attempted op (a query or a submission) and whether it was
  /// answered correctly.
  void CountOp(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Marks the run incorrect for a reason outside any one op (a set-up
  /// error, a percentile without enough samples).
  void Fail(const std::string& why);

  /// Adds, as 0, every per-layer metric that only some workloads measure
  /// and this run did not print: no op of that kind ran (no submission on
  /// an engine workload, no crash outside crash_recover). Every traced
  /// run then prints the same set of metrics.
  void FillUnmeasuredLayers();

  int64_t attempted() const { return attempted_; }
  double FailedFrac() const {
    return attempted_ > 0 ? static_cast<double>(failed_) /
                                static_cast<double>(attempted_)
                          : 0;
  }

  /// The metrics the final line will carry (end-to-end or per-layer).
  const std::vector<Metric>& printed() const {
    return trace_ ? layer_ : end_to_end_;
  }

  /// Final JSON line (stdout) plus a stamped copy under `path`.
  void Print(const std::string& host_stamp_json,
             const std::string& path) const;

 private:
  bool trace_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::vector<std::string> problems_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// The benchmark's own spans, recorded around every call it makes into a
/// layer's public entry points and every probe. Each span carries its id,
/// its parent's id and the query it belongs to; events stay in memory
/// until the run ends and are exported as one Chrome trace track.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return recorder_.enabled(); }

  /// Opens a span and returns its id (0 when disabled).
  int64_t Begin(const std::string& name, int64_t parent = 0,
                int64_t query = 0);
  void End(int64_t id);

  /// Writes the recorded spans as a Chrome trace (one track).
  void Write(const std::string& path) const;

 private:
  struct Open {
    int64_t id;
    std::string name;
    int64_t parent;
    int64_t query;
    double begin_s;
  };
  adaptagg::TraceRecorder recorder_;
  std::vector<Open> open_;
  int64_t next_id_ = 1;
};

/// RAII span on a SpanLog.
class Span {
 public:
  Span(SpanLog& log, const std::string& name, int64_t parent = 0,
       int64_t query = 0)
      : log_(log), id_(log.Begin(name, parent, query)) {}
  ~Span() { log_.End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog& log_;
  int64_t id_;
};

/// The oracle's rows for `WHERE g > min_key` (the group column is the
/// final schema's first column): the answer a query is checked against.
adaptagg::ResultSet ExpectedFor(const adaptagg::ResultSet& oracle,
                                int64_t min_key);

/// True when `got` holds exactly the expected rows, by the repo's tolerant
/// comparison (ResultSetsEqual), so double aggregates summed in another
/// order still pass.
bool RowsMatch(const adaptagg::ResultSet& got, const adaptagg::ResultSet& want);

/// Flips one byte of the first row (the corrupted-row test hook).
void CorruptOneRow(adaptagg::ResultSet& rows);

/// True when two modeled times agree within the repo's 1e-9 relative
/// tolerance.
bool SimTimeMatches(double a, double b);

/// Shifts a modeled time far beyond that tolerance (the modeled-time
/// mismatch test hook).
inline double CorruptSimTime(double sim_time_s) {
  return sim_time_s * (1 + 1e-6);
}

/// A workload's set-up, built once before the measurement and again at
/// evenly spaced points through it, so that the median of its times sees
/// the same host conditions as the measured ops: on the 4-vCPU reference
/// VM the host's speed drifts in stretches of seconds.
class SetupTimes {
 public:
  /// Rebuilds per engine run, at evenly spaced points of its
  /// measurement. The serving workload rebuilds between its rates.
  static constexpr int kRebuilds = 15;

  /// `build` tears down the previous set-up (if any), builds a new one and
  /// returns the seconds the build took, or nullopt on error (having
  /// reported it).
  SetupTimes(bool smoke, std::function<std::optional<double>()> build)
      : smoke_(smoke), build_(std::move(build)) {}

  /// Builds the set-up and records its time; false on error.
  bool Build();
  /// Between measured ops: rebuilds (never on a smoke run); false on
  /// error.
  bool Rebuild() { return smoke_ || Build(); }
  /// Between measured ops: rebuilds when the next of kRebuilds evenly
  /// spaced points of the `seconds` after `start` has passed (never on a
  /// smoke run). False on error.
  bool RebuildIfDue(double start, double seconds);

  const Samples& times() const { return times_; }

 private:
  bool smoke_;
  std::function<std::optional<double>()> build_;
  Samples times_;
  int rebuilds_ = 0;
};

/// Deletes the files queries leave on a relation's disks: the engine
/// stores every run's result rows in a new file on each node's disk and
/// never drops it, so a long run would otherwise grow without bound. Uses
/// only the public Disk API (a marker file bounds the id range). Call
/// only while no query runs.
class ResultFileSweeper {
 public:
  explicit ResultFileSweeper(adaptagg::PartitionedRelation* rel);
  void Sweep();

 private:
  adaptagg::PartitionedRelation* rel_;
  /// Highest file id already swept, per node.
  std::vector<adaptagg::FileId> swept_;
};

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Host stamp: nproc, LLC, compiler, build type, SIMD dispatch, git sha,
/// workload and seed, as one JSON object.
std::string HostStampJson(const RunOptions& opts);

/// Adds a MetricsSnapshot's value of `name` (0 when absent).
inline double Val(const adaptagg::MetricsSnapshot& m, const char* name) {
  return static_cast<double>(m.Value(name));
}

/// Per-layer counters summed over many queries' metric snapshots, printed
/// per query.
void ReportEngineCounters(Report& report,
                          const adaptagg::MetricsSnapshot& merged,
                          int64_t queries);

}  // namespace aggbench

#endif  // AGGBENCH_BENCH_COMMON_H_
