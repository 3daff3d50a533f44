#ifndef ADAPTAGG_OBS_TRACE_RECORDER_H_
#define ADAPTAGG_OBS_TRACE_RECORDER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metric_registry.h"
#include "sim/cost_clock.h"

namespace adaptagg {

/// One structured trace event of a node: a phase span (scan, merge,
/// emit, ...) or an instant decision point (an adaptive switch). Times
/// are kept on both timelines the engine runs on — the simulated
/// CostClock (the paper's modeled time) and host wall time relative to
/// the run's start — so a trace can answer "where did modeled time go"
/// and "where did the real CPU go" from the same file.
struct TraceEvent {
  /// Span (has a duration) vs instant (a point decision).
  enum class Kind : uint8_t { kSpan = 0, kInstant = 1 };

  Kind kind = Kind::kSpan;
  std::string name;
  int node_id = 0;
  /// Simulated-clock interval; for instants, begin == end.
  double sim_begin_s = 0;
  double sim_end_s = 0;
  /// Wall-clock interval, seconds since the run's epoch.
  double wall_begin_s = 0;
  double wall_end_s = 0;
  /// Structured payload (e.g. an adaptive switch's observed cardinality
  /// inputs). Integer-valued by design: everything the decision points
  /// observe is a count or a tuple index.
  std::vector<std::pair<std::string, int64_t>> args;

  double sim_duration_s() const { return sim_end_s - sim_begin_s; }
  double wall_duration_s() const { return wall_end_s - wall_begin_s; }
};

/// Seconds on the host's monotonic clock (the trace wall timeline).
/// This is the engine's one sanctioned wall-time source for
/// observability: lint rule D1 allowlists this header and its
/// implementation; algorithm code must charge the CostClock instead.
double WallSeconds();

/// Collects one node's trace events. Single-writer by construction —
/// only the owning node's thread records during a run, and the cluster
/// concatenates recorders strictly after the node threads join — so the
/// class carries no lock and no ADAPTAGG_GUARDED_BY members; the join
/// is the synchronization point. Disabled recorders drop events at the
/// door, so instrumentation sites never check configuration themselves.
class TraceRecorder {
 public:
  /// `wall_epoch_s` is the cluster-wide run start (WallSeconds() at run
  /// setup), shared across nodes so their wall timelines align.
  TraceRecorder(int node_id, bool enabled, double wall_epoch_s)
      : node_id_(node_id), enabled_(enabled), wall_epoch_s_(wall_epoch_s) {}

  bool enabled() const { return enabled_; }
  int node_id() const { return node_id_; }
  double wall_epoch_s() const { return wall_epoch_s_; }

  void RecordSpan(std::string name, double sim_begin_s, double sim_end_s,
                  double wall_begin_s, double wall_end_s,
                  std::vector<std::pair<std::string, int64_t>> args = {});

  /// Records a point event at the node's current simulated time.
  void RecordInstant(std::string name, double sim_at_s,
                     std::vector<std::pair<std::string, int64_t>> args = {});

  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent> TakeEvents() { return std::move(events_); }

 private:
  int node_id_;
  bool enabled_;
  double wall_epoch_s_;
  std::vector<TraceEvent> events_;
};

/// RAII span: captures (sim, wall) time at construction and, on End() or
/// destruction, records the span into the recorder (when tracing) and
/// bumps the phase's registry counters `phase.<name>.sim_us`,
/// `phase.<name>.wall_us` and `phase.<name>.count`.
class PhaseTimer {
 public:
  PhaseTimer(TraceRecorder* recorder, MetricRegistry* registry,
             const CostClock* clock, std::string name);

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() { End(); }

  /// Attaches a structured argument to the span (kept on the trace
  /// event; ignored when tracing is off).
  void AddArg(const std::string& key, int64_t value);

  /// Closes the span; idempotent (the destructor is then a no-op).
  void End();

 private:
  TraceRecorder* recorder_;
  MetricRegistry* registry_;
  const CostClock* clock_;
  std::string name_;
  double sim_begin_s_;
  double wall_begin_s_;
  std::vector<std::pair<std::string, int64_t>> args_;
  bool ended_ = false;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_OBS_TRACE_RECORDER_H_
