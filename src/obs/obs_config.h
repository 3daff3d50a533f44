#ifndef ADAPTAGG_OBS_OBS_CONFIG_H_
#define ADAPTAGG_OBS_OBS_CONFIG_H_

namespace adaptagg {

/// Runtime switches of the observability subsystem. Carried by
/// AlgorithmOptions into every cluster run; each node's NodeObs is
/// configured from it. Per-node metrics (counters, gauges, histograms
/// and the phase.* span counters) are always on; the merged snapshot
/// rides back on RunResult::metrics.
struct ObsConfig {
  /// Keep the full event log (phase spans and decision instants, in
  /// simulated and wall time) on RunResult::trace_events so it can be
  /// exported as a Chrome trace (one track per node). Off by default:
  /// traces of big runs are large; metrics and span counters are not.
  bool traces = false;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_OBS_OBS_CONFIG_H_
