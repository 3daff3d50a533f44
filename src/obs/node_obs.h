#ifndef ADAPTAGG_OBS_NODE_OBS_H_
#define ADAPTAGG_OBS_NODE_OBS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metric_registry.h"
#include "obs/obs_config.h"
#include "obs/trace_recorder.h"
#include "sim/cost_clock.h"

namespace adaptagg {

/// One node's observability shard: a MetricRegistry, a TraceRecorder,
/// and pre-bound handles for every engine metric, so hot paths pay a
/// pointer-null check instead of a name lookup. Owned by NodeContext;
/// the cluster merges the per-node snapshots and concatenates the
/// per-node event logs after the node threads join.
class NodeObs {
 public:
  /// `clock` is the node's simulated clock (spans read it at begin/end);
  /// `wall_epoch_s` is the cluster-wide run start so all nodes share one
  /// wall timeline.
  NodeObs(int node_id, const ObsConfig& config, const CostClock* clock,
          double wall_epoch_s);

  NodeObs(const NodeObs&) = delete;
  NodeObs& operator=(const NodeObs&) = delete;

  MetricRegistry& registry() { return registry_; }
  TraceRecorder& trace() { return trace_; }

  /// Opens a phase span named `name` ("scan", "merge", "emit", ...).
  /// Feeds the phase.<name>.{sim_us,wall_us,count} counters, and the
  /// trace event log when traces are on.
  PhaseTimer StartPhase(std::string name) {
    return PhaseTimer(&trace_, &registry_, clock_, std::move(name));
  }

  /// Records an adaptive-switch decision: bumps core.switches and emits
  /// an instant trace event at the node's current simulated time carrying
  /// the observed cardinality inputs that drove the decision.
  void RecordSwitch(const std::string& name,
                    std::vector<std::pair<std::string, int64_t>> args);

  /// Emits an instant trace event for a fault-injection or failure-
  /// detection event (injection points, detection points, aborts), so a
  /// trace of a faulty run shows exactly where the cluster degraded.
  /// Counters are bumped separately via the fault_* handles.
  void RecordFault(const std::string& name,
                   std::vector<std::pair<std::string, int64_t>> args);

  /// Emits an instant trace event for a runtime tuning decision that is
  /// not an algorithm switch (the recovery checkpoint interval):
  /// instant-only, no counter — these change wall-clock behavior, never
  /// the simulated plan, and must not perturb core.switches.
  void RecordDecision(const std::string& name,
                      std::vector<std::pair<std::string, int64_t>> args);

  /// Copies the shard's metrics; safe while the node thread is running.
  MetricsSnapshot Snapshot() const { return registry_.Snapshot(); }

  // Pre-bound handles, grouped by subsystem. All are value-type and
  // null-safe; sites update them unconditionally.

  // Scan.
  Counter scan_tuples;

  // Network.
  Counter net_msgs_sent;
  Counter net_bytes_sent;
  Counter net_pages_sent;
  Counter net_raw_records_sent;
  Counter net_partial_records_sent;
  Counter net_raw_records_received;
  Counter net_partial_records_received;
  Gauge net_channel_depth_high_water;
  /// Outgoing page payloads served from the node's buffer pool.
  Counter net_page_pool_hits;
  /// Outgoing page payloads that needed a fresh allocation (pool dry).
  Counter net_page_pool_allocs;
  Histogram net_msg_bytes;
  /// Pages sent to each exchange destination, observed once per
  /// destination at exchange flush: the spread of this histogram is the
  /// routing skew of the run.
  Histogram net_exchange_pages_per_dest;

  // Core / algorithm control flow.
  Counter core_switches;
  Counter core_result_rows;
  Counter core_rows_filtered_by_having;

  // Aggregation: spilling.
  Counter agg_spill_records;
  Counter agg_spill_pages_written;
  Counter agg_spill_pages_read;

  // Aggregation: hash table.
  Counter agg_ht_probes;
  Counter agg_ht_hits;
  Counter agg_ht_inserts;
  Counter agg_ht_resizes;

  // Aggregation: batch kernels.
  Counter agg_batch_tuples;
  Counter agg_batch_fused_tuples;
  Counter agg_batch_identity_copy_tuples;

  // Fault injection and failure detection.
  Counter fault_msgs_dropped;
  Counter fault_msgs_duplicated;
  Counter fault_msgs_delayed;
  Counter fault_msgs_corrupted;
  Counter fault_crashes_injected;
  Counter fault_hangs_injected;
  Counter fault_straggle_sleeps;
  Counter fault_heartbeats_sent;
  Counter fault_dup_discarded;
  Counter fault_seq_gaps;
  Counter fault_frames_rejected;
  Counter fault_deadline_aborts;
  /// Receives failed by a peer's close notice (transport-speed crash
  /// detection; silence detection counts in fault_deadline_aborts).
  Counter fault_peer_closed;
  /// Wall time from the run's first node failure to each later node
  /// noticing and unwinding (abort fan-out + detection latency).
  Histogram fault_abort_latency_us;

  // Fault recovery: checkpointed partials and replay dedupe.
  /// Checkpoints this node durably wrote.
  Counter recovery_checkpoints_written;
  /// Payload bytes of the checkpoints this node durably wrote.
  Counter recovery_checkpoint_bytes;
  /// Checkpoint writes that failed on disk (previous checkpoint kept).
  Counter recovery_checkpoint_failures;
  /// Checkpoint opportunities skipped because the aggregation state was
  /// not snapshottable (spilled to disk).
  Counter recovery_checkpoints_skipped;
  /// Checkpoints that failed verification on load — torn or corrupted —
  /// forcing this node to replay from scratch instead.
  Counter recovery_checkpoint_data_loss;
  /// Replayed data pages skipped by the fold watermark, keeping merges
  /// exactly-once across re-execution.
  Counter recovery_pages_deduped;
  /// Re-execution attempts the run needed beyond the first (bumped on
  /// the coordinator's shard by the recovery loop).
  Counter recovery_attempts;
  /// Nodes that restored mid-query state from a checkpoint this run.
  Counter recovery_nodes_restored;
  /// Wall time of each re-execution attempt (coordinator's shard).
  Histogram recovery_attempt_wall_us;

 private:
  const CostClock* clock_;
  MetricRegistry registry_;
  TraceRecorder trace_;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_OBS_NODE_OBS_H_
