#include "obs/node_obs.h"

namespace adaptagg {
namespace {

/// Message sizes span one header byte to multi-page batches: power-of-two
/// buckets from 64 bytes up to ~2 MB cover that in 16 buckets.
HistogramSpec MsgBytesSpec() {
  return HistogramSpec::Exponential(/*start=*/64, /*factor=*/2.0,
                                    /*count=*/16);
}

/// Abort latencies span sub-millisecond inproc fan-out to multi-second
/// timeout detection: 100 us .. ~28 min in 12 power-of-4 buckets.
HistogramSpec AbortLatencySpec() {
  return HistogramSpec::Exponential(/*start=*/100, /*factor=*/4.0,
                                    /*count=*/12);
}

/// Per-destination exchange page counts range from one page to
/// millions on skewed long runs: power-of-two buckets from 1.
HistogramSpec PagesPerDestSpec() {
  return HistogramSpec::Exponential(/*start=*/1, /*factor=*/2.0,
                                    /*count=*/20);
}

}  // namespace

NodeObs::NodeObs(int node_id, const ObsConfig& config,
                 const CostClock* clock, double wall_epoch_s)
    : clock_(clock), trace_(node_id, config.traces, wall_epoch_s) {
  scan_tuples = registry_.counter("scan.tuples");

  net_msgs_sent = registry_.counter("net.msgs_sent");
  net_bytes_sent = registry_.counter("net.bytes_sent");
  net_pages_sent = registry_.counter("net.pages_sent");
  net_raw_records_sent = registry_.counter("net.raw_records_sent");
  net_partial_records_sent = registry_.counter("net.partial_records_sent");
  net_raw_records_received =
      registry_.counter("net.raw_records_received");
  net_partial_records_received =
      registry_.counter("net.partial_records_received");
  net_channel_depth_high_water =
      registry_.gauge("net.channel_depth_high_water");
  net_page_pool_hits = registry_.counter("net.page_pool_hits");
  net_page_pool_allocs = registry_.counter("net.page_pool_allocs");
  net_msg_bytes = registry_.histogram("net.msg_bytes", MsgBytesSpec());
  net_exchange_pages_per_dest = registry_.histogram(
      "net.exchange_pages_per_dest", PagesPerDestSpec());

  core_switches = registry_.counter("core.switches");
  core_result_rows = registry_.counter("core.result_rows");
  core_rows_filtered_by_having =
      registry_.counter("core.rows_filtered_by_having");

  agg_spill_records = registry_.counter("agg.spill.records");
  agg_spill_pages_written = registry_.counter("agg.spill.pages_written");
  agg_spill_pages_read = registry_.counter("agg.spill.pages_read");

  agg_ht_probes = registry_.counter("agg.ht.probes");
  agg_ht_hits = registry_.counter("agg.ht.hits");
  agg_ht_inserts = registry_.counter("agg.ht.inserts");
  agg_ht_resizes = registry_.counter("agg.ht.resizes");

  agg_batch_tuples = registry_.counter("agg.batch.tuples");
  agg_batch_fused_tuples = registry_.counter("agg.batch.fused_tuples");
  agg_batch_identity_copy_tuples =
      registry_.counter("agg.batch.identity_copy_tuples");

  fault_msgs_dropped = registry_.counter("fault.msgs_dropped");
  fault_msgs_duplicated = registry_.counter("fault.msgs_duplicated");
  fault_msgs_delayed = registry_.counter("fault.msgs_delayed");
  fault_msgs_corrupted = registry_.counter("fault.msgs_corrupted");
  fault_crashes_injected = registry_.counter("fault.crashes_injected");
  fault_hangs_injected = registry_.counter("fault.hangs_injected");
  fault_straggle_sleeps = registry_.counter("fault.straggle_sleeps");
  fault_heartbeats_sent = registry_.counter("fault.heartbeats_sent");
  fault_dup_discarded = registry_.counter("fault.dup_discarded");
  fault_seq_gaps = registry_.counter("fault.seq_gaps");
  fault_frames_rejected = registry_.counter("fault.frames_rejected");
  fault_deadline_aborts = registry_.counter("fault.deadline_aborts");
  fault_peer_closed = registry_.counter("fault.peer_closed");
  fault_abort_latency_us =
      registry_.histogram("fault.abort_latency_us", AbortLatencySpec());

  recovery_checkpoints_written =
      registry_.counter("recovery.checkpoints_written");
  recovery_checkpoint_bytes = registry_.counter("recovery.checkpoint_bytes");
  recovery_checkpoint_failures =
      registry_.counter("recovery.checkpoint_failures");
  recovery_checkpoints_skipped =
      registry_.counter("recovery.checkpoints_skipped");
  recovery_checkpoint_data_loss =
      registry_.counter("recovery.checkpoint_data_loss");
  recovery_pages_deduped = registry_.counter("recovery.pages_deduped");
  recovery_attempts = registry_.counter("recovery.attempts");
  recovery_nodes_restored = registry_.counter("recovery.nodes_restored");
  recovery_attempt_wall_us =
      registry_.histogram("recovery.attempt_wall_us", AbortLatencySpec());
}

void NodeObs::RecordSwitch(
    const std::string& name,
    std::vector<std::pair<std::string, int64_t>> args) {
  core_switches.Increment();
  if (trace_.enabled()) {
    trace_.RecordInstant(name, clock_ != nullptr ? clock_->now() : 0,
                         std::move(args));
  }
}

void NodeObs::RecordFault(
    const std::string& name,
    std::vector<std::pair<std::string, int64_t>> args) {
  if (trace_.enabled()) {
    trace_.RecordInstant(name, clock_ != nullptr ? clock_->now() : 0,
                         std::move(args));
  }
}

void NodeObs::RecordDecision(
    const std::string& name,
    std::vector<std::pair<std::string, int64_t>> args) {
  if (trace_.enabled()) {
    trace_.RecordInstant(name, clock_ != nullptr ? clock_->now() : 0,
                         std::move(args));
  }
}

}  // namespace adaptagg
