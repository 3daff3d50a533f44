#include "cluster/run_assembly.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "exec/expression.h"
#include "model/recovery_model.h"
#include "net/fault.h"
#include "obs/trace_recorder.h"

namespace adaptagg {
namespace {

/// Severity used to pick the run's root cause among node statuses:
/// injected faults beat ordinary errors, which beat detection (timeouts
/// and peer-closed notices), which beats cascaded "aborted by peer"
/// echoes.
int RootCauseRank(const Status& st) {
  if (st.message().find("aborted by peer") != std::string::npos) return 0;
  if (st.code() == StatusCode::kDeadlineExceeded ||
      st.message().find("closed its connection") != std::string::npos) {
    return 1;
  }
  if (st.message().find("injected") != std::string::npos) return 3;
  return 2;
}

/// The run's root cause among the per-node statuses: a node that failed
/// on its own (an injected fault most of all) beats one that timed out
/// detecting the failure, which beats one that merely observed a peer's
/// abort. OK when every node succeeded.
Status PickRootCause(const std::vector<Status>& statuses) {
  Status cause;  // OK unless some node failed
  int best_rank = -1;
  for (size_t i = 0; i < statuses.size(); ++i) {
    const Status& st = statuses[i];
    if (st.ok()) continue;
    const int rank = RootCauseRank(st);
    if (rank > best_rank) {
      best_rank = rank;
      cause =
          Status(st.code(), "node " + std::to_string(i) + ": " + st.message());
    }
  }
  return cause;
}

/// Routes a FaultyTransport's fire events into the node's obs shard.
FaultObserver MakeFaultObserver(NodeObs* obs) {
  return [obs](const FaultEvent& e) {
    switch (e.kind) {
      case FaultKind::kDrop:
        obs->fault_msgs_dropped.Increment();
        break;
      case FaultKind::kDuplicate:
        obs->fault_msgs_duplicated.Increment();
        break;
      case FaultKind::kDelay:
        obs->fault_msgs_delayed.Increment();
        break;
      case FaultKind::kCorrupt:
        obs->fault_msgs_corrupted.Increment();
        break;
      case FaultKind::kCrash:
      case FaultKind::kStraggle:
      case FaultKind::kDiskFail:
      case FaultKind::kTornWrite:
      case FaultKind::kHang:
        break;  // node/storage faults report elsewhere
    }
    obs->RecordFault("fault." + std::string(FaultKindToString(e.kind)),
                     {{"peer", e.peer}});
  };
}

}  // namespace

Status ValidateRunOptions(const AggregationSpec& spec,
                          const AlgorithmOptions& options) {
  if (options.where != nullptr) {
    Status st = ValidatePredicate(*options.where, spec.input_schema());
    if (!st.ok()) return Status(st.code(), "WHERE: " + st.message());
  }
  if (options.having != nullptr) {
    Status st = ValidatePredicate(*options.having, spec.final_schema());
    if (!st.ok()) return Status(st.code(), "HAVING: " + st.message());
  }
  return Status::OK();
}

QueryExecution::QueryExecution(const SystemParams& params,
                               const AggregationSpec& spec,
                               AlgorithmOptions options,
                               const Algorithm& algo)
    : params_(params),
      spec_(spec),
      options_(std::move(options)),
      algo_(algo),
      query_id_(options_.query_id),
      wall_epoch_s_(WallSeconds()) {
  if (!options_.recovery.enabled) return;
  // The checkpoint store outlives the attempts so a replay can read what
  // the crashed attempt wrote; its disks are private to the store, so
  // checkpoint I/O never perturbs the modeled node disks.
  ckpt_every_ = options_.recovery.checkpoint_every_batches;
  if (ckpt_every_ < 0) {
    const int64_t est_groups = options_.max_hash_entries > 0
                                   ? options_.max_hash_entries
                                   : params_.max_hash_entries;
    ckpt_every_ =
        DecideCheckpointInterval(params_, est_groups, spec_.partial_width())
            .every_batches;
  }
  recovery_ = std::make_unique<RecoveryRuntime>(
      params_.num_nodes, static_cast<int>(params_.page_bytes), ckpt_every_,
      options_.fault_plan);
}

void QueryExecution::BeginAttempt(
    std::vector<std::unique_ptr<Transport>> transports,
    const std::vector<NodeStorage>& storage, uint32_t wire_query_id) {
  ++attempt_;
  const int n = params_.num_nodes;
  options_.query_id = wire_query_id;

  // Fault injection wraps each endpoint in a decorator only when the
  // plan is non-empty: fault-free runs keep the raw transports and the
  // exact message flow of builds without this subsystem.
  const bool inject_faults = !options_.fault_plan.empty();
  if (inject_faults) {
    for (auto& t : transports) {
      t = std::make_unique<FaultyTransport>(std::move(t),
                                            options_.fault_plan);
    }
  }
  transports_ = std::move(transports);
  net_ = std::make_unique<NetworkModel>(params_);

  contexts_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const NodeStorage& s = storage[static_cast<size_t>(i)];
    Transport* transport = transports_[static_cast<size_t>(i)].get();
    contexts_.push_back(std::make_unique<NodeContext>(
        i, params_, spec_, options_, s.partition, s.disk, transport,
        net_.get(), wall_epoch_s_));
    NodeContext& ctx = *contexts_.back();
    if (recovery_ != nullptr) ctx.SetRecovery(&recovery_->node(i));
    if (inject_faults) {
      static_cast<FaultyTransport*>(transport)->set_observer(
          MakeFaultObserver(&ctx.obs()));
    }
  }

  if (recovery_ != nullptr) {
    // Wall-clock-only decision: recorded as an instant, charged to no
    // clock, so the modeled plan is identical with recovery on or off.
    contexts_.front()->obs().RecordDecision(
        "recovery.checkpoint_interval",
        {{"every_batches", ckpt_every_}, {"attempt", attempt_}});
  }

  statuses_.assign(static_cast<size_t>(n), Status());
  failure_seen_.store(false, std::memory_order_relaxed);
  nodes_remaining_.store(n, std::memory_order_release);
  attempt_start_s_ = WallSeconds();
}

bool QueryExecution::RunNode(int i) {
  NodeContext& ctx = *contexts_[static_cast<size_t>(i)];
  Status st = algo_.RunNode(ctx);
  if (!st.ok()) {
    // The first failure pins the attempt's failure wall time; later ones
    // observe their abort latency. The abort wakes every peer that may
    // be blocked on this node's traffic; a crashed or hung node's sends
    // are swallowed, so its peers detect it from its endpoint's close
    // notice or from its silence.
    const double now = WallSeconds();
    bool expected = false;
    if (failure_seen_.compare_exchange_strong(expected, true)) {
      first_failure_wall_.store(now, std::memory_order_release);
    } else {
      ctx.obs().fault_abort_latency_us.Observe(
          (now - first_failure_wall_.load(std::memory_order_acquire)) * 1e6);
    }
    Message abort;
    abort.type = MessageType::kAbort;
    for (int dest = 0; dest < ctx.num_nodes(); ++dest) {
      if (dest != i) (void)ctx.Send(dest, abort);
    }
  }
  statuses_[static_cast<size_t>(i)] = std::move(st);
  if (nodes_remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return false;
  }
  attempt_wall_s_.push_back(WallSeconds() - attempt_start_s_);
  return true;
}

bool QueryExecution::PrepareReplay() {
  // Retry only injected-crash failures; any other error (a real abort,
  // a timeout with no crash, data loss) keeps the clean-abort path.
  if (recovery_ == nullptr || attempt_ >= kMaxRecoveryAttempts) return false;
  if (PickRootCause(statuses_).ok()) return false;
  bool any_crashed = false;
  for (const auto& ctx : contexts_) any_crashed |= ctx->crashed();
  if (!any_crashed) return false;
  // Consume the crash or hang specs that fired: the one CrashForNode
  // handed each stopped node.
  FaultPlan& plan = options_.fault_plan;
  for (const auto& ctx : contexts_) {
    if (!ctx->crashed()) continue;
    const FaultSpec* fired = plan.CrashForNode(ctx->node_id());
    if (fired != nullptr) {
      plan.faults.erase(plan.faults.begin() + (fired - plan.faults.data()));
    }
  }
  // The crashed attempt is over: release its contexts before its
  // transports, and both before the caller builds the next attempt's.
  contexts_.clear();
  transports_.clear();
  return true;
}

RunResult QueryExecution::Finish() {
  RunResult result;
  result.query_id = query_id_;
  result.wall_time_s = WallSeconds() - wall_epoch_s_;
  result.status = PickRootCause(statuses_);

  // Surface the recovery story on the coordinator's shard (only the
  // final attempt's shards reach the merged snapshot).
  if (recovery_ != nullptr) {
    NodeObs& obs = contexts_.front()->obs();
    obs.recovery_attempts.Add(attempt_ - 1);
    for (double s : attempt_wall_s_) {
      obs.recovery_attempt_wall_us.Observe(s * 1e6);
    }
  }

  const int n = static_cast<int>(contexts_.size());
  result.num_nodes = n;
  result.clocks.reserve(static_cast<size_t>(n));
  result.node_stats.reserve(static_cast<size_t>(n));
  result.results.schema = spec_.final_schema();
  std::vector<std::vector<uint8_t>>& rows = result.results.rows;
  if (options_.gather_results) {
    // One exact allocation instead of geometric growth: on many_groups
    // the row index alone is tens of MB, and the overshoot showed in
    // peak RSS.
    int64_t total_rows = 0;
    for (const auto& ctx : contexts_) total_rows += ctx->stats().result_rows;
    rows.reserve(static_cast<size_t>(total_rows));
  }
  for (const auto& ctx : contexts_) {
    // Every node thread is done (joined, or counted out by RunNode's
    // acq_rel countdown), so its unlocked row buffer is ours to move.
    std::vector<std::vector<uint8_t>> node_rows = ctx->TakeRows();
    rows.insert(rows.end(), std::make_move_iterator(node_rows.begin()),
                std::make_move_iterator(node_rows.end()));
    result.sim_time_s = std::max(result.sim_time_s, ctx->clock().now());
    result.clocks.push_back(ctx->clock());
    result.node_stats.push_back(ctx->stats());
    // Fold stat-tracked values into the shard, then merge shards in node
    // order (Merge is commutative, so the order is cosmetic).
    ctx->FinalizeObs();
    result.metrics.Merge(ctx->obs().Snapshot());
    std::vector<TraceEvent> node_events = ctx->obs().trace().TakeEvents();
    result.trace_events.insert(result.trace_events.end(),
                               std::make_move_iterator(node_events.begin()),
                               std::make_move_iterator(node_events.end()));
  }
  // On the shared medium, the wire is a sequential resource whose total
  // occupancy adds to the completion time (§2's no-overlap model).
  result.wire_time_s = net_->serialized_wire_s();
  result.sim_time_s += result.wire_time_s;

  return result;
}

}  // namespace adaptagg
