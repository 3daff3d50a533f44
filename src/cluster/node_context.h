#ifndef ADAPTAGG_CLUSTER_NODE_CONTEXT_H_
#define ADAPTAGG_CLUSTER_NODE_CONTEXT_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agg/agg_spec.h"
#include "agg/batch_kernels.h"
#include "agg/spilling_aggregator.h"
#include "exec/expression.h"
#include "net/fault.h"
#include "net/network_model.h"
#include "net/transport.h"
#include "obs/node_obs.h"
#include "sim/cost_clock.h"
#include "sim/params.h"
#include "storage/heap_file.h"
#include "storage/page.h"

namespace adaptagg {

class RecoveryNode;

/// Fault-recovery knobs of one run (DESIGN.md §11). When enabled, the
/// cluster checkpoints each node's partial-aggregate state every K scan
/// batches and, on an injected crash, re-executes the query with every
/// node replaying from its last good checkpoint instead of aborting.
/// Checkpoint I/O goes to dedicated recovery disks — never the charged
/// node disks — so enabling recovery on a fault-free run leaves every
/// modeled result bit-identical.
struct RecoveryOptions {
  bool enabled = false;
  /// Checkpoint interval in scan batches: -1 derives K from the cost
  /// model (model/recovery_model.h), 0 never checkpoints (recovery then
  /// replays from scratch), K > 0 is an explicit interval.
  int64_t checkpoint_every_batches = -1;
};

/// Executions of a recovering query before giving up (first run
/// included), so repeated crashes terminate with the last attempt's
/// error.
inline constexpr int kMaxRecoveryAttempts = 3;

/// Tunables of one algorithm run. Negative values mean "derive the paper
/// default from SystemParams".
struct AlgorithmOptions {
  /// Hash table bound M per node phase (-1: params.max_hash_entries).
  int64_t max_hash_entries = -1;

  // --- Sampling algorithm (§3.1) ---
  /// Groups below this choose Two Phase, at/above choose Repartitioning
  /// (-1: 100 * N as in §4).
  int64_t crossover_threshold = -1;
  /// Total sample tuples across the cluster (-1: Erdős–Rényi bound for
  /// the crossover threshold).
  int64_t sample_size = -1;

  // --- Adaptive Repartitioning (§3.3) ---
  /// Tuples a node scans before judging whether repartitioning pays.
  int64_t init_seg = 10'000;
  /// "Too few groups" bound at decision time (-1: crossover threshold).
  int64_t few_groups_threshold = -1;

  // --- Adaptive Two Phase ablation knob ---
  /// Fraction of M at which A-2P abandons local aggregation (1.0 = the
  /// paper's memory-overflow switch point).
  double switch_fill_fraction = 1.0;

  /// Gather rows centrally so callers/tests can inspect them.
  bool gather_results = true;

  /// Optional WHERE predicate over the input schema, applied by every
  /// node's LocalScanner (§2's scan → select pipeline). Validated by
  /// ValidateRunOptions before execution.
  ExprPtr where;
  /// Optional HAVING predicate over the aggregation's final schema,
  /// applied when result rows are emitted (§2: evaluated after GROUP BY).
  ExprPtr having;

  /// Seed for sampling randomness.
  uint64_t seed = 42;

  /// Observability switches for the run (metrics / phase spans / trace
  /// event log). Defaults: metrics and spans on, traces off.
  ObsConfig obs;

  /// Injected failure scenario (empty = fault-free; the default leaves
  /// run behavior bit-identical to builds without fault injection). A
  /// non-empty plan arms failure detection.
  FaultPlan fault_plan;

  /// Failure-detection knobs (deadlines, heartbeats). See net/fault.h.
  FailureDetection failure;

  /// Serving-layer session id (0: one-shot run). Stamped by
  /// ClusterService on admission; namespaces the node's result file so
  /// concurrent sessions storing results on one shared disk stay
  /// distinguishable, and flows into RunResult::query_id.
  uint32_t query_id = 0;

  /// Fault-recovery configuration (checkpointing + survivor replay).
  RecoveryOptions recovery;
};

/// Per-node execution counters reported back by a run.
struct NodeRunStats {
  int64_t tuples_scanned = 0;
  int64_t raw_records_sent = 0;
  int64_t partial_records_sent = 0;
  int64_t raw_records_received = 0;
  int64_t partial_records_received = 0;
  int64_t messages_sent = 0;
  int64_t result_rows = 0;
  /// Groups dropped by the HAVING predicate on this node.
  int64_t rows_filtered_by_having = 0;
  /// Did this node adaptively change strategy (A-2P overflow switch or
  /// A-Rep end-of-phase)?
  bool switched = false;
  /// Tuples scanned before the switch (0 if none).
  int64_t switch_at_tuple = 0;
  SpillStats spill;
};

class Cluster;

/// Everything one node's thread needs to execute an aggregation
/// algorithm: its local partition, its disk, its simulated clock, its
/// transport endpoint, and result emission. Algorithms are written purely
/// against this interface.
class NodeContext {
 public:
  /// `obs_wall_epoch_s` aligns this node's trace wall timeline with the
  /// rest of the cluster (QueryExecution passes one WallSeconds() reading
  /// to every node); negative means "use this node's own construction
  /// time", which standalone/test contexts can leave defaulted.
  NodeContext(int node_id, const SystemParams& params,
              const AggregationSpec& spec, const AlgorithmOptions& options,
              HeapFile* local_partition, Disk* disk, Transport* transport,
              NetworkModel* net, double obs_wall_epoch_s = -1);

  NodeContext(const NodeContext&) = delete;
  NodeContext& operator=(const NodeContext&) = delete;

  int node_id() const { return node_id_; }
  int num_nodes() const { return params_.num_nodes; }
  bool is_coordinator() const { return node_id_ == 0; }

  const SystemParams& params() const { return params_; }
  const AggregationSpec& spec() const { return spec_; }
  const AlgorithmOptions& options() const { return options_; }

  /// The resolved hash table bound M.
  int64_t max_hash_entries() const;
  int64_t crossover_threshold() const;
  int64_t few_groups_threshold() const;

  HeapFile* local_partition() { return local_partition_; }
  Disk* disk() { return disk_; }

  CostClock& clock() { return clock_; }
  NodeRunStats& stats() { return stats_; }

  /// This node's observability shard (metric registry, trace recorder,
  /// pre-bound handles). Always present; disabled configs make every
  /// update a no-op.
  NodeObs& obs() { return *obs_; }

  /// Folds the end-of-run values that are tracked elsewhere — NodeRunStats
  /// record counters, spill stats, the transport's inbox high-water —
  /// into the metric shard. Called once per node after the algorithm
  /// returns (by QueryExecution, or manually in standalone harnesses).
  void FinalizeObs();

  // --- messaging (costs charged via the NetworkModel) ---
  /// Stamps the per-destination sequence number and sends. Receivers use
  /// the sequence to discard duplicated messages and detect lost ones.
  Status Send(int to, Message msg);

  /// Blocking receive bounded by `timeout_s` (negative: wait forever);
  /// kDeadlineExceeded on timeout. Heartbeats are swallowed, duplicates
  /// discarded, and a sequence gap (a message lost or rejected in
  /// transit) returns a descriptive kNetworkError. There is deliberately
  /// no unbounded Recv here: algorithm code must not be able to hang on
  /// a lost message (adaptagg_lint enforces this outside src/net).
  Result<Message> RecvWithDeadline(double timeout_s);

  /// Non-blocking receive with the same validation as RecvWithDeadline:
  /// OK(nullopt) when the inbox is empty, an error on detected loss.
  Result<std::optional<Message>> TryRecv();

  /// Blocking receive honoring the run's failure-detection policy.
  /// `pending(p)` says whether this wait still needs traffic from node p
  /// — while armed, those peers' liveness (last time anything arrived
  /// from them, heartbeats included) is checked every tick and a silent
  /// peer aborts the wait with a descriptive status naming the node,
  /// this node's current phase, and the cause. Unarmed runs simply
  /// bound the wait by the derived idle deadline.
  Result<Message> AwaitMessage(const std::function<bool(int)>& pending);

  /// Re-queues a message this node popped but cannot handle yet (e.g. a
  /// data-phase page arriving while waiting for a control message).
  /// Stashed messages are returned by Recv/TryRecv — in stash order,
  /// before new network traffic — without charging receive costs again.
  void Stash(Message msg) { stash_.push_back(std::move(msg)); }

  /// Charges any disk I/O performed since the last sync (sequential and
  /// random page costs) onto the clock.
  void SyncDiskIo();

  // --- payload buffer pool ---
  /// Pops a recycled page-payload buffer (or an empty vector when the
  /// pool is dry) for an outgoing page; counts the hit or the fresh
  /// allocation into the node's metrics.
  std::vector<uint8_t> AcquirePageBuffer();

  /// Returns a finished payload buffer (a sent page's replaced builder
  /// buffer, or a fully decoded received page) to the pool.
  void ReleasePageBuffer(std::vector<uint8_t> buf);

  // --- failure detection and fault hooks ---
  /// Marks a phase boundary ("scan", "merge", "emit", "sample"): names
  /// the phase for failure diagnostics and fires any injected
  /// crash-at-phase fault. Algorithms call this when opening each phase.
  Status EnterPhase(const char* phase);

  /// Phase this node is currently executing (for diagnostics).
  const std::string& current_phase() const { return current_phase_; }

  /// Runtime servicing hook for inbox-poll sites: executes an injected
  /// straggle (wall-clock sleep) and, while armed, broadcasts a
  /// heartbeat when one is due. Cheap no-op on fault-free runs.
  void PollRuntime();

  /// Broadcasts a liveness beacon when armed and one is due. Heartbeats
  /// bypass the network cost model and all traffic stats: they exist in
  /// wall time only, so they cannot perturb simulated results.
  void MaybeHeartbeat();

  /// Fires an injected crash-at-tuple fault once the scan has passed its
  /// trigger index (checked by LocalScanner at batch granularity).
  Status CheckScanFault();

  /// True when failure detection is armed (explicitly enabled, or a
  /// non-empty fault plan is active).
  bool failure_detection_armed() const { return armed_; }

  /// True once this node executed an injected crash or hang. The
  /// recovery loop retries exactly when some node stopped this way —
  /// every other failure mode keeps its clean-abort semantics.
  bool crashed() const { return crashed_; }

  /// Next deterministic data-page sequence number toward `dest` (1, 2,
  /// ...). Stamped by Exchange::SendPage on kRawPage/kPartialPage frames;
  /// unlike the transport seq it never moves with wall-clock heartbeat
  /// traffic, so a replayed stream reproduces the same numbering.
  uint64_t NextPageSeq(int dest) {
    return ++page_seq_[static_cast<size_t>(dest)];
  }

  /// This node's recovery runtime hook (null when recovery is disabled;
  /// phase bodies then skip all checkpoint/restore work).
  RecoveryNode* recovery() { return recovery_; }
  void SetRecovery(RecoveryNode* recovery) { recovery_ = recovery; }

  /// Resolved idle deadline for blocking receives.
  double recv_idle_timeout_s() const { return idle_timeout_s_; }

  // --- result emission ---
  /// Finalizes (key, state) into a result row: charges t_w, stores it to
  /// the local result file (when the node has a disk), as the paper's
  /// store operator does, and keeps a copy in this node's row buffer (if
  /// gather_results).
  Status EmitFinalRow(const uint8_t* key, const uint8_t* state);

  /// Flushes the result file, syncs (charges) its I/O, then deletes it:
  /// the store's cost is the model's, and nothing reads the rows back.
  /// Call once per node at the end.
  Status FinishResults();

  /// Moves out the rows this node emitted, in emit order. The buffer is
  /// the node thread's alone, unlocked: call only once that thread is
  /// done with the attempt (after join, or after the acq_rel countdown
  /// in QueryExecution::RunNode has seen every node finish).
  std::vector<std::vector<uint8_t>> TakeRows() { return std::move(rows_); }

 private:
  /// Admission control for one message popped off the transport:
  /// updates liveness and sequence bookkeeping, swallows heartbeats and
  /// duplicates (returns false), errors on a detected sequence gap or a
  /// peer's close notice.
  Result<bool> AdmitIncoming(const Message& msg);

  /// Executes an injected crash (fail-stops the transport, closing this
  /// node's endpoint) or hang (swallows later sends, endpoint left open)
  /// and returns the descriptive error.
  Status InjectCrash(const std::string& where);

  int node_id_;
  const SystemParams& params_;
  const AggregationSpec& spec_;
  const AlgorithmOptions& options_;
  HeapFile* local_partition_;
  Disk* disk_;
  Transport* transport_;
  NetworkModel* net_;

  CostClock clock_;
  NodeRunStats stats_;
  std::unique_ptr<NodeObs> obs_;
  PagePool page_pool_;
  DiskStats last_disk_;
  std::deque<Message> stash_;

  // Failure detection (see DESIGN.md §9).
  bool armed_ = false;
  double idle_timeout_s_ = 60;
  double heartbeat_interval_s_ = 0;
  double phase_budget_s_ = 480;
  double tick_s_ = 0.25;
  std::string current_phase_ = "init";
  std::vector<uint64_t> send_seq_;
  std::vector<uint64_t> recv_seq_;
  std::vector<uint64_t> page_seq_;
  RecoveryNode* recovery_ = nullptr;
  std::vector<double> last_heard_;
  double last_heartbeat_wall_ = 0;

  // Injected node faults (resolved from the plan for this node).
  int64_t crash_at_tuple_ = -1;
  std::string crash_at_phase_;
  bool hang_ = false;
  double straggle_secs_ = 0;
  bool crashed_ = false;

  std::unique_ptr<HeapFile> result_file_;
  std::vector<uint8_t> row_buf_;
  std::vector<std::vector<uint8_t>> rows_;
};

/// This node's local input (§2's scan → select pipeline): a sequential
/// scan of the partition, one page run at a time, that applies the
/// run's WHERE predicate itself. Charges t_r per evaluated tuple and the
/// select cost t_r + t_w per surviving tuple; the scan's page I/O is
/// charged by NodeContext::SyncDiskIo. Counts surviving tuples into the
/// node's stats.
class LocalScanner {
 public:
  explicit LocalScanner(NodeContext* ctx);

  /// Clears `batch`, then gathers (projects) up to kBatchWidth surviving
  /// tuples into it and hashes their keys. Returns the batch size; 0 at
  /// end of input (or on error — check status()).
  int FillBatch(TupleBatch& batch);

  /// OK unless a page read failed or an injected scan fault fired.
  const Status& status() const { return status_; }

 private:
  NodeContext* ctx_;
  HeapFileScanner scanner_;
  /// The WHERE predicate (null: every tuple survives).
  const Expr* where_;
  Status status_;
  double select_cost_ = 0;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_CLUSTER_NODE_CONTEXT_H_
