#ifndef ADAPTAGG_CLUSTER_RUN_ASSEMBLY_H_
#define ADAPTAGG_CLUSTER_RUN_ASSEMBLY_H_

#include <atomic>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/node_context.h"
#include "cluster/recovery.h"

namespace adaptagg {

/// The one query executor behind both entry points: the one-shot
/// Cluster::Run and the serving layer's ClusterService sessions. Each
/// algorithm is written once against NodeContext; QueryExecution is the
/// matching single copy of everything around it — option validation,
/// fault wrapping, context construction, failure fan-out, root-cause
/// selection, crash replay, and result assembly. The two executors
/// differ only in where an attempt's transports and disks come from and
/// in who owns the node threads.

/// Validates the WHERE/HAVING predicates of `options` against the
/// schemas they will be evaluated on (also resolves by-name column
/// references before node threads share the expression trees
/// read-only).
Status ValidateRunOptions(const AggregationSpec& spec,
                          const AlgorithmOptions& options);

/// One query from its first execution attempt to its final RunResult.
/// Callers run this loop:
///
///   QueryExecution exec(params, spec, options, algo);
///   do {
///     exec.BeginAttempt(transports, storage, wire_query_id);
///     RunNode(i) on N threads;       // the last one returns true
///   } while (exec.PrepareReplay());  // an injected crash earns a replay
///   RunResult result = exec.Finish();
///
/// Each attempt runs over fresh transports, network model and node
/// contexts (each context buffers its own emitted rows); only the
/// recovery runtime (and its checkpoint store) and the trace wall epoch
/// live for the whole query, so a replay reads what the crashed attempt
/// checkpointed and every attempt's trace events share one timeline
/// origin.
class QueryExecution {
 public:
  /// One node's storage for an attempt: the partition it scans and the
  /// disk its I/O is charged to.
  struct NodeStorage {
    HeapFile* partition = nullptr;
    Disk* disk = nullptr;
  };

  /// Resolves the recovery cadence once per query (an explicit
  /// options.recovery.checkpoint_every_batches, or the cost model's
  /// choice) and builds the recovery runtime when recovery is enabled.
  /// `spec` and `algo` must outlive the execution; `options` is copied
  /// so replays can prune the crash specs that fired.
  QueryExecution(const SystemParams& params, const AggregationSpec& spec,
                 AlgorithmOptions options, const Algorithm& algo);

  QueryExecution(const QueryExecution&) = delete;
  QueryExecution& operator=(const QueryExecution&) = delete;

  /// Starts an attempt over one endpoint and one NodeStorage per node:
  /// wraps each endpoint in a FaultyTransport when the fault plan is
  /// non-empty, and builds the network model and node contexts. Every
  /// frame of the attempt carries `wire_query_id`.
  void BeginAttempt(std::vector<std::unique_ptr<Transport>> transports,
                    const std::vector<NodeStorage>& storage,
                    uint32_t wire_query_id);

  /// Runs node `i` of the current attempt on the calling thread; a
  /// failing node broadcasts an abort to its peers. Returns true for the
  /// attempt's last node to finish — the acq_rel countdown makes every
  /// node's writes visible to that caller, which then calls
  /// PrepareReplay.
  bool RunNode(int i);

  /// After an attempt: true — with the fired crash specs pruned so the
  /// replay runs them clean and a double-crash plan terminates — when
  /// the attempt failed, some node crashed by injection, recovery is
  /// armed, and the attempt cap is not reached. The crashed attempt's
  /// contexts and transports are then released, so the caller may free
  /// that attempt's storage and must start the next attempt; otherwise
  /// it calls Finish.
  bool PrepareReplay();

  /// Folds the final attempt into the query's RunResult: status (the
  /// root cause among node statuses), wall time, modeled times, stats,
  /// merged metrics (with recovery.attempts and one
  /// recovery.attempt_wall_us observation per attempt), trace events and
  /// the nodes' rows, concatenated in node order.
  RunResult Finish();

 private:
  const SystemParams params_;
  const AggregationSpec& spec_;
  AlgorithmOptions options_;
  const Algorithm& algo_;
  /// Query id of the first attempt: the id the result reports.
  const uint32_t query_id_;
  /// WallSeconds() at construction: the query's wall-time origin and the
  /// trace wall epoch of every attempt.
  const double wall_epoch_s_;

  int64_t ckpt_every_ = 0;
  std::unique_ptr<RecoveryRuntime> recovery_;
  int attempt_ = 0;
  std::vector<double> attempt_wall_s_;

  // Per-attempt state, rebuilt by BeginAttempt.
  std::vector<std::unique_ptr<Transport>> transports_;
  std::unique_ptr<NetworkModel> net_;
  std::vector<std::unique_ptr<NodeContext>> contexts_;
  std::vector<Status> statuses_;
  double attempt_start_s_ = 0;
  std::atomic<int> nodes_remaining_{0};
  std::atomic<bool> failure_seen_{false};
  std::atomic<double> first_failure_wall_{0.0};
};

}  // namespace adaptagg

#endif  // ADAPTAGG_CLUSTER_RUN_ASSEMBLY_H_
