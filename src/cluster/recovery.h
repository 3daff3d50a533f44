#ifndef ADAPTAGG_CLUSTER_RECOVERY_H_
#define ADAPTAGG_CLUSTER_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/fault.h"
#include "storage/checkpoint.h"

namespace adaptagg {

class NodeContext;

/// Per-node handle for checkpointed fault recovery. The phase bodies use
/// it at three points:
///
///   1. `BeginAttempt` at body start loads the node's latest durable
///      checkpoint (if any) into `restore()` — a torn or corrupted
///      checkpoint is counted, dropped, and treated as "replay from
///      scratch", never as an answer-changing restore.
///   2. `TickBatch` counts checkpointable progress (one scan batch or one
///      folded exchange page) and fires every `every_batches` units.
///   3. `WriteCheckpoint` durably persists a snapshot; a failed write is
///      counted and leaves the previous checkpoint as latest.
///
/// Checkpoint I/O runs on the store's dedicated disks, never the node's
/// cost-charged SimDisk, so enabling checkpointing cannot perturb the
/// modeled execution time. No wall-clock reads happen here; attempt
/// timing lives in QueryExecution.
class RecoveryNode {
 public:
  RecoveryNode(CheckpointStore* store, int node, int64_t every_batches);

  /// True when a checkpoint cadence is configured (`every_batches > 0`).
  /// False still allows restores written by an earlier attempt — a run
  /// that loses its cadence mid-flight keeps whatever it saved.
  bool checkpointing() const { return every_ > 0; }
  int64_t every_batches() const { return every_; }

  /// Starts a (re-)execution attempt on the owning node's thread: resets
  /// the batch cadence and loads the latest checkpoint into `restore()`.
  /// kNotFound leaves `restore()` null (scratch replay); kDataLoss bumps
  /// recovery.checkpoint_data_loss, drops the bad checkpoint, and also
  /// falls back to scratch.
  void BeginAttempt(NodeContext& ctx);

  /// The state restored by the last `BeginAttempt`, or nullptr when the
  /// attempt starts from scratch. Valid until the next `BeginAttempt`.
  const CheckpointState* restore() const { return restore_.get(); }

  /// Counts one unit of checkpointable progress; true when a checkpoint
  /// is due. Always false when `checkpointing()` is off.
  bool TickBatch();

  /// Durably writes `state` as the node's new latest checkpoint, bumping
  /// recovery.checkpoints_written / recovery.checkpoint_bytes. A write
  /// failure bumps recovery.checkpoint_failures and keeps the previous
  /// checkpoint as latest — recovery degrades, the query does not fail.
  void WriteCheckpoint(NodeContext& ctx, const CheckpointState& state);

  /// Counts a checkpoint opportunity skipped because the aggregation
  /// state was not snapshottable (spilled to disk).
  void CountSkipped(NodeContext& ctx);

 private:
  CheckpointStore* store_;
  int node_;
  int64_t every_;
  int64_t ticks_ = 0;
  std::unique_ptr<CheckpointState> restore_;
};

/// Query-scoped recovery state shared across re-execution attempts: the
/// durable checkpoint store plus one RecoveryNode per cluster node.
/// Owned by the QueryExecution of a recovering query (one-shot or
/// served) and kept alive across attempts so a replay can read what the
/// crashed attempt wrote.
class RecoveryRuntime {
 public:
  /// `every_batches` is the resolved checkpoint cadence (0 = never). The
  /// checkpoint disks are plain SimDisks unless `plan` targets a node's
  /// checkpoint disk with disk-fail or torn-write.
  RecoveryRuntime(int num_nodes, int page_size, int64_t every_batches,
                  const FaultPlan& plan);

  RecoveryRuntime(const RecoveryRuntime&) = delete;
  RecoveryRuntime& operator=(const RecoveryRuntime&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  RecoveryNode& node(int i) { return nodes_[static_cast<size_t>(i)]; }
  CheckpointStore& store() { return store_; }

 private:
  CheckpointStore store_;
  std::vector<RecoveryNode> nodes_;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_CLUSTER_RECOVERY_H_
