#include "cluster/recovery.h"

#include <utility>

#include "cluster/node_context.h"
#include "common/logging.h"
#include "storage/faulty_disk.h"

namespace adaptagg {
namespace {

/// Checkpoint disks for a query: plain SimDisks unless the fault plan
/// targets a node's checkpoint disk with disk-fail or torn-write.
CheckpointStore::DiskFactory CheckpointDiskFactory(const FaultPlan& plan,
                                                   int page_size) {
  if (!plan.HasCheckpointDiskFaults()) return {};
  return [plan, page_size](int node) -> std::unique_ptr<Disk> {
    const int64_t fail_nth = plan.DiskFailNthForNode(node);
    if (fail_nth >= 0) {
      auto disk = std::make_unique<FaultySimDisk>(page_size);
      disk->FailWritesAfter(fail_nth);
      return disk;
    }
    const int64_t tear_nth = plan.TornWriteNthForNode(node);
    if (tear_nth >= 0) {
      auto disk = std::make_unique<TornWriteDisk>(page_size);
      disk->TearWrite(tear_nth);
      return disk;
    }
    return std::make_unique<SimDisk>(page_size);
  };
}

}  // namespace

RecoveryNode::RecoveryNode(CheckpointStore* store, int node,
                           int64_t every_batches)
    : store_(store), node_(node), every_(every_batches) {}

void RecoveryNode::BeginAttempt(NodeContext& ctx) {
  ticks_ = 0;
  restore_.reset();
  if (!store_->Has(node_)) return;
  Result<CheckpointState> loaded = store_->Load(node_);
  if (!loaded.ok()) {
    // A torn or truncated checkpoint must never become a wrong answer:
    // count it, drop it, and replay this node from scratch.
    ctx.obs().recovery_checkpoint_data_loss.Increment();
    ctx.obs().RecordFault(
        "recovery.checkpoint_data_loss",
        {{"node", node_},
         {"code", static_cast<int64_t>(loaded.status().code())}});
    ADAPTAGG_LOG(kWarning) << "node " << node_ << ": "
                           << loaded.status().ToString()
                           << "; replaying from scratch";
    store_->Drop(node_);
    return;
  }
  restore_ = std::make_unique<CheckpointState>(std::move(loaded).value());
  ctx.obs().recovery_nodes_restored.Increment();
}

bool RecoveryNode::TickBatch() {
  if (every_ <= 0) return false;
  return ++ticks_ % every_ == 0;
}

void RecoveryNode::WriteCheckpoint(NodeContext& ctx,
                                   const CheckpointState& state) {
  const Status st = store_->Write(node_, state);
  if (!st.ok()) {
    ctx.obs().recovery_checkpoint_failures.Increment();
    ctx.obs().RecordFault(
        "recovery.checkpoint_write_failed",
        {{"node", node_}, {"code", static_cast<int64_t>(st.code())}});
    return;
  }
  ctx.obs().recovery_checkpoints_written.Increment();
  ctx.obs().recovery_checkpoint_bytes.Add(store_->last_write_bytes(node_));
}

void RecoveryNode::CountSkipped(NodeContext& ctx) {
  ctx.obs().recovery_checkpoints_skipped.Increment();
}

RecoveryRuntime::RecoveryRuntime(int num_nodes, int page_size,
                                 int64_t every_batches, const FaultPlan& plan)
    : store_(num_nodes, page_size, CheckpointDiskFactory(plan, page_size)) {
  nodes_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    nodes_.emplace_back(&store_, i, every_batches);
  }
}

}  // namespace adaptagg
