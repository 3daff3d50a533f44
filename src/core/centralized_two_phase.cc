#include "core/algorithm.h"
#include "core/phases.h"

namespace adaptagg {
namespace internal_core {

/// §2.1. Every node aggregates its partition locally and sends the
/// partial results to a single coordinator (node 0), which merges them
/// sequentially and stores the final result. Simple, but the coordinator
/// is a serial bottleneck as soon as the number of groups grows.
class CentralizedTwoPhase : public Algorithm {
 public:
  std::string name() const override { return "centralized-two-phase"; }

  Status RunNode(NodeContext& ctx) const override {
    const SystemParams& p = ctx.params();
    const AggregationSpec& spec = ctx.spec();
    const int n = ctx.num_nodes();
    const int kCoordinator = 0;

    // Only the coordinator merges; workers expect no incoming traffic.
    SpillingAggregator global(&spec, ctx.disk(), ctx.max_hash_entries(),
                              kSpillFanout,
                              "gc2p_n" + std::to_string(ctx.node_id()));
    DataReceiver recv(&ctx, &global, ctx.is_coordinator() ? n : 0);
    Exchange ex(&ctx, MessageType::kPartialPage, spec.partial_width(),
                kPhaseData);

    // Phase 1: local aggregation.
    SpillingAggregator local(&spec, ctx.disk(), ctx.max_hash_entries(),
                             kSpillFanout,
                             "lc2p_n" + std::to_string(ctx.node_id()));
    {
      ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("scan"));
      PhaseTimer scan_span = ctx.obs().StartPhase("scan");
      const double agg_cost = p.t_r() + p.t_h() + p.t_a();
      ADAPTAGG_RETURN_IF_ERROR(RunBatchedScan(
          ctx,
          [&](const TupleBatch& batch, int64_t) {
            ctx.clock().AddCpu(static_cast<double>(batch.size()) *
                               agg_cost);
            return local.AddProjectedBatch(batch);
          },
          [&]() {
            // Workers expect no traffic before their send; only the
            // coordinator services its inbox mid-scan. Workers still run
            // the fault/heartbeat hooks so the coordinator can tell a
            // slow worker from a dead one.
            if (!ctx.is_coordinator()) {
              ctx.PollRuntime();
              return Status::OK();
            }
            ctx.SyncDiskIo();
            return recv.Poll();
          }));

      // All partials go to the coordinator.
      ADAPTAGG_RETURN_IF_ERROR(SendPartials(
          ctx, local, ex, [](uint64_t) { return kCoordinator; }));
      ADAPTAGG_RETURN_IF_ERROR(ex.FlushAll());
      Message eos;
      eos.type = MessageType::kEndOfStream;
      eos.phase = kPhaseData;
      ADAPTAGG_RETURN_IF_ERROR(ctx.Send(kCoordinator, eos));
      scan_span.AddArg("tuples_scanned", ctx.stats().tuples_scanned);
    }

    if (!ctx.is_coordinator()) {
      // Workers are done once their partials left.
      ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("emit"));
      PhaseTimer emit_span = ctx.obs().StartPhase("emit");
      return ctx.FinishResults();
    }

    // Phase 2: sequential merge and store.
    {
      ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("merge"));
      PhaseTimer merge_span = ctx.obs().StartPhase("merge");
      ADAPTAGG_RETURN_IF_ERROR(recv.Drain());
    }
    return EmitFinalResults(ctx, global);
  }
};

}  // namespace internal_core

std::unique_ptr<Algorithm> MakeCentralizedTwoPhase() {
  return std::make_unique<internal_core::CentralizedTwoPhase>();
}

}  // namespace adaptagg
