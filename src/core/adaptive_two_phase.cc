#include "cluster/recovery.h"
#include "core/algorithm.h"
#include "core/phases.h"

namespace adaptagg {
namespace internal_core {

/// §3.2. Starts as Two Phase under the common-case assumption that groups
/// are few. The moment a node's local hash table fills (the point where
/// plain 2P would begin intermediate I/O), that node — independently of
/// all others — flushes its accumulated partials to their owner nodes,
/// frees the table, and repartitions its remaining raw tuples. The global
/// phase merges partial and raw records into one hash table.
class AdaptiveTwoPhase : public Algorithm {
 public:
  std::string name() const override { return "adaptive-two-phase"; }

  Status RunNode(NodeContext& ctx) const override {
    const SystemParams& p = ctx.params();
    const AggregationSpec& spec = ctx.spec();
    const int n = ctx.num_nodes();

    // Recovery bracket. The scan side is stateful (the local table and
    // the switch decision), but everything it sends is regenerated
    // deterministically by a from-scratch rescan — same switch tuple,
    // same page stream, same page_seq numbering. So, as in
    // Repartitioning, a checkpoint holds only the receiver side: the
    // global merge table plus per-origin fold watermarks, and replay
    // dedupes re-sent pages against the watermarks.
    RecoveryNode* rec = ctx.recovery();
    if (rec != nullptr) rec->BeginAttempt(ctx);
    const CheckpointState* restore =
        rec != nullptr ? rec->restore() : nullptr;

    SpillingAggregator global(&spec, ctx.disk(), ctx.max_hash_entries(),
                              ctx.options().spill_fanout,
                              "ga2p_n" + std::to_string(ctx.node_id()));
    DataReceiver recv(&ctx, &global, n);
    if (restore != nullptr) {
      ADAPTAGG_RETURN_IF_ERROR(global.RestoreFrom(
          restore->global_partials.data(), restore->global_partials.size()));
      recv.SetReplayWatermarks(restore->fold_watermarks);
    }
    if (rec != nullptr && rec->checkpointing()) {
      recv.set_post_fold_hook([&]() -> Status {
        if (!rec->TickBatch()) return Status::OK();
        CheckpointState snap;
        snap.scan_hwm = 0;
        snap.scan_complete = false;
        snap.fold_watermarks = recv.folded_watermarks();
        if (global.Snapshot(&snap.global_partials)) {
          rec->WriteCheckpoint(ctx, snap);
        } else {
          rec->CountSkipped(ctx);
        }
        return Status::OK();
      });
    }
    Exchange ex_partial(&ctx, MessageType::kPartialPage,
                        spec.partial_width(), kPhaseData);
    Exchange ex_raw(&ctx, MessageType::kRawPage, spec.projected_width(),
                    kPhaseData);
    const PartialDestFn dest = [n](uint64_t h) {
      return DestOfKeyHash(h, n);
    };

    // The switch threshold: the paper switches exactly at memory overflow
    // (fraction 1.0); the ablation knob scales it down.
    int64_t limit = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(ctx.max_hash_entries()) *
                                ctx.options().switch_fill_fraction));
    AggHashTable local(&spec, limit);

    bool repartition_mode = false;
    {
      ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("scan"));
      PhaseTimer scan_span = ctx.obs().StartPhase("scan");
      const double local_cost = p.t_r() + p.t_h() + p.t_a();
      const double route_cost = p.t_h() + p.t_d();
      ADAPTAGG_RETURN_IF_ERROR(RunBatchedScan(
          ctx,
          [&](const TupleBatch& batch, int64_t base) -> Status {
            const int sz = batch.size();
            int i = 0;
            while (i < sz && !repartition_mode) {
              // Stop-at-full upsert: batch record base-relative index i
              // + consumed is the precise tuple where the table filled.
              int consumed = local.UpsertProjectedBatch(batch, i);
              ctx.clock().AddCpu(static_cast<double>(consumed) *
                                 local_cost);
              i += consumed;
              if (i < sz) {
                // Memory overflow: flush accumulated partials, free the
                // table, and repartition from here on.
                ctx.clock().AddCpu(local_cost);
                ctx.stats().switched = true;
                ctx.stats().switch_at_tuple = base + i + 1;
                ctx.obs().RecordSwitch(
                    "switch.overflow",
                    {{"at_tuple", base + i + 1},
                     {"table_size", local.size()},
                     {"table_limit", limit}});
                ADAPTAGG_RETURN_IF_ERROR(
                    SendTablePartials(ctx, local, ex_partial, dest));
                repartition_mode = true;
                ctx.clock().AddCpu(p.t_d());
                ++ctx.stats().raw_records_sent;
                ADAPTAGG_RETURN_IF_ERROR(ex_raw.AddBatch(batch, i, i + 1));
                ++i;
              }
            }
            if (i < sz) {
              ctx.clock().AddCpu(static_cast<double>(sz - i) * route_cost);
              ctx.stats().raw_records_sent += sz - i;
              ADAPTAGG_RETURN_IF_ERROR(ex_raw.AddBatch(batch, i));
            }
            return Status::OK();
          },
          [&]() {
            ctx.SyncDiskIo();
            return recv.Poll();
          }));

      if (!repartition_mode) {
        // Never overflowed: behave exactly like Two Phase's handoff.
        ADAPTAGG_RETURN_IF_ERROR(
            SendTablePartials(ctx, local, ex_partial, dest));
      }
      ADAPTAGG_RETURN_IF_ERROR(ex_partial.FlushAll());
      ADAPTAGG_RETURN_IF_ERROR(ex_raw.FlushAll());
      ADAPTAGG_RETURN_IF_ERROR(BroadcastEos(&ctx, kPhaseData));
      scan_span.AddArg("tuples_scanned", ctx.stats().tuples_scanned);
      scan_span.AddArg("switched", repartition_mode ? 1 : 0);
    }
    AccumulateHashTableObs(ctx, local.stats());

    {
      ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("merge"));
      PhaseTimer merge_span = ctx.obs().StartPhase("merge");
      ADAPTAGG_RETURN_IF_ERROR(recv.Drain());
    }
    return EmitFinalResults(ctx, global);
  }
};

}  // namespace internal_core

std::unique_ptr<Algorithm> MakeAdaptiveTwoPhase() {
  return std::make_unique<internal_core::AdaptiveTwoPhase>();
}

}  // namespace adaptagg
