#include "core/algorithm.h"
#include "core/phases.h"

namespace adaptagg {
namespace internal_core {

/// [Gra93]'s optimized Two Phase, discussed (and argued against) in §3.2:
/// when the local hash table fills, locally generated tuples that miss
/// the table are hash-partitioned and forwarded to their owner's global
/// phase instead of being spooled locally — but the local table is kept
/// (and keeps absorbing hits) until the scan ends. Compared with A-2P it
/// (1) still sends tuples that find no entry at the destination, (2)
/// passes every tuple through both phases, and (3) never frees the local
/// phase's memory. Implemented as an ablation baseline.
class GraefeTwoPhase : public Algorithm {
 public:
  std::string name() const override { return "graefe-two-phase"; }

  Status RunNode(NodeContext& ctx) const override {
    const SystemParams& p = ctx.params();
    const AggregationSpec& spec = ctx.spec();
    const int n = ctx.num_nodes();

    SpillingAggregator global(&spec, ctx.disk(), ctx.max_hash_entries(),
                              kSpillFanout,
                              "ggra_n" + std::to_string(ctx.node_id()));
    DataReceiver recv(&ctx, &global, n);
    Exchange ex_partial(&ctx, MessageType::kPartialPage,
                        spec.partial_width(), kPhaseData);
    Exchange ex_raw(&ctx, MessageType::kRawPage, spec.projected_width(),
                    kPhaseData);

    AggHashTable local(&spec, ctx.max_hash_entries());
    {
      ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("scan"));
      PhaseTimer scan_span = ctx.obs().StartPhase("scan");
      const double local_cost = p.t_r() + p.t_h() + p.t_a();
      std::vector<int> overflow;
      ADAPTAGG_RETURN_IF_ERROR(RunBatchedScan(
          ctx,
          [&](const TupleBatch& batch, int64_t base) -> Status {
            ctx.clock().AddCpu(static_cast<double>(batch.size()) *
                               local_cost);
            overflow.clear();
            local.UpsertProjectedBatchOverflow(batch, 0, overflow);
            if (!overflow.empty()) {
              if (!ctx.stats().switched) {
                ctx.stats().switched = true;
                ctx.stats().switch_at_tuple = base + overflow.front() + 1;
                ctx.obs().RecordSwitch(
                    "switch.overflow_forwarding",
                    {{"at_tuple", base + overflow.front() + 1},
                     {"table_size", local.size()},
                     {"table_limit", ctx.max_hash_entries()}});
              }
              // Forward the overflow tuples to their owners' global
              // phases in one scatter.
              ctx.clock().AddCpu(static_cast<double>(overflow.size()) *
                                 p.t_d());
              ctx.stats().raw_records_sent +=
                  static_cast<int64_t>(overflow.size());
              ADAPTAGG_RETURN_IF_ERROR(ex_raw.AddIndices(
                  batch, overflow.data(),
                  static_cast<int>(overflow.size())));
            }
            return Status::OK();
          },
          [&]() {
            ctx.SyncDiskIo();
            return recv.Poll();
          }));

      ADAPTAGG_RETURN_IF_ERROR(SendTablePartials(
          ctx, local, ex_partial,
          [n](uint64_t h) { return DestOfKeyHash(h, n); }));
      ADAPTAGG_RETURN_IF_ERROR(ex_partial.FlushAll());
      ADAPTAGG_RETURN_IF_ERROR(ex_raw.FlushAll());
      ADAPTAGG_RETURN_IF_ERROR(BroadcastEos(&ctx, kPhaseData));
      scan_span.AddArg("tuples_scanned", ctx.stats().tuples_scanned);
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

std::unique_ptr<Algorithm> MakeGraefeTwoPhase() {
  return std::make_unique<internal_core::GraefeTwoPhase>();
}

}  // namespace adaptagg
