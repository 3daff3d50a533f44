#include <algorithm>
#include <unordered_set>

#include "core/algorithm.h"
#include "core/phases.h"

namespace adaptagg {
namespace internal_core {

/// §3.3. Starts as Repartitioning (the right call when the optimizer
/// expects many groups). Each node watches how many distinct groups it
/// has seen in its first `init_seg` scanned tuples; if too few, it
/// broadcasts an end-of-phase message and switches to the Adaptive Two
/// Phase strategy for its remaining tuples. Nodes receiving end-of-phase
/// follow suit. The global phase keeps the hash table built during the
/// repartitioning segment, so nothing already shipped is lost.
class AdaptiveRepartitioning : public Algorithm {
 public:
  std::string name() const override { return "adaptive-repartitioning"; }

  Status RunNode(NodeContext& ctx) const override {
    const SystemParams& p = ctx.params();
    const AggregationSpec& spec = ctx.spec();
    const int n = ctx.num_nodes();

    SpillingAggregator global(&spec, ctx.disk(), ctx.max_hash_entries(),
                              ctx.options().spill_fanout,
                              "garep_n" + std::to_string(ctx.node_id()));
    DataReceiver recv(&ctx, &global, n);
    Exchange ex_partial(&ctx, MessageType::kPartialPage,
                        spec.partial_width(), kPhaseData);
    Exchange ex_raw(&ctx, MessageType::kRawPage, spec.projected_width(),
                    kPhaseData);
    const PartialDestFn dest = [n](uint64_t h) {
      return DestOfKeyHash(h, n);
    };

    AggHashTable local(&spec, ctx.max_hash_entries());

    enum class Mode { kRepartition, kLocalAgg, kRepartitionAgain };
    Mode mode = Mode::kRepartition;
    bool broadcast_sent = false;

    // Distinct groups among this node's first init_seg tuples (tracked by
    // key hash; collisions only make the count conservative).
    const int64_t init_seg = ctx.options().init_seg;
    const int64_t few_groups = ctx.few_groups_threshold();
    std::unordered_set<uint64_t> seen_groups;
    bool judged = false;

    auto switch_to_local = [&](bool own_decision,
                               int64_t at_tuple) -> Status {
      ctx.stats().switched = true;
      ctx.stats().switch_at_tuple = at_tuple;
      ctx.obs().RecordSwitch(
          "switch.end_of_phase",
          {{"at_tuple", at_tuple},
           {"own_decision", own_decision ? 1 : 0},
           {"seen_groups", static_cast<int64_t>(seen_groups.size())},
           {"init_seg", init_seg},
           {"few_groups_threshold", few_groups}});
      mode = Mode::kLocalAgg;
      if (own_decision && !broadcast_sent) {
        broadcast_sent = true;
        Message eop;
        eop.type = MessageType::kEndOfPhase;
        eop.phase = kPhaseData;
        ADAPTAGG_RETURN_IF_ERROR(Broadcast(&ctx, eop));
      } else if (!own_decision && !broadcast_sent) {
        // Follow suit (§3.3): acknowledge with our own end-of-phase.
        broadcast_sent = true;
        Message eop;
        eop.type = MessageType::kEndOfPhase;
        eop.phase = kPhaseData;
        ADAPTAGG_RETURN_IF_ERROR(Broadcast(&ctx, eop));
      }
      return Status::OK();
    };

    {
      ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("scan"));
      PhaseTimer scan_span = ctx.obs().StartPhase("scan");
      const double route_cost = p.t_h() + p.t_d();
      const double local_cost = p.t_r() + p.t_h() + p.t_a();

      // Routes batch records [i, sz) to their owner nodes in one go.
      auto route_run = [&](const TupleBatch& batch, int i,
                           int sz) -> Status {
        ctx.clock().AddCpu(static_cast<double>(sz - i) * route_cost);
        ctx.stats().raw_records_sent += sz - i;
        return ex_raw.AddBatch(batch, i, sz);
      };

      auto process = [&](const TupleBatch& batch, int64_t base) -> Status {
        const int sz = batch.size();
        int i = 0;
        while (i < sz) {
          switch (mode) {
            case Mode::kRepartition: {
              if (judged) {
                // The judgment is behind us and the mode can only change
                // at a poll: bulk-route the rest of the batch.
                ADAPTAGG_RETURN_IF_ERROR(route_run(batch, i, sz));
                i = sz;
                break;
              }
              // Until the init_seg judgment: census the hashes tuple by
              // tuple up to the judgment index, batch-route that prefix,
              // then decide — the census contents and the decision tuple
              // are exactly the per-tuple loop's (routing and the census
              // are independent, so their relative order is free).
              // The per-tuple loop judged after processing the first
              // tuple whose 1-based global index reached init_seg; the
              // prefix it processed this batch is [0, stop).
              const int64_t until_judgment = init_seg - base;
              const int stop = static_cast<int>(
                  std::clamp<int64_t>(until_judgment, 1, sz));
              const bool judge_now = until_judgment <= sz;
              for (int j = i; j < stop; ++j) {
                if (static_cast<int64_t>(seen_groups.size()) <=
                    few_groups) {
                  seen_groups.insert(batch.hash(j));
                }
              }
              ADAPTAGG_RETURN_IF_ERROR(route_run(batch, i, stop));
              i = stop;
              if (judge_now) {
                judged = true;
                if (static_cast<int64_t>(seen_groups.size()) <
                    few_groups) {
                  ADAPTAGG_RETURN_IF_ERROR(switch_to_local(
                      /*own_decision=*/true, base + stop));
                }
              }
              break;
            }
            case Mode::kLocalAgg: {
              int consumed = local.UpsertProjectedBatch(batch, i);
              ctx.clock().AddCpu(static_cast<double>(consumed) *
                                 local_cost);
              i += consumed;
              if (i < sz) {
                // A-2P's own overflow switch: flush and repartition
                // again, starting with the tuple that found the table
                // full.
                ctx.clock().AddCpu(local_cost);
                ctx.obs().RecordSwitch(
                    "switch.overflow",
                    {{"at_tuple", base + i + 1},
                     {"table_size", local.size()},
                     {"table_limit", ctx.max_hash_entries()}});
                ADAPTAGG_RETURN_IF_ERROR(
                    SendTablePartials(ctx, local, ex_partial, dest));
                mode = Mode::kRepartitionAgain;
                ctx.clock().AddCpu(p.t_d());
                ++ctx.stats().raw_records_sent;
                ADAPTAGG_RETURN_IF_ERROR(ex_raw.AddBatch(batch, i, i + 1));
                ++i;
              }
              break;
            }
            case Mode::kRepartitionAgain: {
              ADAPTAGG_RETURN_IF_ERROR(route_run(batch, i, sz));
              i = sz;
              break;
            }
          }
        }
        return Status::OK();
      };

      auto poll = [&]() -> Status {
        ctx.SyncDiskIo();
        ADAPTAGG_RETURN_IF_ERROR(recv.Poll());
        if (mode == Mode::kRepartition && recv.end_of_phase_seen()) {
          // Polls happen only on full-batch boundaries, so this matches
          // the per-tuple loop's switch point (a poll-interval multiple).
          ADAPTAGG_RETURN_IF_ERROR(switch_to_local(
              /*own_decision=*/false, ctx.stats().tuples_scanned));
        }
        return Status::OK();
      };

      ADAPTAGG_RETURN_IF_ERROR(RunBatchedScan(ctx, process, poll));

      if (mode == Mode::kLocalAgg && local.size() > 0) {
        ADAPTAGG_RETURN_IF_ERROR(
            SendTablePartials(ctx, local, ex_partial, dest));
      }
      ADAPTAGG_RETURN_IF_ERROR(ex_partial.FlushAll());
      ADAPTAGG_RETURN_IF_ERROR(ex_raw.FlushAll());
      ADAPTAGG_RETURN_IF_ERROR(BroadcastEos(&ctx, kPhaseData));
      scan_span.AddArg("tuples_scanned", ctx.stats().tuples_scanned);
      scan_span.AddArg("switched", ctx.stats().switched ? 1 : 0);
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

std::unique_ptr<Algorithm> MakeAdaptiveRepartitioning() {
  return std::make_unique<internal_core::AdaptiveRepartitioning>();
}

}  // namespace adaptagg
