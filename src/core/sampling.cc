#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "core/algorithm.h"
#include "core/phases.h"
#include "model/locality_model.h"
#include "model/sampling_model.h"

namespace adaptagg {
namespace internal_core {
namespace {

/// Decision broadcast payload: [u8 use_repartitioning][u64 estimated
/// global groups, LE]. The message's charged_bytes pins the modeled
/// network charge to the historical 1-byte decision, so the estimate
/// rides free on the cost model.
constexpr size_t kDecisionBytes = 9;

/// Phase 0 of the Sampling algorithm: page-oriented random sampling on
/// every node, distinct keys unioned at the coordinator, decision
/// broadcast back. Returns true when Repartitioning should run.
Result<bool> DecideBySampling(NodeContext& ctx) {
  const SystemParams& p = ctx.params();
  const AggregationSpec& spec = ctx.spec();
  const Schema& schema = spec.input_schema();
  const int kCoordinator = 0;
  const int n = ctx.num_nodes();

  const int64_t threshold = ctx.crossover_threshold();
  const int64_t total_sample = ctx.options().sample_size > 0
                                   ? ctx.options().sample_size
                                   : RequiredSampleSize(threshold);
  const int64_t per_node = (total_sample + n - 1) / n;

  HeapFile* part = ctx.local_partition();
  const int tuples_per_page =
      PageBuilder::Capacity(ctx.disk()->page_size(), schema.tuple_size());
  int64_t pages_needed =
      (per_node + tuples_per_page - 1) / tuples_per_page;
  pages_needed = std::min<int64_t>(pages_needed, part->num_pages());

  // Page-oriented random sampling on the local partition [Ses92].
  Prng prng(ctx.options().seed + 0x9000 +
            static_cast<uint64_t>(ctx.node_id()));
  std::vector<uint64_t> page_ids;
  if (pages_needed > 0) {
    page_ids = prng.SampleWithoutReplacement(
        static_cast<uint64_t>(part->num_pages()),
        static_cast<uint64_t>(pages_needed));
  }

  std::unordered_set<std::string> local_keys;
  int64_t sampled = 0;
  {
    std::vector<uint8_t> page_bytes;
    std::vector<uint8_t> proj(static_cast<size_t>(spec.projected_width()));
    const double select_cost = p.t_r() + p.t_w();
    const double agg_cost = p.t_r() + p.t_h() + p.t_a();
    for (uint64_t page_id : page_ids) {
      ADAPTAGG_RETURN_IF_ERROR(ctx.disk()->ReadPage(
          part->file_id(), static_cast<int64_t>(page_id), page_bytes));
      ctx.SyncDiskIo();
      PageReader reader(page_bytes.data(), ctx.disk()->page_size(),
                        schema.tuple_size());
      // Examination cost is page-at-a-time: every sampled tuple is
      // read and hashed before the WHERE filter applies.
      const int take = static_cast<int>(std::min<int64_t>(
          reader.count(), per_node - sampled));
      sampled += take;
      ctx.clock().AddCpu(static_cast<double>(take) *
                         (select_cost + agg_cost));
      for (int i = 0; i < take; ++i) {
        TupleView t(reader.record(i), &schema);
        // Sampling estimates the groups of the *filtered* relation when
        // the query has a WHERE clause.
        if (ctx.options().where != nullptr &&
            !EvalPredicate(*ctx.options().where, t)) {
          continue;
        }
        spec.ProjectRaw(t, proj.data());
        local_keys.emplace(
            reinterpret_cast<const char*>(spec.KeyOfProjected(proj.data())),
            static_cast<size_t>(spec.key_width()));
      }
    }
  }

  // Invert the sample into a per-node group estimate for the locality
  // model: radix pre-partitioning engages when the estimated working
  // set exceeds L2. Free — the sample was already paid for above.
  ctx.set_estimated_local_groups(EstimateGroupsFromSample(
      sampled, static_cast<int64_t>(local_keys.size()),
      part->num_tuples()));

  // Ship the locally observed distinct keys to the coordinator in
  // sorted order: iterating the unordered set directly would make the
  // wire bytes depend on the standard library's hash layout (lint D3).
  // The coordinator only counts distinct keys, so the decision itself
  // never depended on the order — this pins the transcript, not the
  // outcome.
  std::vector<std::string> sorted_keys(local_keys.begin(),
                                       local_keys.end());
  std::sort(sorted_keys.begin(), sorted_keys.end());
  Exchange ex(&ctx, MessageType::kPartialPage, spec.key_width(),
              kPhaseSample);
  for (const std::string& key : sorted_keys) {
    ctx.clock().AddCpu(p.t_w());
    ADAPTAGG_RETURN_IF_ERROR(ex.AddRecord(
        kCoordinator, reinterpret_cast<const uint8_t*>(key.data())));
  }
  ADAPTAGG_RETURN_IF_ERROR(ex.FlushAll());
  {
    Message eos;
    eos.type = MessageType::kEndOfStream;
    eos.phase = kPhaseSample;
    ADAPTAGG_RETURN_IF_ERROR(ctx.Send(kCoordinator, eos));
  }

  if (ctx.is_coordinator()) {
    // Union the keys and judge the group count against the threshold.
    // Await every node that has not yet sent its sample end-of-stream;
    // a node that dies mid-sample is named by the failed wait.
    std::unordered_set<std::string> all_keys;
    std::vector<bool> eos_from(static_cast<size_t>(n), false);
    int eos_seen = 0;
    while (eos_seen < n) {
      ADAPTAGG_ASSIGN_OR_RETURN(
          Message msg, ctx.AwaitMessage([&eos_from](int peer) {
            return !eos_from[static_cast<size_t>(peer)];
          }));
      if (msg.type == MessageType::kEndOfStream &&
          msg.phase == kPhaseSample) {
        if (msg.from >= 0 && msg.from < n &&
            !eos_from[static_cast<size_t>(msg.from)]) {
          eos_from[static_cast<size_t>(msg.from)] = true;
          ++eos_seen;
        }
        continue;
      }
      if (msg.type == MessageType::kAbort) {
        return Status::Internal("aborted by peer node " +
                                std::to_string(msg.from));
      }
      if (msg.type != MessageType::kPartialPage ||
          msg.phase != kPhaseSample) {
        return Status::Internal("unexpected message during sampling: " +
                                MessageTypeToString(msg.type));
      }
      ADAPTAGG_RETURN_IF_ERROR(ForEachRecordInPage(
          msg, spec.key_width(), p.message_page_bytes,
          [&](const uint8_t* rec) {
            ctx.clock().AddCpu(p.t_r());
            all_keys.emplace(reinterpret_cast<const char*>(rec),
                             static_cast<size_t>(spec.key_width()));
          }));
    }
    bool use_repartitioning =
        static_cast<int64_t>(all_keys.size()) >= threshold;

    // Global group estimate from the unioned keys: every node's merge
    // table owns ~1/N of it, which sizes the merge-side radix decision.
    const int64_t est_global = EstimateGroupsFromSample(
        total_sample, static_cast<int64_t>(all_keys.size()),
        static_cast<int64_t>(n) * part->num_tuples());

    Message decision;
    decision.type = MessageType::kControl;
    decision.phase = kPhaseSample;
    decision.payload.assign(kDecisionBytes, 0);
    decision.payload[0] = use_repartitioning ? uint8_t{1} : uint8_t{0};
    for (int i = 0; i < 8; ++i) {
      decision.payload[static_cast<size_t>(1 + i)] = static_cast<uint8_t>(
          static_cast<uint64_t>(est_global) >> (8 * i));
    }
    decision.charged_bytes = 1;  // the historical 1-byte decision charge
    ADAPTAGG_RETURN_IF_ERROR(Broadcast(&ctx, decision));
  }

  // Wait for the decision. Anything else that arrives early belongs to
  // the data phase of faster nodes; buffer it locally and stash it only
  // once the control message is in hand (stashing inside the loop would
  // make Recv return the same message forever).
  std::vector<Message> pending;
  while (true) {
    ADAPTAGG_ASSIGN_OR_RETURN(
        Message msg, ctx.AwaitMessage([kCoordinator](int peer) {
          return peer == kCoordinator;
        }));
    if (msg.type == MessageType::kAbort) {
      return Status::Internal("aborted by peer node " +
                              std::to_string(msg.from));
    }
    if (msg.type == MessageType::kControl && msg.phase == kPhaseSample) {
      if (msg.payload.size() != kDecisionBytes) {
        return Status::Internal("bad sampling decision payload");
      }
      uint64_t est = 0;
      for (int i = 0; i < 8; ++i) {
        est |= static_cast<uint64_t>(
                   msg.payload[static_cast<size_t>(1 + i)])
               << (8 * i);
      }
      ctx.set_estimated_global_groups(static_cast<int64_t>(est));
      for (Message& m : pending) {
        ctx.Stash(std::move(m));
      }
      return msg.payload[0] != 0;
    }
    pending.push_back(std::move(msg));
  }
}

/// §3.1. Samples the relation to estimate whether the number of groups is
/// small (choose Two Phase) or large (choose Repartitioning). The
/// estimate only needs to resolve "below or above the crossover
/// threshold", which keeps the sample small (~10x the threshold).
class Sampling : public Algorithm {
 public:
  std::string name() const override { return "sampling"; }

  Status RunNode(NodeContext& ctx) const override {
    bool use_repartitioning = false;
    {
      ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("sample"));
      PhaseTimer sample_span = ctx.obs().StartPhase("sample");
      ADAPTAGG_ASSIGN_OR_RETURN(use_repartitioning, DecideBySampling(ctx));
      sample_span.AddArg("use_repartitioning", use_repartitioning ? 1 : 0);
    }
    return use_repartitioning ? RunRepartitioningBody(ctx)
                              : RunTwoPhaseBody(ctx);
  }
};

}  // namespace
}  // namespace internal_core

std::unique_ptr<Algorithm> MakeSampling() {
  return std::make_unique<internal_core::Sampling>();
}

}  // namespace adaptagg
