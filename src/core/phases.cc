#include "core/phases.h"

#include <algorithm>
#include <cstring>

#include "cluster/recovery.h"
#include "common/logging.h"

namespace adaptagg {
namespace {

/// Packs one finished group into `rec` as a partial record and routes
/// it to dest(key hash), charging t_w.
Status SendPartial(NodeContext& ctx, Exchange& ex, const PartialDestFn& dest,
                   const uint8_t* key, const uint8_t* state,
                   std::vector<uint8_t>& rec) {
  const AggregationSpec& spec = ctx.spec();
  ctx.clock().AddCpu(ctx.params().t_w());
  std::memcpy(rec.data(), key, static_cast<size_t>(spec.key_width()));
  std::memcpy(rec.data() + spec.key_width(), state,
              static_cast<size_t>(spec.state_width()));
  ++ctx.stats().partial_records_sent;
  return ex.AddRecord(dest(spec.HashKey(key)), rec.data());
}

}  // namespace

DataReceiver::DataReceiver(NodeContext* ctx, SpillingAggregator* agg,
                           int expected_eos)
    : DataReceiver(
          ctx,
          [agg](const TupleBatch& b) { return agg->AddProjectedBatch(b); },
          [agg](const TupleBatch& b) { return agg->AddPartialBatch(b); },
          expected_eos) {}

DataReceiver::DataReceiver(NodeContext* ctx, BatchSink on_raw,
                           BatchSink on_partial, int expected_eos)
    : ctx_(ctx),
      on_raw_(std::move(on_raw)),
      on_partial_(std::move(on_partial)),
      view_batch_(&ctx->spec()),
      expected_eos_(expected_eos),
      eos_from_(static_cast<size_t>(ctx->num_nodes()), false),
      fold_watermark_(static_cast<size_t>(ctx->num_nodes()), 0) {
  const SystemParams& p = ctx->params();
  // Global-phase merge costs (§2.2): reading the record and computing the
  // cumulative value. Hashing was charged on the sending side.
  partial_cost_ = p.t_r() + p.t_a();
  raw_cost_ = p.t_r() + p.t_a();
}

Status DataReceiver::HandlePage(Message& msg, bool is_partial) {
  const int width = is_partial ? ctx_->spec().partial_width()
                               : ctx_->spec().projected_width();
  ADAPTAGG_ASSIGN_OR_RETURN(
      const int count,
      ValidateWirePage(msg.payload.data(), msg.payload.size(),
                       ctx_->params().message_page_bytes, width));
  const uint8_t* recs = msg.payload.data() + sizeof(uint32_t);
  const double record_cost = is_partial ? partial_cost_ : raw_cost_;
  const BatchSink& sink = is_partial ? on_partial_ : on_raw_;
  int64_t& received = is_partial ? ctx_->stats().partial_records_received
                                 : ctx_->stats().raw_records_received;
  Status status;
  // Narrow records pack more than kBatchWidth per page; decode in
  // batch-sized windows so the sinks see the same shape as scan batches.
  for (int off = 0; off < count && status.ok(); off += kBatchWidth) {
    const int run = std::min(count - off, kBatchWidth);
    view_batch_.BindView(
        recs + static_cast<size_t>(off) * static_cast<size_t>(width), width,
        run);
    view_batch_.ComputeHashes();
    ctx_->clock().AddCpu(static_cast<double>(run) * record_cost);
    received += run;
    status = sink(view_batch_);
  }
  view_batch_.Clear();
  ctx_->SyncDiskIo();
  if (status.ok()) {
    // The payload is fully folded into the aggregator; recycle it as a
    // future outgoing page buffer.
    ctx_->ReleasePageBuffer(std::move(msg.payload));
  }
  return status;
}

void DataReceiver::SetReplayWatermarks(const std::vector<uint64_t>& wm) {
  const size_t bound = std::min(wm.size(), fold_watermark_.size());
  for (size_t i = 0; i < bound; ++i) fold_watermark_[i] = wm[i];
}

Status DataReceiver::Handle(Message& msg) {
  switch (msg.type) {
    case MessageType::kPartialPage:
    case MessageType::kRawPage: {
      const bool in_range =
          msg.from >= 0 &&
          static_cast<size_t>(msg.from) < fold_watermark_.size();
      if (msg.page_seq != 0 && in_range &&
          msg.page_seq <= fold_watermark_[static_cast<size_t>(msg.from)]) {
        // A replayed sender regenerated a page this node folded before
        // its checkpoint; folding it again would double-count, so the
        // duplicate is counted and discarded.
        ctx_->obs().recovery_pages_deduped.Increment();
        ctx_->ReleasePageBuffer(std::move(msg.payload));
        return Status::OK();
      }
      ADAPTAGG_RETURN_IF_ERROR(
          HandlePage(msg, msg.type == MessageType::kPartialPage));
      if (msg.page_seq != 0 && in_range) {
        fold_watermark_[static_cast<size_t>(msg.from)] = msg.page_seq;
      }
      if (post_fold_hook_ != nullptr) return post_fold_hook_();
      return Status::OK();
    }
    case MessageType::kEndOfStream:
      if (msg.phase == kPhaseData) {
        ++eos_seen_;
        // Liveness bookkeeping only (duplicated messages were already
        // discarded by sequence number below this layer).
        if (msg.from >= 0 && msg.from < static_cast<int>(eos_from_.size())) {
          eos_from_[static_cast<size_t>(msg.from)] = true;
        }
      }
      return Status::OK();
    case MessageType::kEndOfPhase:
      end_of_phase_seen_ = true;
      return Status::OK();
    case MessageType::kControl:
      return Status::Internal("unexpected control message in data phase");
    case MessageType::kHeartbeat:
      // NodeContext swallows these before delivery; tolerate one anyway.
      return Status::OK();
    case MessageType::kAbort:
      return Status::Internal("aborted by peer node " +
                              std::to_string(msg.from));
    case MessageType::kPeerClosed:
      // NodeContext fails the receive before delivery; never reached.
      return Status::Internal("unexpected peer-closed notice");
  }
  return Status::OK();
}

Status DataReceiver::Poll() {
  ctx_->PollRuntime();
  while (true) {
    ADAPTAGG_ASSIGN_OR_RETURN(std::optional<Message> msg, ctx_->TryRecv());
    if (!msg.has_value()) break;
    ADAPTAGG_RETURN_IF_ERROR(Handle(*msg));
  }
  return Status::OK();
}

Status DataReceiver::Drain() {
  while (!done()) {
    // Await traffic from every sender that still owes us its data-phase
    // end-of-stream; if one goes silent the wait aborts with a status
    // naming it instead of hanging the merge phase forever.
    ADAPTAGG_ASSIGN_OR_RETURN(
        Message msg, ctx_->AwaitMessage([this](int p) {
          return !eos_from_[static_cast<size_t>(p)];
        }));
    ADAPTAGG_RETURN_IF_ERROR(Handle(msg));
  }
  return Status::OK();
}

Status SendPartials(NodeContext& ctx, SpillingAggregator& agg, Exchange& ex,
                    const PartialDestFn& dest) {
  std::vector<uint8_t> rec(static_cast<size_t>(ctx.spec().partial_width()));
  Status status;
  Status finish = agg.Finish([&](const uint8_t* key, const uint8_t* state) {
    if (status.ok()) status = SendPartial(ctx, ex, dest, key, state, rec);
  });
  ctx.stats().spill.Accumulate(agg.stats());
  AccumulateHashTableObs(ctx, agg.ht_stats());
  ctx.SyncDiskIo();
  if (!finish.ok()) return finish;
  return status;
}

Status SendTablePartials(NodeContext& ctx, AggHashTable& table,
                         Exchange& ex, const PartialDestFn& dest) {
  std::vector<uint8_t> rec(static_cast<size_t>(ctx.spec().partial_width()));
  Status status;
  table.ForEach([&](const uint8_t* key, const uint8_t* state) {
    if (status.ok()) status = SendPartial(ctx, ex, dest, key, state, rec);
  });
  table.Clear();
  return status;
}

Status EmitFinalResults(NodeContext& ctx, SpillingAggregator& global) {
  ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("emit"));
  PhaseTimer emit_span = ctx.obs().StartPhase("emit");
  Status status;
  Status finish =
      global.Finish([&](const uint8_t* key, const uint8_t* state) {
        if (!status.ok()) return;
        status = ctx.EmitFinalRow(key, state);
      });
  ctx.stats().spill.Accumulate(global.stats());
  AccumulateHashTableObs(ctx, global.ht_stats());
  ctx.SyncDiskIo();
  emit_span.AddArg("result_rows", ctx.stats().result_rows);
  if (!finish.ok()) return finish;
  if (!status.ok()) return status;
  return ctx.FinishResults();
}

Status RunTwoPhaseBody(NodeContext& ctx) {
  const SystemParams& p = ctx.params();
  const AggregationSpec& spec = ctx.spec();
  const int n = ctx.num_nodes();

  // Recovery bracket: load the latest durable checkpoint (if any) and
  // replay forward from it. A fault-free first attempt has no checkpoint
  // to restore, and checkpoint I/O runs on dedicated disks, so modeled
  // results are bit-identical with recovery on or off.
  RecoveryNode* rec = ctx.recovery();
  if (rec != nullptr) rec->BeginAttempt(ctx);
  const CheckpointState* restore = rec != nullptr ? rec->restore() : nullptr;

  SpillingAggregator global(&spec, ctx.disk(), ctx.max_hash_entries(),
                            kSpillFanout,
                            "g2p_n" + std::to_string(ctx.node_id()));
  DataReceiver recv(&ctx, &global, n);
  Exchange ex(&ctx, MessageType::kPartialPage, spec.partial_width(),
              kPhaseData);

  // Phase 1: aggregate the local partition.
  SpillingAggregator local(&spec, ctx.disk(), ctx.max_hash_entries(),
                           kSpillFanout,
                           "l2p_n" + std::to_string(ctx.node_id()));
  if (restore != nullptr) {
    ADAPTAGG_RETURN_IF_ERROR(global.RestoreFrom(
        restore->global_partials.data(), restore->global_partials.size()));
    ADAPTAGG_RETURN_IF_ERROR(local.RestoreFrom(
        restore->local_partials.data(), restore->local_partials.size()));
    recv.SetReplayWatermarks(restore->fold_watermarks);
  }

  // Frozen pre-Finish image of the local table for merge-phase
  // checkpoints: Finish() consumes the table, but a crash during the
  // merge must be able to re-send the identical partial stream.
  std::vector<uint8_t> frozen_local;
  bool local_frozen = false;

  const int64_t resume_hwm =
      restore != nullptr && !restore->scan_complete ? restore->scan_hwm : 0;
  const bool skip_scan = restore != nullptr && restore->scan_complete;
  {
    ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("scan"));
    PhaseTimer scan_span = ctx.obs().StartPhase("scan");
    const double agg_cost = p.t_r() + p.t_h() + p.t_a();
    if (!skip_scan) {
      ADAPTAGG_RETURN_IF_ERROR(RunBatchedScan(
          ctx,
          [&](const TupleBatch& batch, int64_t base) -> Status {
            // Replay fast-forward: batches already folded into the
            // restored local table are rescanned but not re-aggregated.
            if (base + batch.size() <= resume_hwm) return Status::OK();
            ctx.clock().AddCpu(static_cast<double>(batch.size()) *
                               agg_cost);
            return local.AddProjectedBatch(batch);
          },
          [&]() -> Status {
            ctx.SyncDiskIo();
            ADAPTAGG_RETURN_IF_ERROR(recv.Poll());
            if (rec != nullptr &&
                ctx.stats().tuples_scanned >= resume_hwm &&
                rec->TickBatch()) {
              CheckpointState snap;
              snap.scan_hwm = ctx.stats().tuples_scanned;
              snap.scan_complete = false;
              snap.fold_watermarks = recv.folded_watermarks();
              if (local.Snapshot(&snap.local_partials) &&
                  global.Snapshot(&snap.global_partials)) {
                rec->WriteCheckpoint(ctx, snap);
              } else {
                rec->CountSkipped(ctx);
              }
            }
            return Status::OK();
          }));
    }

    if (rec != nullptr && rec->checkpointing()) {
      local_frozen = local.Snapshot(&frozen_local);
      recv.set_post_fold_hook([&]() -> Status {
        if (!rec->TickBatch()) return Status::OK();
        CheckpointState snap;
        snap.scan_hwm = ctx.stats().tuples_scanned;
        snap.scan_complete = true;
        snap.fold_watermarks = recv.folded_watermarks();
        if (local_frozen && global.Snapshot(&snap.global_partials)) {
          snap.local_partials = frozen_local;
          rec->WriteCheckpoint(ctx, snap);
        } else {
          rec->CountSkipped(ctx);
        }
        return Status::OK();
      });
    }

    // Ship local partials to their owner nodes. On replay this
    // regenerates the identical stream; receivers that already folded a
    // page skip it by its deterministic page_seq.
    ADAPTAGG_RETURN_IF_ERROR(SendPartials(
        ctx, local, ex, [n](uint64_t h) { return DestOfKeyHash(h, n); }));
    ADAPTAGG_RETURN_IF_ERROR(ex.FlushAll());
    ADAPTAGG_RETURN_IF_ERROR(BroadcastEos(&ctx, kPhaseData));
    scan_span.AddArg("tuples_scanned", ctx.stats().tuples_scanned);
  }

  // Phase 2: merge everything routed here and emit final rows.
  {
    ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("merge"));
    PhaseTimer merge_span = ctx.obs().StartPhase("merge");
    ADAPTAGG_RETURN_IF_ERROR(recv.Drain());
  }
  return EmitFinalResults(ctx, global);
}

Status RunRepartitioningBody(NodeContext& ctx) {
  const SystemParams& p = ctx.params();
  const AggregationSpec& spec = ctx.spec();
  const int n = ctx.num_nodes();

  // Recovery bracket. Repartitioning holds no local aggregate state, so
  // a checkpoint is the global table plus fold watermarks; replay always
  // rescans from tuple zero and relies on receiver-side dedupe.
  RecoveryNode* rec = ctx.recovery();
  if (rec != nullptr) rec->BeginAttempt(ctx);
  const CheckpointState* restore = rec != nullptr ? rec->restore() : nullptr;

  SpillingAggregator global(&spec, ctx.disk(), ctx.max_hash_entries(),
                            kSpillFanout,
                            "grep_n" + std::to_string(ctx.node_id()));
  DataReceiver recv(&ctx, &global, n);
  if (restore != nullptr) {
    ADAPTAGG_RETURN_IF_ERROR(global.RestoreFrom(
        restore->global_partials.data(), restore->global_partials.size()));
    recv.SetReplayWatermarks(restore->fold_watermarks);
  }
  if (rec != nullptr && rec->checkpointing()) {
    // Checkpoint on merge progress: every folded page ticks the cadence,
    // during the scan's polls and the final drain alike.
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
  Exchange ex(&ctx, MessageType::kRawPage, spec.projected_width(),
              kPhaseData);

  {
    ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("scan"));
    PhaseTimer scan_span = ctx.obs().StartPhase("scan");
    // Select already charged t_r + t_w; Rep adds hashing and destination
    // computation (§2.3).
    const double route_cost = p.t_h() + p.t_d();
    ADAPTAGG_RETURN_IF_ERROR(RunBatchedScan(
        ctx,
        [&](const TupleBatch& batch, int64_t) -> Status {
          const int sz = batch.size();
          ctx.clock().AddCpu(static_cast<double>(sz) * route_cost);
          ctx.stats().raw_records_sent += sz;
          return ex.AddBatch(batch);
        },
        [&]() {
          ctx.SyncDiskIo();
          return recv.Poll();
        }));

    ADAPTAGG_RETURN_IF_ERROR(ex.FlushAll());
    ADAPTAGG_RETURN_IF_ERROR(BroadcastEos(&ctx, kPhaseData));
    scan_span.AddArg("tuples_scanned", ctx.stats().tuples_scanned);
  }
  {
    ADAPTAGG_RETURN_IF_ERROR(ctx.EnterPhase("merge"));
    PhaseTimer merge_span = ctx.obs().StartPhase("merge");
    ADAPTAGG_RETURN_IF_ERROR(recv.Drain());
  }
  return EmitFinalResults(ctx, global);
}

}  // namespace adaptagg
