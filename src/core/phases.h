#ifndef ADAPTAGG_CORE_PHASES_H_
#define ADAPTAGG_CORE_PHASES_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "agg/batch_kernels.h"
#include "cluster/exchange.h"
#include "cluster/node_context.h"

namespace adaptagg {

/// Message phase ids. The Sampling algorithm runs a phase-0 estimation
/// round before the data phase all algorithms use.
inline constexpr uint32_t kPhaseSample = 0;
inline constexpr uint32_t kPhaseData = 1;

/// Overflow buckets per spill level of every algorithm's aggregation
/// tables.
inline constexpr int kSpillFanout = 8;

/// How often scanning loops service their inbox (tuples between polls).
/// Polling while producing is what lets Adaptive Repartitioning react to
/// end-of-phase messages mid-scan, and keeps inbox queues short.
inline constexpr int64_t kPollInterval = 128;

// The batch pipeline processes exactly one poll interval per batch, so
// batching perturbs neither the poll cadence nor any decision that
// observes it (A-Rep's follow-suit switch points land on the same tuple
// counts as the historical per-tuple loop).
static_assert(kBatchWidth == kPollInterval,
              "scan batches must match the inbox poll cadence");

/// The shared scan loop all six algorithms run: gathers the node's local
/// input one batch (= poll interval) at a time, hands each batch to
/// `process(batch, base)` — where `base` is the number of tuples scanned
/// before this batch, so the 1-based global index of batch record i is
/// base + i + 1 — and calls `poll()` after every full batch, exactly
/// where the per-tuple loops polled after every kPollInterval-th tuple.
/// `poll` is responsible for SyncDiskIo + inbox servicing (C-2P workers
/// never poll at all).
template <typename ProcessFn, typename PollFn>
Status RunBatchedScan(NodeContext& ctx, ProcessFn&& process, PollFn&& poll) {
  LocalScanner scan(&ctx);
  TupleBatch batch(&ctx.spec());
  while (true) {
    const int64_t base = ctx.stats().tuples_scanned;
    const int n = scan.FillBatch(batch);
    if (n == 0) break;
    ADAPTAGG_RETURN_IF_ERROR(process(batch, base));
    if (n == kBatchWidth) {
      ADAPTAGG_RETURN_IF_ERROR(poll());
    }
  }
  ctx.obs().agg_batch_identity_copy_tuples.Add(
      batch.stats().identity_copy_tuples);
  ADAPTAGG_RETURN_IF_ERROR(scan.status());
  ctx.SyncDiskIo();
  return Status::OK();
}

/// Folds a hash table's operation counters into the node's metric shard.
/// Call exactly once per table (the counters are cumulative), after its
/// last use — on Finish for spilling aggregators, at algorithm end for
/// bare adaptive tables.
inline void AccumulateHashTableObs(NodeContext& ctx,
                                   const HashTableStats& s) {
  NodeObs& o = ctx.obs();
  o.agg_ht_probes.Add(s.probes);
  o.agg_ht_hits.Add(s.hits);
  o.agg_ht_inserts.Add(s.inserts);
  o.agg_ht_resizes.Add(s.resizes);
  o.agg_batch_tuples.Add(s.batch_tuples);
  o.agg_batch_fused_tuples.Add(s.fused_tuples);
}

/// Consumes data-phase messages for one node: raw pages and partial pages
/// are validated, decoded into zero-copy batch views, and folded into the
/// node's global-phase aggregator with the paper's per-record merge
/// costs; end-of-stream markers are counted; end-of-phase signals (A-Rep)
/// are latched for the caller to observe. A forged or truncated page
/// header fails the receive with a descriptive kNetworkError before any
/// record byte is read.
class DataReceiver {
 public:
  /// Consumes one decoded run of received records (<= kBatchWidth,
  /// hashes computed). The view only stays valid for the call.
  using BatchSink = std::function<Status(const TupleBatch& batch)>;

  /// `expected_eos` is the number of kEndOfStream(kPhaseData) messages
  /// that conclude this node's global phase (N for partitioned exchanges,
  /// 0 for nodes that receive nothing, as in C-2P workers).
  DataReceiver(NodeContext* ctx, SpillingAggregator* agg, int expected_eos);

  /// Generic form: routes raw/partial record batches into arbitrary
  /// sinks (used by the sort-based algorithm, whose aggregator is not a
  /// SpillingAggregator).
  DataReceiver(NodeContext* ctx, BatchSink on_raw, BatchSink on_partial,
               int expected_eos);

  /// Processes everything currently queued; never blocks.
  Status Poll();

  /// Blocks until all expected end-of-stream markers have arrived.
  Status Drain();

  bool done() const { return eos_seen_ >= expected_eos_; }
  bool end_of_phase_seen() const { return end_of_phase_seen_; }

  /// Installs the fold watermarks from a restored checkpoint: a data page
  /// from origin o with page_seq <= wm[o] was already folded into the
  /// restored aggregator, so a replayed copy is counted
  /// (recovery.pages_deduped) and discarded — this is what keeps merges
  /// exactly-once across re-execution. Senders number their data pages
  /// 1,2,... per destination (Exchange::SendPage) and regenerate the
  /// identical stream on replay.
  void SetReplayWatermarks(const std::vector<uint64_t>& wm);

  /// Largest folded page_seq per origin — the checkpoint manifest's fold
  /// watermark vector.
  const std::vector<uint64_t>& folded_watermarks() const {
    return fold_watermark_;
  }

  /// Installs a hook run after each data page folds successfully. The
  /// recovery runtime uses it to checkpoint on merge-phase progress; an
  /// error from the hook fails the receive.
  void set_post_fold_hook(std::function<Status()> hook) {
    post_fold_hook_ = std::move(hook);
  }

 private:
  Status Handle(Message& msg);
  /// Validates and decodes one page payload, feeding the sink one
  /// <= kBatchWidth view at a time; recycles the payload buffer.
  Status HandlePage(Message& msg, bool is_partial);

  NodeContext* ctx_;
  BatchSink on_raw_;
  BatchSink on_partial_;
  /// Zero-copy window over the payload being decoded.
  TupleBatch view_batch_;
  int expected_eos_;
  /// Which senders have delivered their data-phase end-of-stream: the
  /// failure detector's per-peer pending predicate (a peer is "awaited"
  /// during Drain until its EOS arrives).
  std::vector<bool> eos_from_;
  int eos_seen_ = 0;
  bool end_of_phase_seen_ = false;
  double partial_cost_;
  double raw_cost_;
  /// Largest folded page_seq per origin; pages at or below it are
  /// replayed duplicates and are skipped.
  std::vector<uint64_t> fold_watermark_;
  std::function<Status()> post_fold_hook_;
};

/// Destination node of a partial record, by its group-key hash:
/// DestOfKeyHash for the partitioned merge (2P, Rep and the adaptive
/// algorithms), constant 0 for Centralized Two Phase's central merge.
using PartialDestFn = std::function<int(uint64_t key_hash)>;

/// Emits every group of a finished local aggregation as a partial
/// record, charging t_w per record, into `ex` at `dest(key hash)`.
Status SendPartials(NodeContext& ctx, SpillingAggregator& agg, Exchange& ex,
                    const PartialDestFn& dest);

/// Same, but draining a bare (non-spilling) hash table; used by the
/// adaptive algorithms when flushing their local table on a switch.
Status SendTablePartials(NodeContext& ctx, AggHashTable& table,
                         Exchange& ex, const PartialDestFn& dest);

/// Finishes the global aggregation: emits every group as a final result
/// row on this node.
Status EmitFinalResults(NodeContext& ctx, SpillingAggregator& global);

/// The Two Phase algorithm body (§2.2). Also invoked by Sampling when the
/// sample finds few groups.
Status RunTwoPhaseBody(NodeContext& ctx);

/// The Repartitioning algorithm body (§2.3). Also invoked by Sampling
/// when the sample finds many groups.
Status RunRepartitioningBody(NodeContext& ctx);

}  // namespace adaptagg

#endif  // ADAPTAGG_CORE_PHASES_H_
