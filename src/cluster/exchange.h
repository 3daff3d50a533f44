#ifndef ADAPTAGG_CLUSTER_EXCHANGE_H_
#define ADAPTAGG_CLUSTER_EXCHANGE_H_

#include <vector>

#include "cluster/node_context.h"
#include "storage/page.h"

namespace adaptagg {

/// Which node owns a group key: derived from the key hash with an
/// independent bit mix so that node routing is uncorrelated with hash
/// table probing and spill bucket selection.
int DestOfKeyHash(uint64_t key_hash, int num_nodes);

/// Batches fixed-width records per destination into message pages of
/// `params.message_page_bytes` (the §5 implementation blocks messages into
/// 2 KB pages) and sends them through the NodeContext. One Exchange per
/// (record kind, phase); a node can operate several concurrently.
///
/// Pages travel wire-trimmed: the payload carries header + count *
/// record_width bytes (no trailing padding), while Message::charged_bytes
/// pins the cost model to the full page size, so the modeled network
/// charge is byte-for-byte what untrimmed pages produced. Payload buffers
/// cycle through the NodeContext's page pool instead of allocating per
/// page.
class Exchange {
 public:
  Exchange(NodeContext* ctx, MessageType type, int record_width,
           uint32_t phase);

  /// Buffers one record for `dest`, sending a page when full. The scalar
  /// path for inherently record-at-a-time producers (Finish-callback
  /// drains, sampling key sets); routing loops use AddBatch/AddIndices
  /// (adaptagg_lint rule S9 flags scalar call sites outside the
  /// allowlisted producers).
  Status AddRecord(int dest, const uint8_t* record);

  /// Scatter kernel: routes batch records [from, to) — to < 0 means
  /// batch.size() — by their precomputed hashes. Records are gathered
  /// into one contiguous lane per destination (a single tight copy loop;
  /// random hash routing makes within-batch runs too short for run
  /// detection to pay), then each lane is appended with one bulk memcpy
  /// and one fullness check. The per-destination record sequence is
  /// exactly the scalar loop's (the gather preserves index order); only
  /// the interleaving of page sends across destinations can differ,
  /// which neither the cost model nor per-destination sequence
  /// validation observes.
  Status AddBatch(const TupleBatch& batch, int from = 0, int to = -1);

  /// Same scatter for an arbitrary ascending index subset of the batch
  /// (e.g. the overflow list of a table-full upsert).
  Status AddIndices(const TupleBatch& batch, const int* idx, int n);

  /// Sends all partially-filled pages and records the per-destination
  /// page-count skew into the node's metrics.
  Status FlushAll();

  int64_t records_sent() const { return records_sent_; }

 private:
  Status SendPage(int dest);
  /// Appends `n` densely packed records for `dest`, sending pages as
  /// they fill.
  Status AppendRun(int dest, const uint8_t* recs, int n);
  /// Shared scatter core of AddBatch/AddIndices.
  Status Scatter(const TupleBatch& batch, const int* idx, int n);

  NodeContext* ctx_;
  MessageType type_;
  int record_width_;
  uint32_t phase_;
  std::vector<PageBuilder> builders_;
  int64_t records_sent_ = 0;
  /// Pages sent to each destination since the last FlushAll (skew
  /// metric).
  std::vector<int64_t> pages_per_dest_;
  // Scatter scratch, sized once: per-destination record counts and one
  // kBatchWidth-record gather lane per destination.
  std::vector<int> scatter_count_;
  std::vector<uint8_t> scatter_lanes_;
  std::vector<int> identity_;
};

/// Sends an empty end-of-stream marker for `phase` to every node
/// (including the sender itself; self-delivery keeps the drain protocol
/// uniform).
Status BroadcastEos(NodeContext* ctx, uint32_t phase);

/// Sends an arbitrary small message to every node including self.
Status Broadcast(NodeContext* ctx, const Message& msg);

/// Iterates the records of a received page message. Validates the page
/// header against the payload first — a forged or truncated page returns
/// a descriptive kNetworkError before any record byte is touched.
template <typename Fn>
Status ForEachRecordInPage(const Message& msg, int record_width,
                           int message_page_bytes, Fn&& fn) {
  ADAPTAGG_ASSIGN_OR_RETURN(
      int count, ValidateWirePage(msg.payload.data(), msg.payload.size(),
                                  message_page_bytes, record_width));
  const uint8_t* base = msg.payload.data() + sizeof(uint32_t);
  for (int i = 0; i < count; ++i) {
    fn(base + static_cast<size_t>(i) * static_cast<size_t>(record_width));
  }
  return Status::OK();
}

}  // namespace adaptagg

#endif  // ADAPTAGG_CLUSTER_EXCHANGE_H_
