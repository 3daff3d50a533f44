#include "cluster/exchange.h"

#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "common/random.h"

namespace adaptagg {

int DestOfKeyHash(uint64_t key_hash, int num_nodes) {
  return static_cast<int>(SplitMix64(key_hash ^ 0xd357a7e5ULL) %
                          static_cast<uint64_t>(num_nodes));
}

namespace {

/// Gathers the idx-selected batch records into per-destination lanes,
/// preserving index order within each destination. W > 0 fixes the
/// record width at compile time so the per-record copy lowers to plain
/// loads/stores instead of a memcpy call; W == 0 is the generic width.
template <int W>
void GatherLanes(const TupleBatch& batch, const int* idx, int n,
                 int num_nodes, size_t width, uint8_t* lanes,
                 size_t lane_stride, int* counts) {
  const uint8_t* recs = batch.records();
  const size_t w = W > 0 ? static_cast<size_t>(W) : width;
  for (int j = 0; j < n; ++j) {
    const int i = idx[j];
    const int d = DestOfKeyHash(batch.hash(i), num_nodes);
    uint8_t* dst = lanes + static_cast<size_t>(d) * lane_stride +
                   static_cast<size_t>(counts[d]) * w;
    const uint8_t* src = recs + static_cast<size_t>(i) * w;
    if constexpr (W > 0) {
      std::memcpy(dst, src, static_cast<size_t>(W));
    } else {
      std::memcpy(dst, src, w);
    }
    ++counts[d];
  }
}

}  // namespace

Exchange::Exchange(NodeContext* ctx, MessageType type, int record_width,
                   uint32_t phase)
    : ctx_(ctx), type_(type), record_width_(record_width), phase_(phase) {
  const int n = ctx->num_nodes();
  builders_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    builders_.emplace_back(ctx->params().message_page_bytes, record_width);
  }
  pages_per_dest_.assign(static_cast<size_t>(n), 0);
  scatter_count_.resize(static_cast<size_t>(n));
  scatter_lanes_.resize(static_cast<size_t>(n) *
                        static_cast<size_t>(kBatchWidth) *
                        static_cast<size_t>(record_width));
  identity_.resize(static_cast<size_t>(kBatchWidth));
  std::iota(identity_.begin(), identity_.end(), 0);
}

Status Exchange::SendPage(int dest) {
  Message msg;
  msg.type = type_;
  msg.phase = phase_;
  // Trim the payload to the bytes actually written, but charge the cost
  // model for the full page: the paper's network model bills whole pages.
  msg.payload = builders_[static_cast<size_t>(dest)].FinishWire(
      ctx_->AcquirePageBuffer());
  msg.charged_bytes =
      static_cast<uint32_t>(ctx_->params().message_page_bytes);
  // Deterministic per-destination data-page numbering: a replayed sender
  // regenerates the identical stream, so a recovering receiver can skip
  // pages at or below its checkpointed fold watermark.
  msg.page_seq = ctx_->NextPageSeq(dest);
  ++pages_per_dest_[static_cast<size_t>(dest)];
  return ctx_->Send(dest, std::move(msg));
}

Status Exchange::AddRecord(int dest, const uint8_t* record) {
  PageBuilder& b = builders_[static_cast<size_t>(dest)];
  b.Append(record);
  ++records_sent_;
  if (b.full()) {
    return SendPage(dest);
  }
  return Status::OK();
}

Status Exchange::AppendRun(int dest, const uint8_t* recs, int n) {
  PageBuilder& b = builders_[static_cast<size_t>(dest)];
  records_sent_ += n;
  while (n > 0) {
    const int took = b.AppendBatch(recs, n);
    recs += static_cast<size_t>(took) * static_cast<size_t>(record_width_);
    n -= took;
    if (b.full()) {
      ADAPTAGG_RETURN_IF_ERROR(SendPage(dest));
    }
  }
  return Status::OK();
}

Status Exchange::Scatter(const TupleBatch& batch, const int* idx, int n) {
  ADAPTAGG_DCHECK(batch.stride() == record_width_)
      << "exchange record width does not match the batch layout";
  const int num_nodes = ctx_->num_nodes();
  const uint8_t* recs = batch.records();
  if (num_nodes == 1) {
    // Single destination: the whole index list is one ordered stream;
    // emit its maximal contiguous runs directly.
    int s = 0;
    while (s < n) {
      int e = s + 1;
      while (e < n && idx[e] == idx[e - 1] + 1) ++e;
      ADAPTAGG_RETURN_IF_ERROR(AppendRun(
          0,
          recs + static_cast<size_t>(idx[s]) *
                     static_cast<size_t>(record_width_),
          e - s));
      s = e;
    }
    return Status::OK();
  }

  // Gather each record into its destination's lane (index order within a
  // destination is preserved, so every per-destination record stream is
  // identical to the scalar per-record loop's), then flush each lane with
  // one bulk append. Random hash routing makes within-batch consecutive
  // runs ~1 record long, so a gather beats run detection.
  ADAPTAGG_DCHECK(n <= kBatchWidth) << "scatter exceeds lane capacity";
  std::fill(scatter_count_.begin(), scatter_count_.end(), 0);
  const size_t width = static_cast<size_t>(record_width_);
  const size_t lane_stride = static_cast<size_t>(kBatchWidth) * width;
  uint8_t* lanes = scatter_lanes_.data();
  int* counts = scatter_count_.data();
  switch (record_width_) {
    case 8:
      GatherLanes<8>(batch, idx, n, num_nodes, width, lanes, lane_stride,
                     counts);
      break;
    case 16:
      GatherLanes<16>(batch, idx, n, num_nodes, width, lanes, lane_stride,
                      counts);
      break;
    case 24:
      GatherLanes<24>(batch, idx, n, num_nodes, width, lanes, lane_stride,
                      counts);
      break;
    case 32:
      GatherLanes<32>(batch, idx, n, num_nodes, width, lanes, lane_stride,
                      counts);
      break;
    default:
      GatherLanes<0>(batch, idx, n, num_nodes, width, lanes, lane_stride,
                     counts);
      break;
  }
  for (int d = 0; d < num_nodes; ++d) {
    const int count = counts[d];
    if (count > 0) {
      ADAPTAGG_RETURN_IF_ERROR(AppendRun(
          d, lanes + static_cast<size_t>(d) * lane_stride, count));
    }
  }
  return Status::OK();
}

Status Exchange::AddBatch(const TupleBatch& batch, int from, int to) {
  if (to < 0) to = batch.size();
  if (from >= to) return Status::OK();
  return Scatter(batch, identity_.data() + from, to - from);
}

Status Exchange::AddIndices(const TupleBatch& batch, const int* idx, int n) {
  if (n <= 0) return Status::OK();
  return Scatter(batch, idx, n);
}

Status Exchange::FlushAll() {
  for (int dest = 0; dest < ctx_->num_nodes(); ++dest) {
    if (!builders_[static_cast<size_t>(dest)].empty()) {
      ADAPTAGG_RETURN_IF_ERROR(SendPage(dest));
    }
  }
  for (size_t d = 0; d < pages_per_dest_.size(); ++d) {
    if (pages_per_dest_[d] > 0) {
      ctx_->obs().net_exchange_pages_per_dest.Observe(
          static_cast<double>(pages_per_dest_[d]));
      pages_per_dest_[d] = 0;
    }
  }
  return Status::OK();
}

Status BroadcastEos(NodeContext* ctx, uint32_t phase) {
  Message msg;
  msg.type = MessageType::kEndOfStream;
  msg.phase = phase;
  return Broadcast(ctx, msg);
}

Status Broadcast(NodeContext* ctx, const Message& msg) {
  for (int dest = 0; dest < ctx->num_nodes(); ++dest) {
    ADAPTAGG_RETURN_IF_ERROR(ctx->Send(dest, msg));
  }
  return Status::OK();
}

}  // namespace adaptagg
