#ifndef ADAPTAGG_AGG_BATCH_KERNELS_H_
#define ADAPTAGG_AGG_BATCH_KERNELS_H_

#include <cstdint>
#include <vector>

#include "agg/agg_spec.h"

namespace adaptagg {

/// Tuples per processing batch. Fixed to the scan loops' inbox-poll
/// cadence (core/phases.h kPollInterval) so that batching changes
/// neither when a node services its inbox nor any poll-dependent switch
/// decision; phases.h statically asserts the two stay equal.
inline constexpr int kBatchWidth = 128;

/// How many probes ahead the batch upsert kernels prefetch. Far enough
/// to cover an L2 miss at ~4 probes/cycle-budget, near enough that the
/// prefetched lines are still resident when reached.
inline constexpr int kPrefetchDistance = 8;

/// Plain counters of one TupleBatch's gather activity, updated once per
/// gather call (never per tuple). Single-threaded like the batch itself.
struct BatchGatherStats {
  /// Tuples gathered through Gather/GatherRun.
  int64_t gathered_tuples = 0;
  /// GatherRun tuples that took the identity-projection bulk-memcpy fast
  /// path.
  int64_t identity_copy_tuples = 0;

  void Accumulate(const BatchGatherStats& other) {
    gathered_tuples += other.gathered_tuples;
    identity_copy_tuples += other.identity_copy_tuples;
  }
};

/// A batch of up to kBatchWidth projected records plus their key hashes.
/// Scan loops gather into it one page run at a time (projection happens
/// at gather, because a scanned page run may only stay valid until the
/// scanner loads the next page), hash all keys in one pass, and hand
/// the batch to the aggregation kernels. The arena is allocated once
/// and reused across batches.
class TupleBatch {
 public:
  /// `spec` must outlive the batch.
  explicit TupleBatch(const AggregationSpec* spec);

  void Clear() {
    size_ = 0;
    data_ = arena_.data();
    stride_ = static_cast<size_t>(spec_->projected_width());
  }
  int size() const { return size_; }
  bool full() const { return size_ >= kBatchWidth; }

  /// Points the batch at `n` (<= kBatchWidth) externally owned records,
  /// `record_width` bytes apart — zero-copy decode of a received page
  /// run. The records (and their key prefix) must outlive the batch's
  /// use; the arena and gather stats are untouched. Works for projected
  /// *and* partial records, whose key is likewise the record prefix, so
  /// ComputeHashes and the upsert kernels apply unchanged. Clear()
  /// returns the batch to arena (gather) mode.
  void BindView(const uint8_t* recs, int record_width, int n) {
    data_ = recs;
    stride_ = static_cast<size_t>(record_width);
    size_ = n;
  }

  /// Projects `tuple` into the next slot. Requires !full() and arena
  /// mode (no BindView since the last Clear()).
  void Gather(const TupleView& tuple) {
    spec_->ProjectRaw(tuple,
                      arena_.data() + static_cast<size_t>(size_) * stride_);
    ++size_;
    ++stats_.gathered_tuples;
  }

  /// Projects up to `n` consecutive raw records (`rec_size` bytes apart,
  /// starting at `recs`) in one call — a single memcpy when the
  /// projection plan is the identity prefix of the record, and a
  /// fixed-width copy loop when it is one 16-byte run. Returns how many
  /// were gathered (bounded by remaining batch room).
  int GatherRun(const uint8_t* recs, int rec_size, int n);

  /// Hashes every record's key. Call once after gathering/BindView.
  void ComputeHashes() {
    spec_->HashKeys(data_, static_cast<int>(stride_), size_,
                    hashes_.data());
  }

  const uint8_t* record(int i) const {
    return data_ + static_cast<size_t>(i) * stride_;
  }
  uint64_t hash(int i) const { return hashes_[i]; }

  /// Flat access for the batch kernels.
  const uint8_t* records() const { return data_; }
  int stride() const { return static_cast<int>(stride_); }
  const uint64_t* hashes() const { return hashes_.data(); }
  const AggregationSpec& spec() const { return *spec_; }

  /// Cumulative gather counters (survive Clear()).
  const BatchGatherStats& stats() const { return stats_; }

 private:
  const AggregationSpec* spec_;
  size_t stride_;
  int size_ = 0;
  std::vector<uint8_t> arena_;
  /// Where record(i)/records() read from: the arena in gather mode, the
  /// bound external run after BindView.
  const uint8_t* data_ = nullptr;
  std::vector<uint64_t> hashes_;
  BatchGatherStats stats_;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_AGG_BATCH_KERNELS_H_
