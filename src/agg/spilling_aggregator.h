#ifndef ADAPTAGG_AGG_SPILLING_AGGREGATOR_H_
#define ADAPTAGG_AGG_SPILLING_AGGREGATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agg/hash_table.h"
#include "storage/spill_file.h"

namespace adaptagg {

/// Counters describing the overflow behavior of one aggregation.
struct SpillStats {
  int64_t overflow_records = 0;  ///< records routed to spill buckets
  int64_t spill_pages_written = 0;
  int64_t spill_pages_read = 0;
  int buckets_created = 0;
  int max_depth = 0;  ///< deepest recursive repartitioning level reached

  void Accumulate(const SpillStats& other);
};

/// The paper's uniprocessor hash aggregation (§2, steps 1-3): build an
/// in-memory hash table; when it fills, hash-partition the overflow into
/// buckets spooled to disk; process each bucket recursively with a fresh
/// table. Inputs can be a mix of projected raw records and partial
/// aggregate records (the Adaptive Two Phase global phase receives both),
/// and the spill format preserves that distinction.
///
/// Usage: Add*Batch any number of batches, then Finish(emit) exactly once.
/// `emit` receives every group exactly once as (key, state).
class SpillingAggregator {
 public:
  /// `spec` and `disk` must outlive the aggregator. `max_entries` is the
  /// hash table bound M; `fanout` the number of overflow buckets per level
  /// (>= 2).
  SpillingAggregator(const AggregationSpec* spec, Disk* disk,
                     int64_t max_entries, int fanout = 8,
                     std::string name = "spill");
  /// Deletes any bucket files Finish did not consume (an aborted query).
  ~SpillingAggregator();

  SpillingAggregator(const SpillingAggregator&) = delete;
  SpillingAggregator& operator=(const SpillingAggregator&) = delete;

  using EmitFn =
      std::function<void(const uint8_t* key, const uint8_t* state)>;

  /// Adds a batch of projected records (hashes computed): one fused,
  /// prefetched table pass, then the records the full table refused go,
  /// in batch order, to their overflow buckets. The outcome depends only
  /// on the record sequence, not on how it is cut into batches.
  Status AddProjectedBatch(const TupleBatch& batch);

  /// Partial-record form of AddProjectedBatch: the batch views partial
  /// records (e.g. a received kPartialPage run) and the table pass merges
  /// states through the spec's fused merge kernel.
  Status AddPartialBatch(const TupleBatch& batch);

  /// Emits all groups (table first, then recursive buckets) and releases
  /// the spill files.
  Status Finish(const EmitFn& emit);

  /// Serializes the resident table as flat partial records ([key][state],
  /// spec->partial_width() bytes each, in the table's deterministic emit
  /// order) into `out` for checkpointing. Returns false — leaving `out`
  /// empty — when the state is not snapshottable: records already spilled
  /// to disk, or Finish() already ran. Callers then simply skip this
  /// checkpoint.
  bool Snapshot(std::vector<uint8_t>* out) const;

  /// Rebuilds the resident table from a Snapshot() byte stream by
  /// re-upserting every partial record in its original order, so the
  /// restored table's emit order — and thus all downstream pagination —
  /// matches the table that was snapshotted. Requires an empty
  /// aggregator.
  Status RestoreFrom(const uint8_t* data, size_t size);

  /// The resident table; adaptive algorithms watch its occupancy.
  AggHashTable& table() { return table_; }
  const AggHashTable& table() const { return table_; }

  /// True once at least one record has overflowed to disk.
  bool has_spilled() const { return !buckets_.empty(); }

  const SpillStats& stats() const { return stats_; }

  /// Hash-table counters summed over this aggregator's resident table and
  /// every recursive child table (children are folded in as their Finish
  /// completes).
  HashTableStats ht_stats() const {
    HashTableStats s = table_.stats();
    s.Accumulate(child_ht_stats_);
    return s;
  }

 private:
  SpillingAggregator(const AggregationSpec* spec, Disk* disk,
                     int64_t max_entries, int fanout, std::string name,
                     int depth);

  Status EnsureBuckets();
  int BucketOf(uint64_t hash) const;

  /// Spills the batch records the table refused (overflow_scratch_, as
  /// batch indices) to their buckets, tagged `tag`.
  Status SpillBatchOverflow(SpillTag tag, const TupleBatch& batch);

  const AggregationSpec* spec_;
  Disk* disk_;
  int64_t max_entries_;
  int fanout_;
  std::string name_;
  int depth_;

  AggHashTable table_;
  std::vector<std::unique_ptr<SpillWriter>> buckets_;
  std::vector<int> overflow_scratch_;
  SpillStats stats_;
  HashTableStats child_ht_stats_;
  bool finished_ = false;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_AGG_SPILLING_AGGREGATOR_H_
