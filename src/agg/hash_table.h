#ifndef ADAPTAGG_AGG_HASH_TABLE_H_
#define ADAPTAGG_AGG_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "agg/agg_spec.h"
#include "agg/batch_kernels.h"

namespace adaptagg {

/// Plain (non-atomic) operation counters of one AggHashTable. The table
/// is single-threaded by contract, so these are bare int64 fields; the
/// batch entry points update them once per batch, never per tuple, to
/// keep the hot loops untouched. Cumulative across Clear() so a spilling
/// aggregator's recursive passes add up.
struct HashTableStats {
  /// Probe sequences started (one per upsert; pure Find() is not counted).
  int64_t probes = 0;
  /// Probes that landed on an existing group.
  int64_t hits = 0;
  /// New groups created.
  int64_t inserts = 0;
  /// Slot-arena growth events (doubling).
  int64_t resizes = 0;
  /// Tuples consumed through the batch entry points.
  int64_t batch_tuples = 0;
  /// Batch tuples handled by a fused (non-generic) update kernel.
  int64_t fused_tuples = 0;

  void Accumulate(const HashTableStats& other) {
    probes += other.probes;
    hits += other.hits;
    inserts += other.inserts;
    resizes += other.resizes;
    batch_tuples += other.batch_tuples;
    fused_tuples += other.fused_tuples;
  }
};

/// Memory-bounded open-addressing aggregation hash table (the paper's
/// in-memory hash table with a maximum of M entries, Table 1: M = 10K).
///
/// Slots are fixed-width [key bytes][state bytes] blocks stored in one
/// flat arena; probing is linear over a power-of-two bucket array kept at
/// <= 70% load. The table refuses inserts beyond `max_entries` — detecting
/// that condition is exactly the adaptive algorithms' switch signal — but
/// existing groups can always continue to update in place.
///
/// Not thread-safe: one table per node phase.
class AggHashTable {
 public:
  /// Outcome of an upsert attempt.
  enum class UpsertResult {
    kUpdated,   ///< key existed; state updated/merged
    kInserted,  ///< key was new and fit
    kFull,      ///< key was new but the table is at max_entries
  };

  /// `spec` must outlive the table.
  AggHashTable(const AggregationSpec* spec, int64_t max_entries);

  int64_t size() const { return size_; }
  int64_t max_entries() const { return max_entries_; }
  bool full() const { return size_ >= max_entries_; }
  const AggregationSpec& spec() const { return *spec_; }

  /// Bytes held by the table: actual allocated slot-arena bytes plus the
  /// bucket index.
  int64_t MemoryBytes() const;

  /// Finds the slot for `key` (with its precomputed hash), inserting an
  /// initialized state when absent and capacity remains. On success,
  /// `*state` points at the slot's mutable state block; on kFull, `*state`
  /// is nullptr.
  UpsertResult FindOrInsert(const uint8_t* key, uint64_t hash,
                            uint8_t** state);

  /// Upserts a projected raw record: init+update on insert, update on hit.
  UpsertResult UpsertProjected(const uint8_t* proj, uint64_t hash);

  /// Upserts a partial record: init+merge on insert, merge on hit.
  UpsertResult UpsertPartial(const uint8_t* partial, uint64_t hash);

  // --- batch entry points (prefetched probes, fused update kernels) ---

  /// Upserts batch records [from, batch.size()) in order, stopping at
  /// the first record that would need a new slot while the table is at
  /// max_entries. Returns the number of records consumed; the stopping
  /// record (index `from` + return value) is left entirely unprocessed,
  /// so adaptive algorithms can switch strategy at the precise tuple
  /// where the table filled — bit-identical to the tuple-at-a-time loop.
  int UpsertProjectedBatch(const TupleBatch& batch, int from);

  /// Upserts every batch record in [from, batch.size()). Records hitting
  /// a full table (UpsertResult::kFull) are appended to `overflow` (as
  /// batch indices, in order) instead of stopping the batch; existing
  /// groups still update in place. Used by the spill and Graefe
  /// forwarding paths, which handle misses record by record.
  void UpsertProjectedBatchOverflow(const TupleBatch& batch, int from,
                                    std::vector<int>& overflow);

  /// Partial-record form of UpsertProjectedBatch: the batch views
  /// *partial* records (key + state, e.g. a received kPartialPage run)
  /// and hits/inserts *merge* states instead of folding raw values,
  /// through a fused kernel when the spec's FusedMergeKind allows.
  /// Behaviorally identical to calling UpsertPartial per record.
  int UpsertPartialBatch(const TupleBatch& batch, int from);

  /// Overflow form of UpsertPartialBatch (see
  /// UpsertProjectedBatchOverflow).
  void UpsertPartialBatchOverflow(const TupleBatch& batch, int from,
                                  std::vector<int>& overflow);

  /// Pure lookup: state block of `key`, or nullptr.
  const uint8_t* Find(const uint8_t* key, uint64_t hash) const;

  /// Calls `fn(key_ptr, state_ptr)` for every entry, in slot (= insertion)
  /// order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int64_t i = 0; i < size_; ++i) {
      const uint8_t* slot = arena_.data() + i * slot_width_;
      fn(slot, slot + key_width_);
    }
  }

  /// Empties the table, keeping capacity. Stats are cumulative across
  /// clears.
  void Clear();

  const HashTableStats& stats() const { return stats_; }

 private:
  /// Folds one batch's outcome into stats_ at batch granularity.
  void NoteBatch(int consumed, int64_t size_before, int64_t overflowed,
                 bool fused) {
    stats_.batch_tuples += consumed;
    stats_.probes += consumed;
    const int64_t inserted = size_ - size_before;
    stats_.inserts += inserted;
    stats_.hits += consumed - inserted - overflowed;
    if (fused) stats_.fused_tuples += consumed;
  }

  int64_t Probe(const uint8_t* key, uint64_t hash, bool* found) const;

  /// Grows the arena (doubling, capped at max_entries) until it holds at
  /// least `slots` slots, so inserts never resize mid-batch.
  void EnsureSlotCapacity(int64_t slots);

  /// The shared probe/insert skeleton of every batch upsert over batch
  /// records [from, batch.size()): two-stage prefetch pipeline, linear
  /// probing, stop-at-full or overflow collection. `update(state, rec)`
  /// folds one record into its slot's (initialized) state — a fused
  /// raw-update, a fused partial-merge, or the interpreted fallback;
  /// `fused` only feeds the stats. Works for projected and partial
  /// records alike because both carry the group key as their prefix.
  template <bool Key8, bool StopAtFull, typename UpdateFn>
  int UpsertBatchImpl(const TupleBatch& batch, int from,
                      std::vector<int>* overflow, bool fused,
                      const UpdateFn& update);

  template <bool StopAtFull>
  int DispatchUpsertBatch(const TupleBatch& batch, int from,
                          std::vector<int>* overflow);

  template <bool StopAtFull>
  int DispatchMergeBatch(const TupleBatch& batch, int from,
                         std::vector<int>* overflow);

  const AggregationSpec* spec_;
  int64_t max_entries_;
  int key_width_;
  int state_width_;
  int slot_width_;

  // arena_ is pre-sized to `capacity_slots_` slots (of which the first
  // `size_` are live); buckets_ maps hash positions to slot indices
  // (-1 = empty).
  std::vector<uint8_t> arena_;
  int64_t capacity_slots_ = 0;
  std::vector<int64_t> buckets_;
  uint64_t bucket_mask_ = 0;
  int64_t size_ = 0;
  HashTableStats stats_;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_AGG_HASH_TABLE_H_
