#ifndef ADAPTAGG_STORAGE_PARTITIONED_RELATION_H_
#define ADAPTAGG_STORAGE_PARTITIONED_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "storage/heap_file.h"

namespace adaptagg {

/// A relation horizontally partitioned across N shared-nothing nodes: one
/// HeapFile per node, each living on that node's own Disk. Owns the disks
/// and the schema so that a generated workload is a self-contained object.
class PartitionedRelation {
 public:
  /// Creates an empty relation with `num_nodes` partitions, each on a
  /// fresh SimDisk of `page_size` bytes.
  static Result<PartitionedRelation> Create(Schema schema, int num_nodes,
                                            int page_size = kDefaultPageSize);

  /// Creates an empty relation over caller-provided disks (one per
  /// node); all disks must share the same page size. Used e.g. to plant
  /// FaultySimDisk under a node in fault-injection tests.
  static Result<PartitionedRelation> CreateWithDisks(
      Schema schema, std::vector<std::unique_ptr<Disk>> disks);

  int num_nodes() const { return static_cast<int>(partitions_.size()); }
  const Schema& schema() const { return *schema_; }

  HeapFile& partition(int node) { return *partitions_[node]; }
  const HeapFile& partition(int node) const { return *partitions_[node]; }
  Disk& disk(int node) { return *disks_[node]; }

  /// Appends a tuple to node `node`'s partition.
  Status Append(int node, const TupleView& tuple);

  /// Flushes all partitions (must be called once after loading).
  Status Flush();

  /// Total tuples across all partitions.
  int64_t total_tuples() const;

  /// Resets per-disk I/O counters (call between experiment runs).
  void ResetDiskStats();

  /// Monotonic mutation counter, the cache-invalidation half of the
  /// serving layer's result-cache key: any Append (and any explicit
  /// BumpVersion by an out-of-band mutator) advances it, so cached
  /// results for older versions can never be served. Thread-safe; starts
  /// at 1 so 0 can mean "no relation" in cache keys.
  uint64_t version() const {
    return version_->load(std::memory_order_acquire);
  }
  void BumpVersion() { version_->fetch_add(1, std::memory_order_acq_rel); }

 private:
  PartitionedRelation() = default;

  std::unique_ptr<Schema> schema_;
  std::vector<std::unique_ptr<Disk>> disks_;
  std::vector<std::unique_ptr<HeapFile>> partitions_;
  // Heap-allocated so the relation stays movable (Create returns by value).
  std::unique_ptr<std::atomic<uint64_t>> version_ =
      std::make_unique<std::atomic<uint64_t>>(1);
};

}  // namespace adaptagg

#endif  // ADAPTAGG_STORAGE_PARTITIONED_RELATION_H_
