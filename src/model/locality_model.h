#ifndef ADAPTAGG_MODEL_LOCALITY_MODEL_H_
#define ADAPTAGG_MODEL_LOCALITY_MODEL_H_

#include <cstdint>

namespace adaptagg {

/// Policy for cache-sized radix pre-partitioning of the scan-side and
/// merge-side aggregation tables (the third adaptive decision, after
/// the paper's two; one mode governs both sides): hash-direct
/// keeps upserting straight into the table; radix-partitioned scatters
/// batches into per-partition staging first so each partition aggregates
/// L2-resident.
enum class RadixMode {
  kOff,   ///< always hash-direct
  kAuto,  ///< engage when the estimated working set exceeds the LLC
  kOn,    ///< always radix-partitioned
};

/// Outcome of the radix decision for one aggregation phase.
struct RadixDecision {
  bool engage = false;
  /// Partition count (power of two >= 2) when engaged.
  int partitions = 0;
  /// The modeled group working set that drove the decision.
  int64_t working_set_bytes = 0;
};

/// Default L2 working-set budget when the caller does not override it.
/// Sizes partition regions, not the engage decision.
inline constexpr int64_t kDefaultL2Bytes = int64_t{2} << 20;

/// Default last-level-cache budget gating kAuto engagement. Radix only
/// pays once probes genuinely miss to DRAM: an LLC-resident table's
/// probe latency is already hidden by the streaming loop's prefetch
/// pipeline, and the staging round-trip (write + re-read every record)
/// then costs more than the locality it buys — measured on the dev host
/// the partitioned pass was 30-40% *slower* than hash-direct for
/// L3-resident tables and only broke even past LLC scale.
inline constexpr int64_t kDefaultLlcBytes = int64_t{32} << 20;

/// Decides hash-direct vs radix-partitioned for an aggregation
/// expected to hold `est_groups` groups of `slot_bytes` each in a table
/// bounded by `max_entries`. Auto engages only when the estimated
/// working set (slots + their bucket-index share) exceeds `llc_bytes`
/// (see kDefaultLlcBytes for why the gate is LLC, not L2) and the
/// groups fit the table (an overflowing table spills anyway, and staged
/// refusals would reorder which keys win slots). The partition count
/// targets half of L2 per partition region so slots and buckets both
/// stay resident. Non-positive `l2_bytes` / `llc_bytes` select the
/// defaults. Pure arithmetic: no clock, no randomness.
RadixDecision DecideRadixPartitioning(RadixMode mode, int64_t est_groups,
                                      int64_t max_entries,
                                      int64_t slot_bytes, int64_t l2_bytes,
                                      int64_t llc_bytes);

/// Inverts the cost model's ExpectedDistinct: the group count whose
/// expected distinct-key yield over `sampled` draws best matches the
/// `distinct` actually observed, saturating at `population` (when the
/// sample came back all-distinct, the data may well be unique). Returns
/// 0 for an empty sample. Deterministic (binary search, no floating
/// accumulation across calls).
int64_t EstimateGroupsFromSample(int64_t sampled, int64_t distinct,
                                 int64_t population);

}  // namespace adaptagg

#endif  // ADAPTAGG_MODEL_LOCALITY_MODEL_H_
