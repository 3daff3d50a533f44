#ifndef ADAPTAGG_SERVE_RESULT_CACHE_H_
#define ADAPTAGG_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "agg/reference.h"
#include "cluster/node_context.h"
#include "common/mutex.h"

namespace adaptagg {

/// Semantic fingerprint of an aggregate query: everything that
/// determines its result set — group columns, aggregate descriptors,
/// and the WHERE/HAVING predicates — and nothing that doesn't (the
/// algorithm choice and its tuning knobs change how a result is
/// computed, never what it is; every algorithm is differentially tested
/// to produce identical rows). Two submissions with equal fingerprints
/// against the same relation version are the same query.
std::string QueryFingerprint(const AggregationSpec& spec,
                             const AlgorithmOptions& options);

/// LRU cache of gathered result sets, keyed on (relation version,
/// query fingerprint). The version half of the key is the invalidation
/// rule: any relation mutation bumps PartitionedRelation::version(), so
/// entries cached against older versions can never be looked up again —
/// they age out of the LRU ring. InvalidateAll() additionally drops
/// everything at once (explicit invalidation hook for out-of-band
/// mutation). Thread-safe: sessions finish (insert) and submissions
/// look up concurrently.
class ResultCache {
 public:
  struct Key {
    uint64_t relation_version = 0;
    std::string fingerprint;

    bool operator<(const Key& o) const {
      return relation_version != o.relation_version
                 ? relation_version < o.relation_version
                 : fingerprint < o.fingerprint;
    }
  };

  /// One cached result: the gathered rows plus the modeled time the
  /// original run spent producing them (reported alongside hits so
  /// callers can see what the cache saved).
  struct Entry {
    ResultSet results;
    double sim_time_s = 0;
  };

  /// `max_entries` == 0 disables the cache (every Lookup misses, every
  /// Insert is dropped).
  explicit ResultCache(size_t max_entries) : max_entries_(max_entries) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Copy of the cached entry, refreshing its LRU recency; nullopt on
  /// miss.
  std::optional<Entry> Lookup(const Key& key) ADAPTAGG_EXCLUDES(mu_);

  /// Inserts (or refreshes) an entry, evicting the least recently used
  /// one when full. A disabled cache drops it.
  void Insert(const Key& key, Entry entry) ADAPTAGG_EXCLUDES(mu_);

  /// Drops every entry (explicit invalidation).
  void InvalidateAll() ADAPTAGG_EXCLUDES(mu_);

  size_t size() const ADAPTAGG_EXCLUDES(mu_);
  uint64_t evictions() const ADAPTAGG_EXCLUDES(mu_);

 private:
  struct Slot {
    Entry entry;
    std::list<Key>::iterator lru_pos;
  };

  size_t max_entries_;
  mutable Mutex mu_;
  /// Most recently used at the front.
  std::list<Key> lru_ ADAPTAGG_GUARDED_BY(mu_);
  std::map<Key, Slot> entries_ ADAPTAGG_GUARDED_BY(mu_);
  uint64_t evictions_ ADAPTAGG_GUARDED_BY(mu_) = 0;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_SERVE_RESULT_CACHE_H_
