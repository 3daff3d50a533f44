#ifndef ADAPTAGG_OBS_METRIC_REGISTRY_H_
#define ADAPTAGG_OBS_METRIC_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "obs/histogram.h"

namespace adaptagg {

/// What a metric measures, and therefore how shards merge:
/// counters sum, gauges keep the maximum, histograms sum per bucket.
enum class MetricKind : uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

/// "counter", "gauge", or "histogram".
std::string MetricKindToString(MetricKind kind);

namespace internal_obs {

/// One registered metric. Lives in the registry's deque (stable address)
/// so handles can point straight at the atomics; updates are lock-free
/// relaxed atomic ops, safe against a concurrent Snapshot().
struct MetricCell {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::atomic<int64_t> value{0};
  HistogramSpec hist_spec;
  /// One atomic per bucket, sized at registration (kHistogram only).
  std::deque<std::atomic<int64_t>> buckets;
};

}  // namespace internal_obs

/// Monotonic counter handle. Value-type, trivially copyable; a
/// default-constructed handle ignores updates, so call sites never
/// branch on whether a metric was registered.
class Counter {
 public:
  Counter() = default;

  void Add(int64_t n) {
    if (cell_ != nullptr) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

 private:
  friend class MetricRegistry;
  explicit Counter(std::atomic<int64_t>* cell) : cell_(cell) {}
  std::atomic<int64_t>* cell_ = nullptr;
};

/// High-water-mark gauge handle: Set records the latest value, UpdateMax
/// only ever raises it. Shards merge by maximum.
class Gauge {
 public:
  Gauge() = default;

  void Set(int64_t v) {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }

  void UpdateMax(int64_t v) {
    if (cell_ == nullptr) return;
    int64_t cur = cell_->load(std::memory_order_relaxed);
    while (cur < v && !cell_->compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

 private:
  friend class MetricRegistry;
  explicit Gauge(std::atomic<int64_t>* cell) : cell_(cell) {}
  std::atomic<int64_t>* cell_ = nullptr;
};

/// Fixed-bucket histogram handle; Observe is one binary search over the
/// registered edges plus one relaxed increment.
class Histogram {
 public:
  Histogram() = default;

  void Observe(int64_t v) {
    if (cell_ == nullptr) return;
    const int b = cell_->hist_spec.BucketOf(v);
    cell_->buckets[static_cast<size_t>(b)].fetch_add(
        1, std::memory_order_relaxed);
    cell_->value.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  explicit Histogram(internal_obs::MetricCell* cell) : cell_(cell) {}
  internal_obs::MetricCell* cell_ = nullptr;
};

/// Point-in-time copy of a registry (or a merge of several): entries
/// sorted by name so snapshots are deterministic regardless of
/// registration or thread interleaving order.
struct MetricsSnapshot {
  /// One metric's value. For histograms `value` is the observation count
  /// and `bucket_counts`/`edges` carry the distribution.
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    int64_t value = 0;
    std::vector<int64_t> edges;
    std::vector<int64_t> bucket_counts;
  };

  std::vector<Entry> entries;

  /// Folds `other` in by name: counters add, gauges take the max,
  /// histograms add per bucket (edges must agree; mismatched histograms
  /// keep this snapshot's buckets and only merge the total). Entries only
  /// present in `other` are copied over. Commutative and associative, so
  /// any merge tree over node shards yields the same snapshot. Merge
  /// mutates only this value-type snapshot — never a live registry — so
  /// the serving layer's finisher threads can fold per-session shards
  /// while node threads keep updating them: the race surface is entirely
  /// inside Snapshot(), which reads every cell with relaxed atomics.
  void Merge(const MetricsSnapshot& other);

  /// Value of `name`, or 0 when absent.
  int64_t Value(const std::string& name) const;

  /// Entry lookup; nullptr when absent.
  const Entry* Find(const std::string& name) const;

  bool empty() const { return entries.empty(); }
};

/// A per-node metric shard: registration is mutex-protected and returns
/// stable handles; the handles' update paths are lock-free (relaxed
/// atomics), so node threads never contend and a snapshot can be taken
/// mid-run from any thread. Re-registering a name returns the existing
/// cell (kind must match; mismatches return a dead handle and are
/// reported once via the error list, never by throwing).
class MetricRegistry {
 public:
  MetricRegistry() = default;

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter counter(const std::string& name) ADAPTAGG_EXCLUDES(mu_);
  Gauge gauge(const std::string& name) ADAPTAGG_EXCLUDES(mu_);
  Histogram histogram(const std::string& name, const HistogramSpec& spec)
      ADAPTAGG_EXCLUDES(mu_);

  /// Reads every metric (relaxed) into a name-sorted snapshot. Safe to
  /// call from any thread while updates are in flight.
  MetricsSnapshot Snapshot() const ADAPTAGG_EXCLUDES(mu_);

  /// Kind-mismatch registrations observed so far (test hook).
  std::vector<std::string> registration_errors() const
      ADAPTAGG_EXCLUDES(mu_);

 private:
  /// Looks the cell up (or creates it) under mu_. `spec` is non-null
  /// only for histograms; bucket storage is initialized while the lock
  /// is still held so concurrent registration and Snapshot() never see
  /// the bucket deque mid-growth. The returned cell pointer escapes the
  /// critical section deliberately: cells have stable deque addresses
  /// and are only ever updated through their atomics (never guarded
  /// fields), so handle updates stay lock-free.
  internal_obs::MetricCell* FindOrCreate(const std::string& name,
                                         MetricKind kind,
                                         const HistogramSpec* spec)
      ADAPTAGG_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::deque<internal_obs::MetricCell> cells_ ADAPTAGG_GUARDED_BY(mu_);
  std::vector<std::string> errors_ ADAPTAGG_GUARDED_BY(mu_);
};

}  // namespace adaptagg

#endif  // ADAPTAGG_OBS_METRIC_REGISTRY_H_
