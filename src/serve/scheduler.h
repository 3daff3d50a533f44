#ifndef ADAPTAGG_SERVE_SCHEDULER_H_
#define ADAPTAGG_SERVE_SCHEDULER_H_

#include <cstdint>
#include <string>

#include "agg/agg_spec.h"
#include "cluster/node_context.h"
#include "sim/params.h"

namespace adaptagg {

/// Admission-control knobs of a ClusterService.
struct SchedulerConfig {
  /// Queries executing concurrently; further admissible submissions
  /// queue. Also sizes the service's per-node worker pools.
  int max_inflight = 4;
  /// Bounded submission queue: submissions arriving with the queue full
  /// are rejected with kResourceExhausted (backpressure).
  int queue_capacity = 16;
  /// Total estimated working-set bytes allowed in flight; <= 0 means
  /// unlimited. A query whose estimate exceeds the whole budget is
  /// rejected outright (it could never run); one that merely doesn't
  /// fit *now* queues.
  int64_t memory_budget_bytes = -1;
};

/// Upper-bound estimate of one query's cluster-wide working set, from
/// the same accounting AggHashTable::MemoryBytes reports at runtime:
/// every node may fill its hash-table bound M with slots of
/// partial_width bytes plus the bucket index (16 bytes of overhead per
/// entry: the bucket word at <= 70% load, rounded up). Two
/// tables can be live per node (local phase + merge receiver), hence
/// the factor 2. Deliberately pessimistic: admission reserves for the
/// worst case, the common case releases early.
int64_t EstimateQueryMemoryBytes(const AggregationSpec& spec,
                                 const AlgorithmOptions& options,
                                 const SystemParams& params);

/// Admission-control policy of the serving layer: bounds concurrent
/// queries, total in-flight memory, and the submission queue. Pure
/// bookkeeping — the ClusterService holds the lock and owns the actual
/// pending queue; this object just decides and counts, which keeps the
/// policy unit-testable without threads.
class Scheduler {
 public:
  enum class Decision {
    kAdmit,            ///< run now
    kQueue,            ///< admissible, but wait for capacity
    kRejectQueueFull,  ///< backpressure: queue at capacity
    kRejectMemory,     ///< estimate exceeds the whole memory budget
  };

  explicit Scheduler(SchedulerConfig config) : config_(config) {}

  const SchedulerConfig& config() const { return config_; }

  /// Decides what to do with a submission of estimated size `bytes`
  /// given `queued_now` submissions already waiting. Pure — records
  /// nothing; follow up with Admit() when running it.
  Decision Offer(int64_t bytes, int queued_now) const;

  /// True when a query of `bytes` can start now (a slot is free and the
  /// remaining memory budget fits it). The dequeue check.
  bool CanStart(int64_t bytes) const;

  /// Commits an admission of `bytes`.
  void Admit(int64_t bytes);

  /// Releases a finished query's reservation.
  void Release(int64_t bytes);

  int inflight() const { return inflight_; }
  int inflight_high_water() const { return inflight_high_water_; }
  int64_t inflight_bytes() const { return inflight_bytes_; }

 private:
  SchedulerConfig config_;
  int inflight_ = 0;
  int inflight_high_water_ = 0;
  int64_t inflight_bytes_ = 0;
};

std::string SchedulerDecisionToString(Scheduler::Decision d);

}  // namespace adaptagg

#endif  // ADAPTAGG_SERVE_SCHEDULER_H_
