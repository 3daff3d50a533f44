#ifndef ADAPTAGG_SERVE_SCHEDULER_H_
#define ADAPTAGG_SERVE_SCHEDULER_H_

#include <string>

namespace adaptagg {

/// Admission-control knobs of a ClusterService.
struct SchedulerConfig {
  /// Queries executing concurrently; further admissible submissions
  /// queue. Also sizes the service's per-node worker pools, and so
  /// bounds the working set in flight.
  int max_inflight = 4;
  /// Bounded submission queue: submissions arriving with the queue full
  /// are rejected with kResourceExhausted (backpressure).
  int queue_capacity = 16;
};

/// Admission-control policy of the serving layer: bounds concurrent
/// queries and the submission queue. Pure bookkeeping — the
/// ClusterService holds the lock and owns the actual pending queue; this
/// object just decides and counts, which keeps the policy unit-testable
/// without threads.
class Scheduler {
 public:
  enum class Decision {
    kAdmit,            ///< run now
    kQueue,            ///< admissible, but wait for a free slot
    kRejectQueueFull,  ///< backpressure: queue at capacity
  };

  explicit Scheduler(SchedulerConfig config) : config_(config) {}

  const SchedulerConfig& config() const { return config_; }

  /// Decides what to do with a submission given `queued_now` submissions
  /// already waiting. Pure — records nothing; follow up with Admit()
  /// when running it.
  Decision Offer(int queued_now) const;

  /// True when a query can start now (a slot is free). The dequeue
  /// check.
  bool CanStart() const { return inflight_ < config_.max_inflight; }

  /// Commits an admission.
  void Admit();

  /// Frees a finished query's slot.
  void Release() { --inflight_; }

  int inflight() const { return inflight_; }
  int inflight_high_water() const { return inflight_high_water_; }

 private:
  SchedulerConfig config_;
  int inflight_ = 0;
  int inflight_high_water_ = 0;
};

std::string SchedulerDecisionToString(Scheduler::Decision d);

}  // namespace adaptagg

#endif  // ADAPTAGG_SERVE_SCHEDULER_H_
