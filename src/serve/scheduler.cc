#include "serve/scheduler.h"

#include <algorithm>

namespace adaptagg {

int64_t EstimateQueryMemoryBytes(const AggregationSpec& spec,
                                 const AlgorithmOptions& options,
                                 const SystemParams& params) {
  const int64_t m = options.max_hash_entries > 0 ? options.max_hash_entries
                                                 : params.max_hash_entries;
  const int64_t per_entry = spec.partial_width() + 16;
  const int64_t n = params.num_nodes;
  return 2 * m * per_entry * n;
}

Scheduler::Decision Scheduler::Offer(int64_t bytes, int queued_now) const {
  if (config_.memory_budget_bytes > 0 &&
      bytes > config_.memory_budget_bytes) {
    return Decision::kRejectMemory;
  }
  if (CanStart(bytes) && queued_now == 0) return Decision::kAdmit;
  if (queued_now >= config_.queue_capacity) {
    return Decision::kRejectQueueFull;
  }
  return Decision::kQueue;
}

bool Scheduler::CanStart(int64_t bytes) const {
  if (inflight_ >= config_.max_inflight) return false;
  if (config_.memory_budget_bytes > 0 &&
      inflight_bytes_ + bytes > config_.memory_budget_bytes) {
    return false;
  }
  return true;
}

void Scheduler::Admit(int64_t bytes) {
  ++inflight_;
  inflight_high_water_ = std::max(inflight_high_water_, inflight_);
  inflight_bytes_ += bytes;
}

void Scheduler::Release(int64_t bytes) {
  --inflight_;
  inflight_bytes_ -= bytes;
}

std::string SchedulerDecisionToString(Scheduler::Decision d) {
  switch (d) {
    case Scheduler::Decision::kAdmit:
      return "admit";
    case Scheduler::Decision::kQueue:
      return "queue";
    case Scheduler::Decision::kRejectQueueFull:
      return "reject-queue-full";
    case Scheduler::Decision::kRejectMemory:
      return "reject-memory";
  }
  return "?";
}

}  // namespace adaptagg
