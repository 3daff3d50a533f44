#include "serve/scheduler.h"

#include <algorithm>

namespace adaptagg {

Scheduler::Decision Scheduler::Offer(int queued_now) const {
  if (CanStart() && queued_now == 0) return Decision::kAdmit;
  if (queued_now >= config_.queue_capacity) {
    return Decision::kRejectQueueFull;
  }
  return Decision::kQueue;
}

void Scheduler::Admit() {
  ++inflight_;
  inflight_high_water_ = std::max(inflight_high_water_, inflight_);
}

std::string SchedulerDecisionToString(Scheduler::Decision d) {
  switch (d) {
    case Scheduler::Decision::kAdmit:
      return "admit";
    case Scheduler::Decision::kQueue:
      return "queue";
    case Scheduler::Decision::kRejectQueueFull:
      return "reject-queue-full";
  }
  return "?";
}

}  // namespace adaptagg
