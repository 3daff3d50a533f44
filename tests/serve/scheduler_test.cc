#include "serve/scheduler.h"

#include <gtest/gtest.h>

namespace adaptagg {
namespace {

SchedulerConfig SmallConfig() {
  SchedulerConfig c;
  c.max_inflight = 2;
  c.queue_capacity = 2;
  return c;
}

TEST(Scheduler, AdmitsWhenSlotFree) {
  Scheduler s(SmallConfig());
  EXPECT_EQ(s.Offer(/*queued_now=*/0), Scheduler::Decision::kAdmit);
  s.Admit();
  EXPECT_EQ(s.inflight(), 1);
  EXPECT_EQ(s.Offer(0), Scheduler::Decision::kAdmit);
}

TEST(Scheduler, QueuesWhenSlotsFull) {
  Scheduler s(SmallConfig());
  s.Admit();
  s.Admit();
  EXPECT_EQ(s.Offer(0), Scheduler::Decision::kQueue);
}

TEST(Scheduler, FifoFairnessNeverJumpsTheQueue) {
  Scheduler s(SmallConfig());
  // A free slot with submissions already waiting means the newcomer
  // queues behind them instead of overtaking.
  EXPECT_EQ(s.Offer(/*queued_now=*/1), Scheduler::Decision::kQueue);
}

TEST(Scheduler, RejectsWhenQueueFull) {
  Scheduler s(SmallConfig());
  s.Admit();
  s.Admit();
  EXPECT_EQ(s.Offer(/*queued_now=*/2),
            Scheduler::Decision::kRejectQueueFull);
}

TEST(Scheduler, CanStartChecksSlots) {
  Scheduler s(SmallConfig());
  EXPECT_TRUE(s.CanStart());
  s.Admit();
  EXPECT_TRUE(s.CanStart());
  s.Admit();
  EXPECT_FALSE(s.CanStart());  // both slots taken
  s.Release();
  EXPECT_TRUE(s.CanStart());
}

TEST(Scheduler, ReleaseRestoresCapacityAndTracksHighWater) {
  Scheduler s(SmallConfig());
  s.Admit();
  s.Admit();
  EXPECT_EQ(s.inflight_high_water(), 2);
  s.Release();
  s.Release();
  EXPECT_EQ(s.inflight(), 0);
  EXPECT_EQ(s.inflight_high_water(), 2);
  EXPECT_EQ(s.Offer(0), Scheduler::Decision::kAdmit);
}

TEST(Scheduler, DecisionNamesAreStable) {
  EXPECT_EQ(SchedulerDecisionToString(Scheduler::Decision::kAdmit),
            "admit");
  EXPECT_EQ(SchedulerDecisionToString(Scheduler::Decision::kQueue),
            "queue");
  EXPECT_EQ(
      SchedulerDecisionToString(Scheduler::Decision::kRejectQueueFull),
      "reject-queue-full");
}

}  // namespace
}  // namespace adaptagg
