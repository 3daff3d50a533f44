#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metric_registry.h"

namespace adaptagg {
namespace {

// Hammers one registry from several writer threads while a reader takes
// snapshots mid-flight. Run under TSan (build-tsan) this proves the
// update paths and Snapshot are race-free; in any build it proves no
// update is lost once the writers join.
TEST(ObsStress, ConcurrentUpdatesDuringSnapshot) {
  static constexpr int kThreads = 4;
  static constexpr int kOpsPerThread = 50'000;

  MetricRegistry reg;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, t] {
      // Each thread registers its own handles — registration while
      // other threads update is part of what is being stressed.
      Counter c = reg.counter("stress.count");
      Gauge g = reg.gauge("stress.depth");
      Histogram h =
          reg.histogram("stress.sizes", HistogramSpec::Exponential(
                                            /*start=*/8, 2.0, /*count=*/8));
      for (int i = 0; i < kOpsPerThread; ++i) {
        c.Increment();
        g.UpdateMax(t * kOpsPerThread + i);
        h.Observe(i % 3000);
      }
    });
  }

  std::thread reader([&reg, &stop] {
    int64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snap = reg.Snapshot();
      const int64_t now = snap.Value("stress.count");
      // Counter totals observed mid-run never go backwards.
      EXPECT_GE(now, last);
      last = now;
      const MetricsSnapshot::Entry* h = snap.Find("stress.sizes");
      if (h != nullptr) {
        int64_t bucket_sum = 0;
        for (int64_t b : h->bucket_counts) bucket_sum += b;
        // Buckets and the total are updated by separate relaxed ops and
        // read at different instants of the scan, so a mid-run snapshot
        // may see them out of step by however many observations landed
        // in between — only the range is bounded mid-flight.
        constexpr int64_t kTotal =
            static_cast<int64_t>(kThreads) * kOpsPerThread;
        EXPECT_GE(bucket_sum, 0);
        EXPECT_LE(bucket_sum, kTotal);
        EXPECT_GE(h->value, 0);
        EXPECT_LE(h->value, kTotal);
      }
    }
  });

  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  MetricsSnapshot final_snap = reg.Snapshot();
  EXPECT_EQ(final_snap.Value("stress.count"),
            static_cast<int64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(final_snap.Value("stress.depth"),
            static_cast<int64_t>(kThreads - 1) * kOpsPerThread +
                (kOpsPerThread - 1));
  const MetricsSnapshot::Entry* h = final_snap.Find("stress.sizes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->value, static_cast<int64_t>(kThreads) * kOpsPerThread);
  int64_t bucket_sum = 0;
  for (int64_t b : h->bucket_counts) bucket_sum += b;
  EXPECT_EQ(bucket_sum, h->value);
}

// The serving layer's metric flow: per-session registries are updated
// by node worker threads while a finisher thread snapshots each shard
// and folds the shards together with MetricsSnapshot::Merge — and the
// service's own registry is snapshot concurrently by Metrics() callers.
// Merge itself only touches plain value snapshots (no shared state), so
// the concurrency contract is exactly "Snapshot may race updates"; this
// test pins that contract down under TSan the way FinishSession uses it.
TEST(ObsStress, SnapshotAndMergeRaceSessionUpdates) {
  static constexpr int kShards = 3;
  static constexpr int kOpsPerShard = 20'000;

  std::vector<std::unique_ptr<MetricRegistry>> shards;
  for (int i = 0; i < kShards; ++i) {
    shards.push_back(std::make_unique<MetricRegistry>());
  }
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < kShards; ++t) {
    writers.emplace_back([&shards, t] {
      Counter c = shards[static_cast<size_t>(t)]->counter("merge.count");
      Gauge g = shards[static_cast<size_t>(t)]->gauge("merge.peak");
      for (int i = 0; i < kOpsPerShard; ++i) {
        c.Increment();
        g.UpdateMax(i);
      }
    });
  }

  // The "finisher": repeatedly snapshots every live shard and merges the
  // shards into one view, mid-update.
  std::thread merger([&shards, &stop] {
    int64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot merged;
      for (const auto& shard : shards) merged.Merge(shard->Snapshot());
      const int64_t now = merged.Value("merge.count");
      EXPECT_GE(now, last);  // merged counters never run backwards
      EXPECT_LE(now, int64_t{kShards} * kOpsPerShard);
      last = now;
    }
  });

  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  merger.join();

  MetricsSnapshot final_view;
  for (const auto& shard : shards) final_view.Merge(shard->Snapshot());
  EXPECT_EQ(final_view.Value("merge.count"),
            int64_t{kShards} * kOpsPerShard);
  EXPECT_EQ(final_view.Value("merge.peak"), kOpsPerShard - 1);
}

}  // namespace
}  // namespace adaptagg
