#include "obs/metric_registry.h"

#include <gtest/gtest.h>

#include "obs/metrics_export.h"

namespace adaptagg {
namespace {

TEST(MetricRegistry, CountersAccumulateAndSnapshot) {
  MetricRegistry reg;
  Counter c = reg.counter("a.count");
  c.Increment();
  c.Add(41);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("a.count"), 42);
  EXPECT_EQ(snap.Value("missing"), 0);
  ASSERT_NE(snap.Find("a.count"), nullptr);
  EXPECT_EQ(snap.Find("a.count")->kind, MetricKind::kCounter);
}

TEST(MetricRegistry, ReRegistrationSharesTheCell) {
  MetricRegistry reg;
  Counter c1 = reg.counter("shared");
  Counter c2 = reg.counter("shared");
  c1.Add(2);
  c2.Add(3);
  EXPECT_EQ(reg.Snapshot().Value("shared"), 5);
  EXPECT_TRUE(reg.registration_errors().empty());
}

TEST(MetricRegistry, KindMismatchYieldsDeadHandleNotACrash) {
  MetricRegistry reg;
  Counter c = reg.counter("name");
  Gauge g = reg.gauge("name");  // same name, different kind
  c.Add(7);
  g.Set(99);  // dead handle: ignored
  EXPECT_EQ(reg.Snapshot().Value("name"), 7);
  EXPECT_FALSE(reg.registration_errors().empty());
}

TEST(MetricRegistry, SnapshotIsNameSortedRegardlessOfRegistration) {
  MetricRegistry reg;
  reg.counter("zzz").Increment();
  reg.counter("aaa").Increment();
  reg.counter("mmm").Increment();
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "aaa");
  EXPECT_EQ(snap.entries[1].name, "mmm");
  EXPECT_EQ(snap.entries[2].name, "zzz");
}

TEST(MetricRegistry, GaugeSetAndUpdateMax) {
  MetricRegistry reg;
  Gauge g = reg.gauge("depth");
  g.Set(10);
  g.UpdateMax(4);  // lower: keeps 10
  EXPECT_EQ(reg.Snapshot().Value("depth"), 10);
  g.UpdateMax(25);
  EXPECT_EQ(reg.Snapshot().Value("depth"), 25);
}

TEST(MetricRegistry, HistogramObservationsLandInBuckets) {
  MetricRegistry reg;
  Histogram h =
      reg.histogram("sizes", HistogramSpec::Linear(10, 2));  // 10, 20, >
  h.Observe(3);
  h.Observe(10);
  h.Observe(15);
  h.Observe(1000);
  const MetricsSnapshot snap = reg.Snapshot();
  const MetricsSnapshot::Entry* e = snap.Find("sizes");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, MetricKind::kHistogram);
  EXPECT_EQ(e->value, 4);  // observation count
  ASSERT_EQ(e->bucket_counts.size(), 3u);
  EXPECT_EQ(e->bucket_counts[0], 2);
  EXPECT_EQ(e->bucket_counts[1], 1);
  EXPECT_EQ(e->bucket_counts[2], 1);
}

MetricsSnapshot ShardSnapshot(int64_t count, int64_t depth,
                              int64_t small_obs, int64_t big_obs) {
  MetricRegistry reg;
  Counter c = reg.counter("records");
  Gauge g = reg.gauge("depth");
  Histogram h = reg.histogram("sizes", HistogramSpec::Linear(10, 2));
  c.Add(count);
  g.Set(depth);
  for (int64_t i = 0; i < small_obs; ++i) h.Observe(5);
  for (int64_t i = 0; i < big_obs; ++i) h.Observe(500);
  return reg.Snapshot();
}

TEST(MetricsSnapshot, MergeSemanticsPerKind) {
  MetricsSnapshot a = ShardSnapshot(10, 3, 1, 0);
  MetricsSnapshot b = ShardSnapshot(32, 7, 0, 2);
  a.Merge(b);
  EXPECT_EQ(a.Value("records"), 42);  // counters sum
  EXPECT_EQ(a.Value("depth"), 7);    // gauges keep the max
  const MetricsSnapshot::Entry* e = a.Find("sizes");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 3);  // histogram totals sum
  EXPECT_EQ(e->bucket_counts[0], 1);
  EXPECT_EQ(e->bucket_counts[2], 2);  // overflow buckets sum
}

TEST(MetricsSnapshot, MergeCopiesEntriesOnlyPresentInOther) {
  MetricsSnapshot a;
  MetricsSnapshot b = ShardSnapshot(5, 1, 0, 0);
  a.Merge(b);
  EXPECT_EQ(a.Value("records"), 5);
  EXPECT_EQ(a.entries.size(), b.entries.size());
}

TEST(MetricsSnapshot, MergeIsCommutativeAndAssociative) {
  MetricsSnapshot shards[3] = {ShardSnapshot(1, 9, 1, 0),
                               ShardSnapshot(2, 4, 0, 1),
                               ShardSnapshot(4, 6, 2, 2)};
  // (a + b) + c vs a + (b + c) vs c + b + a — all must agree.
  MetricsSnapshot left = shards[0];
  left.Merge(shards[1]);
  left.Merge(shards[2]);
  MetricsSnapshot bc = shards[1];
  bc.Merge(shards[2]);
  MetricsSnapshot right = shards[0];
  right.Merge(bc);
  MetricsSnapshot rev = shards[2];
  rev.Merge(shards[1]);
  rev.Merge(shards[0]);
  EXPECT_EQ(MetricsToJson(left), MetricsToJson(right));
  EXPECT_EQ(MetricsToJson(left), MetricsToJson(rev));
}

TEST(MetricsExport, JsonAndTextRenderings) {
  MetricsSnapshot snap = ShardSnapshot(10, 3, 1, 1);
  const std::string one_line = MetricsToJson(snap);
  EXPECT_EQ(one_line.find('\n'), std::string::npos);
  EXPECT_NE(one_line.find("\"records\": 10"), std::string::npos);
  EXPECT_NE(one_line.find("\"buckets\": "), std::string::npos);
  const std::string text = MetricsToText(snap);
  EXPECT_NE(text.find("records 10"), std::string::npos);
  EXPECT_NE(text.find("<=10:"), std::string::npos);
}

}  // namespace
}  // namespace adaptagg
