#include "agg/spilling_aggregator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "agg/reference.h"
#include "common/random.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace adaptagg {
namespace {

/// Feeds records to a SpillingAggregator the way the engine does: in
/// batches of up to `batch_width` records, cut wherever the tag changes
/// (raw vs partial), each batch bound in place and hashed in one pass.
class BatchFeeder {
 public:
  BatchFeeder(SpillingAggregator* agg, const AggregationSpec* spec,
              int batch_width = kBatchWidth)
      : agg_(agg), spec_(spec), batch_(spec), batch_width_(batch_width) {}

  void Raw(const std::vector<uint8_t>& rec) { Add(SpillTag::kRaw, rec); }
  void Partial(const std::vector<uint8_t>& rec) {
    Add(SpillTag::kPartial, rec);
  }

  /// Hands the pending batch over; call before Finish.
  void Flush() {
    if (count_ == 0) return;
    const int width = tag_ == SpillTag::kRaw ? spec_->projected_width()
                                             : spec_->partial_width();
    batch_.BindView(buf_.data(), width, count_);
    batch_.ComputeHashes();
    Status st = tag_ == SpillTag::kRaw ? agg_->AddProjectedBatch(batch_)
                                       : agg_->AddPartialBatch(batch_);
    EXPECT_TRUE(st.ok()) << st.ToString();
    buf_.clear();
    count_ = 0;
  }

 private:
  void Add(SpillTag tag, const std::vector<uint8_t>& rec) {
    if (count_ > 0 && (tag != tag_ || count_ == batch_width_)) Flush();
    tag_ = tag;
    buf_.insert(buf_.end(), rec.begin(), rec.end());
    ++count_;
  }

  SpillingAggregator* agg_;
  const AggregationSpec* spec_;
  TupleBatch batch_;
  int batch_width_;
  SpillTag tag_ = SpillTag::kRaw;
  std::vector<uint8_t> buf_;
  int count_ = 0;
};

class SpillingAggregatorTest : public ::testing::Test {
 protected:
  SpillingAggregatorTest()
      : disk_(1024),
        schema_({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}}) {
    auto spec = MakeCountSumSpec(&schema_, 0, 1);
    EXPECT_TRUE(spec.ok());
    spec_ = std::make_unique<AggregationSpec>(std::move(spec).value());
  }

  std::vector<uint8_t> Proj(int64_t g, int64_t v) {
    std::vector<uint8_t> p(16);
    std::memcpy(p.data(), &g, 8);
    std::memcpy(p.data() + 8, &v, 8);
    return p;
  }

  std::vector<uint8_t> Partial(int64_t g, int64_t count, int64_t sum) {
    std::vector<uint8_t> p(24);
    std::memcpy(p.data(), &g, 8);
    std::memcpy(p.data() + 8, &count, 8);
    std::memcpy(p.data() + 16, &sum, 8);
    return p;
  }

  // Collects (group -> (count, sum)) from Finish().
  std::map<int64_t, std::pair<int64_t, int64_t>> Collect(
      SpillingAggregator& agg) {
    std::map<int64_t, std::pair<int64_t, int64_t>> out;
    Status st = agg.Finish([&](const uint8_t* key, const uint8_t* state) {
      int64_t g, c, s;
      std::memcpy(&g, key, 8);
      std::memcpy(&c, state, 8);
      std::memcpy(&s, state + 8, 8);
      EXPECT_TRUE(out.emplace(g, std::make_pair(c, s)).second)
          << "group " << g << " emitted twice";
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  }

  SimDisk disk_;
  Schema schema_;
  std::unique_ptr<AggregationSpec> spec_;
};

TEST_F(SpillingAggregatorTest, InMemoryWhenGroupsFit) {
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/100);
  BatchFeeder feed(&agg, spec_.get());
  for (int64_t g = 0; g < 50; ++g) {
    for (int rep = 0; rep < 3; ++rep) feed.Raw(Proj(g, g));
  }
  feed.Flush();
  EXPECT_FALSE(agg.has_spilled());
  auto result = Collect(agg);
  ASSERT_EQ(result.size(), 50u);
  for (int64_t g = 0; g < 50; ++g) {
    EXPECT_EQ(result[g].first, 3);
    EXPECT_EQ(result[g].second, 3 * g);
  }
  EXPECT_EQ(agg.stats().overflow_records, 0);
}

TEST_F(SpillingAggregatorTest, SpillsAndRecoversExactCounts) {
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/32,
                         /*fanout=*/4);
  constexpr int64_t kGroups = 1'000;
  BatchFeeder feed(&agg, spec_.get());
  for (int64_t i = 0; i < 5'000; ++i) feed.Raw(Proj(i % kGroups, 1));
  feed.Flush();
  EXPECT_TRUE(agg.has_spilled());
  auto result = Collect(agg);
  ASSERT_EQ(result.size(), static_cast<size_t>(kGroups));
  for (const auto& [g, cs] : result) {
    EXPECT_EQ(cs.first, 5) << g;
    EXPECT_EQ(cs.second, 5) << g;
  }
  EXPECT_GT(agg.stats().overflow_records, 0);
  EXPECT_GT(agg.stats().spill_pages_written, 0);
  EXPECT_GT(agg.stats().spill_pages_read, 0);
  EXPECT_GE(agg.stats().max_depth, 1);
}

TEST_F(SpillingAggregatorTest, DeepRecursionTinyTable) {
  // M=2 with 200 groups forces multiple levels of repartitioning.
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/2,
                         /*fanout=*/2);
  BatchFeeder feed(&agg, spec_.get());
  for (int64_t i = 0; i < 1'000; ++i) feed.Raw(Proj(i % 200, 2));
  feed.Flush();
  auto result = Collect(agg);
  ASSERT_EQ(result.size(), 200u);
  for (const auto& [g, cs] : result) {
    EXPECT_EQ(cs.first, 5);
    EXPECT_EQ(cs.second, 10);
  }
  EXPECT_GE(agg.stats().max_depth, 2);
}

TEST_F(SpillingAggregatorTest, MixedRawAndPartialInputs) {
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/8,
                         /*fanout=*/2);
  // 100 groups, each gets 2 raw tuples (v=1) and one partial (3, 10).
  BatchFeeder feed(&agg, spec_.get());
  for (int64_t g = 0; g < 100; ++g) {
    feed.Raw(Proj(g, 1));
    feed.Partial(Partial(g, 3, 10));
    feed.Raw(Proj(g, 1));
  }
  feed.Flush();
  auto result = Collect(agg);
  ASSERT_EQ(result.size(), 100u);
  for (const auto& [g, cs] : result) {
    EXPECT_EQ(cs.first, 5) << g;   // 2 raw + partial count 3
    EXPECT_EQ(cs.second, 12) << g; // 2*1 + partial sum 10
  }
}

TEST_F(SpillingAggregatorTest, HeavyHitterNeverSpillsItsOwnUpdates) {
  // One group inserted first keeps aggregating in place even while other
  // groups overflow around it.
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/4);
  BatchFeeder feed(&agg, spec_.get());
  feed.Raw(Proj(0, 1));
  for (int64_t i = 0; i < 2'000; ++i) {
    feed.Raw(Proj(1 + i % 50, 1));
    feed.Raw(Proj(0, 1));
  }
  feed.Flush();
  int64_t spilled_before = agg.stats().overflow_records;
  auto result = Collect(agg);
  EXPECT_EQ(result[0].first, 2'001);
  // The heavy group was resident from the start: its 2001 updates are
  // not in the spill count (only other groups' records are).
  EXPECT_LE(spilled_before, 2'000);
  EXPECT_EQ(result.size(), 51u);
}

TEST_F(SpillingAggregatorTest, EmptyFinish) {
  SpillingAggregator agg(spec_.get(), &disk_, 8);
  int emitted = 0;
  ASSERT_TRUE(
      agg.Finish([&](const uint8_t*, const uint8_t*) { ++emitted; }).ok());
  EXPECT_EQ(emitted, 0);
}

TEST_F(SpillingAggregatorTest, SpillFilesReleasedAfterFinish) {
  SpillingAggregator agg(spec_.get(), &disk_, 4, 2);
  BatchFeeder feed(&agg, spec_.get());
  for (int64_t i = 0; i < 500; ++i) feed.Raw(Proj(i, 1));
  feed.Flush();
  Collect(agg);
  // All spill bucket files were dropped; writing to the disk again works
  // and SimDisk holds no leaked pages for them (new file starts empty).
  auto probe = disk_.CreateFile("probe");
  ASSERT_TRUE(probe.ok());
  auto pages = disk_.NumPages(*probe);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(*pages, 0);
}

TEST_F(SpillingAggregatorTest, DistinctSpecZeroStateWidth) {
  auto distinct = MakeDistinctSpec(&schema_, {0});
  ASSERT_TRUE(distinct.ok());
  SpillingAggregator agg(&*distinct, &disk_, 16, 2);
  BatchFeeder feed(&agg, &*distinct);
  std::vector<uint8_t> rec(8);
  for (int64_t i = 0; i < 1'000; ++i) {
    int64_t g = i % 77;
    std::memcpy(rec.data(), &g, 8);
    feed.Raw(rec);
  }
  feed.Flush();
  int emitted = 0;
  ASSERT_TRUE(
      agg.Finish([&](const uint8_t*, const uint8_t*) { ++emitted; }).ok());
  EXPECT_EQ(emitted, 77);
}

// A fixed mixed raw/partial input deep enough to recurse three levels.
// The pinned figures are those of the record-at-a-time replay this
// batch replay replaced: spill pages drive modeled I/O, so the batched
// recursion must reproduce them — and the exact emit sequence — however
// the input is cut into batches.
TEST_F(SpillingAggregatorTest, SpillStatsAndEmitSequencePinned) {
  for (int batch_width : {1, 7, kBatchWidth}) {
    SimDisk disk(1024);
    SpillingAggregator agg(spec_.get(), &disk, /*max_entries=*/64,
                           /*fanout=*/4);
    BatchFeeder feed(&agg, spec_.get(), batch_width);
    for (int64_t i = 0; i < 20'000; ++i) {
      const int64_t g =
          static_cast<int64_t>(SplitMix64(static_cast<uint64_t>(i)) % 3'000);
      if (i % 5 == 4) {
        feed.Partial(Partial(g, 2, 7 * g));
      } else {
        feed.Raw(Proj(g, i % 13));
      }
    }
    feed.Flush();
    uint64_t fnv = 1469598103934665603ULL;
    int64_t rows = 0;
    auto mix = [&fnv](const uint8_t* p, int n) {
      for (int i = 0; i < n; ++i) {
        fnv ^= p[i];
        fnv *= 1099511628211ULL;
      }
    };
    ASSERT_TRUE(agg.Finish([&](const uint8_t* key, const uint8_t* state) {
                     ++rows;
                     mix(key, 8);
                     mix(state, 16);
                   })
                    .ok());
    const SpillStats& st = agg.stats();
    SCOPED_TRACE("batch width " + std::to_string(batch_width));
    EXPECT_EQ(st.overflow_records, 47'203);
    EXPECT_EQ(st.spill_pages_written, 916);
    EXPECT_EQ(st.spill_pages_read, 916);
    EXPECT_EQ(st.buckets_created, 84);
    EXPECT_EQ(st.max_depth, 3);
    EXPECT_EQ(rows, 2'996);
    EXPECT_EQ(fnv, 0xb399f7f96a22b1fdULL);
  }
}

TEST_F(SpillingAggregatorTest, DeepSpillMatchesReference) {
  // Raw tuples through a two-level spill, against the independent
  // single-threaded oracle.
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       PartitionedRelation::Create(schema_, 1));
  for (int64_t i = 0; i < 6'000; ++i) {
    const int64_t g =
        static_cast<int64_t>(SplitMix64(static_cast<uint64_t>(i)) % 900);
    const std::vector<uint8_t> t = Proj(g, i % 101 - 50);
    ASSERT_OK(rel.Append(0, TupleView(t.data(), &rel.schema())));
  }
  ASSERT_OK(rel.Flush());
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(*spec_, rel));

  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/16,
                         /*fanout=*/8);
  BatchFeeder feed(&agg, spec_.get());
  HeapFileScanner scan(&rel.partition(0));
  std::vector<uint8_t> proj(static_cast<size_t>(spec_->projected_width()));
  for (TupleView t = scan.Next(); t.valid(); t = scan.Next()) {
    spec_->ProjectRaw(t, proj.data());
    feed.Raw(proj);
  }
  ASSERT_OK(scan.status());
  feed.Flush();
  ResultSet got;
  got.schema = spec_->final_schema();
  std::vector<uint8_t> row(
      static_cast<size_t>(spec_->final_schema().tuple_size()));
  ASSERT_OK(agg.Finish([&](const uint8_t* key, const uint8_t* state) {
    spec_->FinalizeRecord(key, state, row.data());
    got.rows.push_back(row);
  }));
  EXPECT_GE(agg.stats().max_depth, 2);
  EXPECT_TRUE(ResultSetsEqual(got, expected))
      << got.num_rows() << " rows vs " << expected.num_rows();
}

TEST_F(SpillingAggregatorTest, RestoreRebuildsTheSnapshottedTable) {
  // More groups than one batch, so the restore spans several runs; the
  // restored table must emit the same sequence as the original.
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/1'000);
  BatchFeeder feed(&agg, spec_.get());
  for (int64_t i = 0; i < 2'000; ++i) feed.Raw(Proj((i * 37) % 300, i));
  feed.Flush();
  std::vector<uint8_t> snap;
  ASSERT_TRUE(agg.Snapshot(&snap));

  SpillingAggregator restored(spec_.get(), &disk_, /*max_entries=*/1'000);
  ASSERT_OK(restored.RestoreFrom(snap.data(), snap.size()));
  std::vector<uint8_t> again;
  ASSERT_TRUE(restored.Snapshot(&again));
  EXPECT_EQ(again, snap);
  auto result = Collect(restored);
  ASSERT_EQ(result.size(), 300u);
  EXPECT_EQ(result[0].first, 2'000 / 300 + 1);
}

}  // namespace
}  // namespace adaptagg
