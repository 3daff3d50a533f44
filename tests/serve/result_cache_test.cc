#include "serve/result_cache.h"

#include <gtest/gtest.h>

#include "exec/expression.h"
#include "test_util.h"
#include "workload/generator.h"

namespace adaptagg {
namespace {

ResultCache::Key MakeKey(uint64_t version, const std::string& fp) {
  ResultCache::Key key;
  key.relation_version = version;
  key.fingerprint = fp;
  return key;
}

ResultCache::Entry MakeEntry(double sim_time_s) {
  ResultCache::Entry e;
  e.sim_time_s = sim_time_s;
  return e;
}

TEST(ResultCache, InsertLookupRoundTrip) {
  ResultCache cache(4);
  cache.Insert(MakeKey(1, "q"), MakeEntry(1.5));
  auto hit = cache.Lookup(MakeKey(1, "q"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->sim_time_s, 1.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, VersionIsPartOfTheKey) {
  ResultCache cache(4);
  cache.Insert(MakeKey(1, "q"), MakeEntry(1.0));
  // Same query against a mutated relation: the bumped version can never
  // find the stale entry.
  EXPECT_FALSE(cache.Lookup(MakeKey(2, "q")).has_value());
  EXPECT_FALSE(cache.Lookup(MakeKey(1, "other")).has_value());
  EXPECT_TRUE(cache.Lookup(MakeKey(1, "q")).has_value());
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.Insert(MakeKey(1, "a"), MakeEntry(1.0));
  cache.Insert(MakeKey(1, "b"), MakeEntry(2.0));
  // Touch "a" so "b" becomes the LRU victim.
  ASSERT_TRUE(cache.Lookup(MakeKey(1, "a")).has_value());
  cache.Insert(MakeKey(1, "c"), MakeEntry(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Lookup(MakeKey(1, "a")).has_value());
  EXPECT_FALSE(cache.Lookup(MakeKey(1, "b")).has_value());
  EXPECT_TRUE(cache.Lookup(MakeKey(1, "c")).has_value());
}

TEST(ResultCache, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache cache(2);
  cache.Insert(MakeKey(1, "a"), MakeEntry(1.0));
  cache.Insert(MakeKey(1, "a"), MakeEntry(9.0));
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Lookup(MakeKey(1, "a"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->sim_time_s, 9.0);
}

TEST(ResultCache, InvalidateAllDropsEverything) {
  ResultCache cache(4);
  cache.Insert(MakeKey(1, "a"), MakeEntry(1.0));
  cache.Insert(MakeKey(2, "b"), MakeEntry(2.0));
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(MakeKey(1, "a")).has_value());
  EXPECT_FALSE(cache.Lookup(MakeKey(2, "b")).has_value());
}

TEST(ResultCache, ZeroCapacityDisablesTheCache) {
  ResultCache cache(0);
  cache.Insert(MakeKey(1, "a"), MakeEntry(1.0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(MakeKey(1, "a")).has_value());
}

TEST(QueryFingerprint, IgnoresHowAndCapturesWhat) {
  Schema schema = MakeBenchSchema(100);
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec, MakeBenchQuery(&schema));
  AlgorithmOptions options;

  const std::string base = QueryFingerprint(spec, options);
  EXPECT_FALSE(base.empty());

  // Tuning knobs change how the result is computed, never what it is —
  // two submissions differing only in M are the same cached query.
  AlgorithmOptions tuned = options;
  tuned.max_hash_entries = 17;
  tuned.query_id = 99;
  EXPECT_EQ(QueryFingerprint(spec, tuned), base);

  // Predicates change the result set, so they change the fingerprint.
  AlgorithmOptions filtered = options;
  filtered.where = Gt(Col(kBenchGroupCol), Lit(int64_t{5}));
  EXPECT_NE(QueryFingerprint(spec, filtered), base);

  AlgorithmOptions strained = options;
  strained.having = Gt(Col(0), Lit(int64_t{5}));
  EXPECT_NE(QueryFingerprint(spec, strained), base);
  EXPECT_NE(QueryFingerprint(spec, strained),
            QueryFingerprint(spec, filtered));

  // And so does the aggregation itself (DISTINCT = zero aggregates).
  ASSERT_OK_AND_ASSIGN(
      AggregationSpec distinct,
      AggregationSpec::Make(&schema, {kBenchGroupCol}, {}));
  EXPECT_NE(QueryFingerprint(distinct, options), base);
}

}  // namespace
}  // namespace adaptagg
