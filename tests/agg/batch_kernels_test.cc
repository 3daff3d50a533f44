// Differential tests for the batched aggregation kernels: every batch
// entry point must be bit-identical to the tuple-at-a-time path it
// replaced — same hashes, same projected bytes, same table contents,
// and the same exact stopping tuple when the table fills mid-batch. The
// spec-matrix differentials also run adversarial rows (NaN, infinities,
// signed zero, int64 extremes) through the fused add and MIN/MAX kernels.

#include "agg/batch_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "agg/hash_table.h"
#include "agg/reference.h"
#include "common/random.h"
#include "test_util.h"
#include "workload/generator.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

/// One randomized-differential configuration: a schema plus a query over
/// it. The matrix covers all five AggKinds, both numeric input types,
/// multi-column and odd-width keys, and DISTINCT (zero aggregates).
struct SpecCase {
  std::string name;
  Schema schema;
  std::vector<int> group_cols;
  std::vector<AggDescriptor> aggs;
  FusedKernelKind want_kernel = FusedKernelKind::kGeneric;
  FusedMergeKind want_merge = FusedMergeKind::kGeneric;
};

std::vector<SpecCase> AllSpecCases() {
  std::vector<SpecCase> cases;
  // Canonical COUNT(*), SUM(int64) GROUP BY int64: the fused kernel.
  cases.push_back(
      {"count_sum_int64",
       Schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}}),
       {0},
       {{AggKind::kCount, -1, "c"}, {AggKind::kSum, 1, "s"}},
       FusedKernelKind::kCountSumInt64, FusedMergeKind::kAddInt64});
  // Three-int64 key (24B word fast path) on the fused COUNT+SUM kernel.
  cases.push_back(
      {"count_sum_int64_3key",
       Schema({{"a", DataType::kInt64, 8},
               {"b", DataType::kInt64, 8},
               {"c", DataType::kInt64, 8},
               {"v", DataType::kInt64, 8}}),
       {0, 1, 2},
       {{AggKind::kCount, -1, "c"}, {AggKind::kSum, 3, "s"}},
       FusedKernelKind::kCountSumInt64, FusedMergeKind::kAddInt64});
  // Two-int64 key (16B word fast path), double inputs, SUM + AVG.
  cases.push_back(
      {"sum_avg_double_2key",
       Schema({{"a", DataType::kInt64, 8},
               {"b", DataType::kInt64, 8},
               {"x", DataType::kDouble, 8}}),
       {0, 1},
       {{AggKind::kSum, 2, "s"}, {AggKind::kAvg, 2, "a"}}});
  // Odd-width bytes key (no word fast path), MIN(int64) + MAX(double).
  cases.push_back(
      {"min_max_bytes5_key",
       Schema({{"k", DataType::kBytes, 5},
               {"v", DataType::kInt64, 8},
               {"d", DataType::kDouble, 8}}),
       {0},
       {{AggKind::kMin, 1, "lo"}, {AggKind::kMax, 2, "hi"}}});
  // Mixed 11-byte key, AVG(double) + COUNT + MAX(int64).
  cases.push_back(
      {"avg_count_max_mixed_key",
       Schema({{"g", DataType::kInt64, 8},
               {"t", DataType::kBytes, 3},
               {"x", DataType::kDouble, 8},
               {"v", DataType::kInt64, 8}}),
       {0, 1},
       {{AggKind::kAvg, 2, "a"},
        {AggKind::kCount, -1, "c"},
        {AggKind::kMax, 3, "m"}}});
  // DISTINCT over (int64, double): zero aggregates, fused probe-only.
  cases.push_back(
      {"distinct_2col",
       Schema({{"g", DataType::kInt64, 8}, {"d", DataType::kDouble, 8}}),
       {0, 1},
       {},
       FusedKernelKind::kDistinct, FusedMergeKind::kDistinct});
  // MIN(double) alone on a double key: remaining kind/type combination.
  cases.push_back({"min_double_double_key",
                   Schema({{"k", DataType::kDouble, 8},
                           {"d", DataType::kDouble, 8}}),
                   {0},
                   {{AggKind::kMin, 1, "lo"}}});
  // MIN+MAX over int64: generic raw update, fused compare-merge.
  cases.push_back(
      {"min_max_int64",
       Schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}}),
       {0},
       {{AggKind::kMin, 1, "lo"}, {AggKind::kMax, 1, "hi"}},
       FusedKernelKind::kGeneric, FusedMergeKind::kMinMaxInt64});
  // COUNT + AVG(int64): every state word merges by addition.
  cases.push_back(
      {"count_avg_int64",
       Schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}}),
       {0},
       {{AggKind::kCount, -1, "c"}, {AggKind::kAvg, 1, "a"}},
       FusedKernelKind::kGeneric, FusedMergeKind::kAddInt64});
  return cases;
}

/// Deterministic pseudo-random tuples with a small per-column domain so
/// group keys collide often (the update paths get exercised, not just
/// inserts).
std::vector<uint8_t> MakeTuples(const Schema& schema, int n, uint64_t seed,
                                uint64_t domain) {
  Prng prng(seed);
  std::vector<uint8_t> raw(static_cast<size_t>(n) * schema.tuple_size());
  for (int i = 0; i < n; ++i) {
    uint8_t* rec = raw.data() + static_cast<size_t>(i) * schema.tuple_size();
    for (int f = 0; f < schema.num_fields(); ++f) {
      uint8_t* dst = rec + schema.offset(f);
      switch (schema.field(f).type) {
        case DataType::kInt64: {
          int64_t v = static_cast<int64_t>(prng.NextBelow(domain)) - 3;
          std::memcpy(dst, &v, 8);
          break;
        }
        case DataType::kDouble: {
          double d =
              static_cast<double>(static_cast<int64_t>(prng.NextBelow(domain)) -
                                  3);
          std::memcpy(dst, &d, 8);
          break;
        }
        case DataType::kBytes: {
          for (int b = 0; b < schema.field(f).width; ++b) {
            dst[b] = static_cast<uint8_t>('a' + prng.NextBelow(3));
          }
          break;
        }
      }
    }
  }
  return raw;
}

/// Deterministic tuples with adversarial values in every column: int64
/// sentinel extremes (INT64_MIN / INT64_MAX, which also wrap the SUM
/// and AVG accumulators), NaN / infinities / signed zero / huge doubles,
/// and keys drawn from `groups` ids so most rows update an existing
/// group.
std::vector<uint8_t> MakeAdversarialTuples(const Schema& schema, int n,
                                           int groups) {
  constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
  const double specials[] = {std::nan(""),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             -0.0, 1.5e300, -2.25};
  std::vector<uint8_t> raw(static_cast<size_t>(n) * schema.tuple_size());
  for (int i = 0; i < n; ++i) {
    uint8_t* rec = raw.data() + static_cast<size_t>(i) * schema.tuple_size();
    const int g = i % groups;
    for (int f = 0; f < schema.num_fields(); ++f) {
      uint8_t* dst = rec + schema.offset(f);
      const int j = i + 3 * f;  // staggers the specials across columns
      switch (schema.field(f).type) {
        case DataType::kInt64: {
          int64_t v = static_cast<int64_t>(g) * (f + 1) - 7;
          if (j % 13 == 0) v = kI64Min;
          if (j % 17 == 0) v = kI64Max;
          std::memcpy(dst, &v, 8);
          break;
        }
        case DataType::kDouble: {
          const double d = (j % 5 == 0)
                               ? specials[static_cast<size_t>(j / 5) % 6]
                               : static_cast<double>(g) * 0.125 - 3.0;
          std::memcpy(dst, &d, 8);
          break;
        }
        case DataType::kBytes: {
          for (int b = 0; b < schema.field(f).width; ++b) {
            const int c = (g + b) % 3 == 0 ? 0 : 'a' + g % 26;
            dst[b] = static_cast<uint8_t>(c);
          }
          break;
        }
      }
    }
  }
  return raw;
}

/// The spec-matrix differential inputs: one random small-domain input
/// per seed, then the adversarial rows.
std::vector<std::vector<uint8_t>> MatrixInputs(
    const Schema& schema, int n, std::initializer_list<uint64_t> seeds) {
  std::vector<std::vector<uint8_t>> inputs;
  for (uint64_t seed : seeds) {
    inputs.push_back(MakeTuples(schema, n, seed, 29));
  }
  inputs.push_back(MakeAdversarialTuples(schema, n, /*groups=*/211));
  return inputs;
}

/// The pre-batch per-tuple path: project, hash, upsert one at a time.
void ScalarUpsertAll(const AggregationSpec& spec, const Schema& schema,
                     const std::vector<uint8_t>& raw, int n,
                     AggHashTable& table) {
  std::vector<uint8_t> proj(
      static_cast<size_t>(std::max(1, spec.projected_width())));
  for (int i = 0; i < n; ++i) {
    TupleView t(raw.data() + static_cast<size_t>(i) * schema.tuple_size(),
                &schema);
    spec.ProjectRaw(t, proj.data());
    AggHashTable::UpsertResult r =
        table.UpsertProjected(proj.data(), spec.HashKey(proj.data()));
    ASSERT_NE(r, AggHashTable::UpsertResult::kFull);
  }
}

/// The batched path: gather page-sized batches, hash, batch upsert.
void BatchUpsertAll(const AggregationSpec& spec, const Schema& schema,
                    const std::vector<uint8_t>& raw, int n,
                    AggHashTable& table) {
  TupleBatch batch(&spec);
  int i = 0;
  while (i < n) {
    batch.Clear();
    while (!batch.full() && i < n) {
      TupleView t(raw.data() + static_cast<size_t>(i) * schema.tuple_size(),
                  &schema);
      batch.Gather(t);
      ++i;
    }
    batch.ComputeHashes();
    ASSERT_EQ(table.UpsertProjectedBatch(batch, 0), batch.size());
  }
}

/// Every (key, state) of `a` must exist in `b` with bit-identical state
/// bytes, and the sizes must match (=> the tables are equal as sets).
void ExpectTablesEqual(const AggregationSpec& spec, const AggHashTable& a,
                       const AggHashTable& b) {
  ASSERT_EQ(a.size(), b.size());
  a.ForEach([&](const uint8_t* key, const uint8_t* state) {
    const uint8_t* other = b.Find(key, spec.HashKey(key));
    ASSERT_NE(other, nullptr) << "key missing from batch table";
    EXPECT_EQ(std::memcmp(state, other,
                          static_cast<size_t>(spec.state_width())),
              0)
        << "state bytes differ";
  });
}

TEST(BatchKernels, BatchMatchesScalarAcrossSpecMatrix) {
  for (const SpecCase& c : AllSpecCases()) {
    SCOPED_TRACE(c.name);
    ASSERT_OK_AND_ASSIGN(
        AggregationSpec spec,
        AggregationSpec::Make(&c.schema, c.group_cols, c.aggs));
    EXPECT_EQ(spec.fused_kernel(), c.want_kernel);
    const int n = 4096;
    const std::vector<std::vector<uint8_t>> inputs =
        MatrixInputs(c.schema, n, {1u, 7u, 1234u});
    for (size_t in = 0; in < inputs.size(); ++in) {
      SCOPED_TRACE("input=" + std::to_string(in));
      const std::vector<uint8_t>& raw = inputs[in];
      AggHashTable scalar(&spec, /*max_entries=*/1 << 20);
      ScalarUpsertAll(spec, c.schema, raw, n, scalar);
      AggHashTable batched(&spec, /*max_entries=*/1 << 20);
      BatchUpsertAll(spec, c.schema, raw, n, batched);
      ExpectTablesEqual(spec, scalar, batched);
    }
  }
}

TEST(BatchKernels, HashKeysMatchesScalarHashKey) {
  for (const SpecCase& c : AllSpecCases()) {
    SCOPED_TRACE(c.name);
    ASSERT_OK_AND_ASSIGN(
        AggregationSpec spec,
        AggregationSpec::Make(&c.schema, c.group_cols, c.aggs));
    const int n = 300;  // deliberately not a batch multiple
    std::vector<uint8_t> raw = MakeTuples(c.schema, n, 99, 1000);
    std::vector<uint8_t> proj(
        static_cast<size_t>(std::max(1, spec.projected_width())) * n);
    const int stride = std::max(1, spec.projected_width());
    for (int i = 0; i < n; ++i) {
      TupleView t(raw.data() + static_cast<size_t>(i) * c.schema.tuple_size(),
                  &c.schema);
      spec.ProjectRaw(t, proj.data() + static_cast<size_t>(i) * stride);
    }
    std::vector<uint64_t> got(n);
    spec.HashKeys(proj.data(), stride, n, got.data());
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(got[i],
                spec.HashKey(proj.data() + static_cast<size_t>(i) * stride))
          << "record " << i;
    }
  }
}

TEST(BatchKernels, GatherRunMatchesPerTupleGather) {
  for (const SpecCase& c : AllSpecCases()) {
    SCOPED_TRACE(c.name);
    ASSERT_OK_AND_ASSIGN(
        AggregationSpec spec,
        AggregationSpec::Make(&c.schema, c.group_cols, c.aggs));
    const int n = 100;
    std::vector<uint8_t> raw = MakeTuples(c.schema, n, 5, 50);
    TupleBatch one(&spec);
    for (int i = 0; i < n; ++i) {
      TupleView t(raw.data() + static_cast<size_t>(i) * c.schema.tuple_size(),
                  &c.schema);
      one.Gather(t);
    }
    TupleBatch run(&spec);
    // Split into two runs to exercise the append-at-offset path.
    ASSERT_EQ(run.GatherRun(raw.data(), c.schema.tuple_size(), 37), 37);
    ASSERT_EQ(run.GatherRun(raw.data() + 37 * c.schema.tuple_size(),
                            c.schema.tuple_size(), n - 37),
              n - 37);
    ASSERT_EQ(one.size(), run.size());
    EXPECT_EQ(std::memcmp(one.records(), run.records(),
                          static_cast<size_t>(n) * one.stride()),
              0);
  }
}

TEST(BatchKernels, FixedWidthGatherRunMatchesPerTupleGather) {
  // A single-run projection plan of 16 bytes takes GatherRun's
  // fixed-width loop; 8, 24 and 32-byte runs take the generic loop beside
  // it, so both must agree with Gather. The run starts 12 bytes into the record (behind a
  // bytes column) and records are wider than it, so neither the bulk
  // identity copy nor an aligned source can hide an offset mistake.
  for (int width : {8, 16, 24, 32}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<Field> fields = {{"pad", DataType::kBytes, 12}};
    std::vector<int> group_cols;
    for (int c = 0; c < width / 8; ++c) {
      fields.push_back({"k" + std::to_string(c), DataType::kInt64, 8});
      group_cols.push_back(c + 1);
    }
    fields.push_back({"tail", DataType::kBytes, 5});
    const Schema schema(fields);
    // DISTINCT over the key columns: the projection is exactly the run.
    ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                         AggregationSpec::Make(&schema, group_cols, {}));
    ASSERT_EQ(spec.projection_plan().size(), 1u);
    ASSERT_EQ(spec.projection_plan()[0].src_offset, 12);
    ASSERT_EQ(spec.projection_plan()[0].width, width);

    const int rec = schema.tuple_size();
    std::vector<uint8_t> raw = MakeTuples(schema, kBatchWidth, 17, 1 << 20);
    TupleBatch want(&spec);
    for (int i = 0; i < kBatchWidth; ++i) {
      want.Gather(TupleView(raw.data() + static_cast<size_t>(i) * rec,
                            &schema));
    }
    // Fill one batch in runs of `run` records, for every run length.
    for (int run = 1; run <= kBatchWidth; ++run) {
      TupleBatch got(&spec);
      while (!got.full()) {
        const int at = got.size();
        ASSERT_EQ(got.GatherRun(raw.data() + static_cast<size_t>(at) * rec,
                                rec, std::min(run, kBatchWidth - at)),
                  std::min(run, kBatchWidth - at));
      }
      ASSERT_EQ(std::memcmp(want.records(), got.records(),
                            static_cast<size_t>(kBatchWidth) * width),
                0)
          << "runs of " << run;
      EXPECT_EQ(got.stats().identity_copy_tuples, 0);
    }
  }
}

TEST(BatchKernels, GatherRunStopsAtBatchCapacity) {
  Schema schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}});
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeCountSumSpec(&schema, 0, 1));
  std::vector<uint8_t> raw =
      MakeTuples(schema, kBatchWidth + 50, 11, 1000);
  TupleBatch batch(&spec);
  EXPECT_EQ(batch.GatherRun(raw.data(), schema.tuple_size(),
                            kBatchWidth + 50),
            kBatchWidth);
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.GatherRun(raw.data(), schema.tuple_size(), 1), 0);
}

// The kFull contract: the batch upsert must stop at exactly the tuple
// where the tuple-at-a-time loop saw kFull, leave that record entirely
// unprocessed, and leave the table bit-identical — this is what makes
// switch_at_tuple identical between the scalar and batched pipelines.
TEST(BatchKernels, StopAtFullMatchesScalarStopPoint) {
  Schema schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}});
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeCountSumSpec(&schema, 0, 1));
  const int n = 2 * kBatchWidth;
  for (uint64_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<uint8_t> raw = MakeTuples(schema, n, seed, 400);
    const int64_t m = 40;  // overflows mid-batch

    // Tuple-at-a-time: find the exact stopping tuple.
    AggHashTable scalar(&spec, m);
    std::vector<uint8_t> proj(static_cast<size_t>(spec.projected_width()));
    int scalar_stop = -1;
    for (int i = 0; i < n; ++i) {
      TupleView t(raw.data() + static_cast<size_t>(i) * schema.tuple_size(),
                  &schema);
      spec.ProjectRaw(t, proj.data());
      if (scalar.UpsertProjected(proj.data(), spec.HashKey(proj.data())) ==
          AggHashTable::UpsertResult::kFull) {
        scalar_stop = i;
        break;
      }
    }
    ASSERT_GE(scalar_stop, 0) << "test wants a mid-stream overflow";

    // Batched: consumed count must equal the scalar stop index.
    AggHashTable batched(&spec, m);
    TupleBatch batch(&spec);
    int consumed_total = 0;
    bool stopped = false;
    int i = 0;
    while (i < n && !stopped) {
      batch.Clear();
      while (!batch.full() && i < n) {
        TupleView t(
            raw.data() + static_cast<size_t>(i) * schema.tuple_size(),
            &schema);
        batch.Gather(t);
        ++i;
      }
      batch.ComputeHashes();
      int consumed = batched.UpsertProjectedBatch(batch, 0);
      consumed_total += consumed;
      stopped = consumed < batch.size();
    }
    EXPECT_TRUE(stopped);
    EXPECT_EQ(consumed_total, scalar_stop);
    ExpectTablesEqual(spec, scalar, batched);
    EXPECT_EQ(batched.size(), m) << "table must be exactly at capacity";
  }
}

// The overflow-collecting variant must report exactly the records the
// scalar loop saw kFull for, in order, while still updating hits.
TEST(BatchKernels, OverflowCollectMatchesScalar) {
  Schema schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}});
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeCountSumSpec(&schema, 0, 1));
  const int n = kBatchWidth;
  std::vector<uint8_t> raw = MakeTuples(schema, n, 21, 300);
  const int64_t m = 30;

  AggHashTable scalar(&spec, m);
  std::vector<uint8_t> proj(static_cast<size_t>(spec.projected_width()));
  std::vector<int> scalar_overflow;
  for (int i = 0; i < n; ++i) {
    TupleView t(raw.data() + static_cast<size_t>(i) * schema.tuple_size(),
                &schema);
    spec.ProjectRaw(t, proj.data());
    if (scalar.UpsertProjected(proj.data(), spec.HashKey(proj.data())) ==
        AggHashTable::UpsertResult::kFull) {
      scalar_overflow.push_back(i);
    }
  }
  ASSERT_FALSE(scalar_overflow.empty());

  AggHashTable batched(&spec, m);
  TupleBatch batch(&spec);
  for (int i = 0; i < n; ++i) {
    TupleView t(raw.data() + static_cast<size_t>(i) * schema.tuple_size(),
                &schema);
    batch.Gather(t);
  }
  batch.ComputeHashes();
  std::vector<int> batch_overflow;
  batched.UpsertProjectedBatchOverflow(batch, 0, batch_overflow);
  EXPECT_EQ(batch_overflow, scalar_overflow);
  ExpectTablesEqual(spec, scalar, batched);
}

/// Builds one single-tuple partial record per raw tuple: [key][state],
/// with the state initialized and updated from the projected tuple.
/// Every 7th record keeps a bare initialized state (no update) so
/// MIN/MAX "seen" flags stay 0 — the empty-state merge path the fused
/// compare-merge kernel must skip exactly like MergeState does.
std::vector<uint8_t> MakePartials(const AggregationSpec& spec,
                                  const Schema& schema,
                                  const std::vector<uint8_t>& raw, int n) {
  const size_t pw = static_cast<size_t>(spec.partial_width());
  std::vector<uint8_t> proj(
      static_cast<size_t>(std::max(1, spec.projected_width())));
  std::vector<uint8_t> partials(static_cast<size_t>(n) * pw);
  for (int i = 0; i < n; ++i) {
    TupleView t(raw.data() + static_cast<size_t>(i) * schema.tuple_size(),
                &schema);
    spec.ProjectRaw(t, proj.data());
    uint8_t* rec = partials.data() + static_cast<size_t>(i) * pw;
    std::memcpy(rec, spec.KeyOfProjected(proj.data()),
                static_cast<size_t>(spec.key_width()));
    spec.InitState(rec + spec.key_width());
    if (i % 7 != 6) {
      spec.UpdateFromProjected(rec + spec.key_width(), proj.data());
    }
  }
  return partials;
}

// The merge-side differential: upserting partial records through
// UpsertPartialBatch (BindView'd wire runs, fused merge kernels) must
// leave a table bit-identical to the per-record UpsertPartial loop, for
// every merge-kernel kind in the matrix.
TEST(BatchKernels, PartialMergeBatchMatchesScalarAcrossSpecMatrix) {
  for (const SpecCase& c : AllSpecCases()) {
    SCOPED_TRACE(c.name);
    ASSERT_OK_AND_ASSIGN(
        AggregationSpec spec,
        AggregationSpec::Make(&c.schema, c.group_cols, c.aggs));
    EXPECT_EQ(spec.fused_merge_kernel(), c.want_merge);
    const int n = 4096;
    const std::vector<std::vector<uint8_t>> inputs =
        MatrixInputs(c.schema, n, {2u, 9u, 4321u});
    for (size_t in = 0; in < inputs.size(); ++in) {
      SCOPED_TRACE("input=" + std::to_string(in));
      const std::vector<uint8_t>& raw = inputs[in];
      std::vector<uint8_t> partials = MakePartials(spec, c.schema, raw, n);
      const int pw = spec.partial_width();

      AggHashTable scalar(&spec, /*max_entries=*/1 << 20);
      for (int i = 0; i < n; ++i) {
        const uint8_t* rec =
            partials.data() + static_cast<size_t>(i) * pw;
        ASSERT_NE(scalar.UpsertPartial(rec, spec.HashKey(rec)),
                  AggHashTable::UpsertResult::kFull);
      }

      AggHashTable batched(&spec, /*max_entries=*/1 << 20);
      TupleBatch batch(&spec);
      for (int off = 0; off < n; off += kBatchWidth) {
        const int run = std::min(n - off, kBatchWidth);
        batch.BindView(partials.data() + static_cast<size_t>(off) * pw, pw,
                       run);
        batch.ComputeHashes();
        ASSERT_EQ(batched.UpsertPartialBatch(batch, 0), run);
      }
      batch.Clear();
      ExpectTablesEqual(spec, scalar, batched);
    }
  }
}

// Partial-record twin of StopAtFullMatchesScalarStopPoint: the batched
// merge must stop at exactly the partial record where the per-record
// loop saw kFull.
TEST(BatchKernels, PartialMergeStopAtFullMatchesScalarStopPoint) {
  Schema schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}});
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeCountSumSpec(&schema, 0, 1));
  const int n = 2 * kBatchWidth;
  const int pw = spec.partial_width();
  for (uint64_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<uint8_t> raw = MakeTuples(schema, n, seed, 400);
    std::vector<uint8_t> partials = MakePartials(spec, schema, raw, n);
    const int64_t m = 40;  // overflows mid-batch

    AggHashTable scalar(&spec, m);
    int scalar_stop = -1;
    for (int i = 0; i < n; ++i) {
      const uint8_t* rec = partials.data() + static_cast<size_t>(i) * pw;
      if (scalar.UpsertPartial(rec, spec.HashKey(rec)) ==
          AggHashTable::UpsertResult::kFull) {
        scalar_stop = i;
        break;
      }
    }
    ASSERT_GE(scalar_stop, 0) << "test wants a mid-stream overflow";

    AggHashTable batched(&spec, m);
    TupleBatch batch(&spec);
    int consumed_total = 0;
    bool stopped = false;
    for (int off = 0; off < n && !stopped; off += kBatchWidth) {
      const int run = std::min(n - off, kBatchWidth);
      batch.BindView(partials.data() + static_cast<size_t>(off) * pw, pw,
                     run);
      batch.ComputeHashes();
      const int consumed = batched.UpsertPartialBatch(batch, 0);
      consumed_total += consumed;
      stopped = consumed < run;
    }
    batch.Clear();
    EXPECT_TRUE(stopped);
    EXPECT_EQ(consumed_total, scalar_stop);
    ExpectTablesEqual(spec, scalar, batched);
    EXPECT_EQ(batched.size(), m) << "table must be exactly at capacity";
  }
}

// Partial-record twin of OverflowCollectMatchesScalar: the spill path's
// merge must report exactly the records the per-record loop overflowed.
TEST(BatchKernels, PartialMergeOverflowCollectMatchesScalar) {
  Schema schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}});
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeCountSumSpec(&schema, 0, 1));
  const int n = kBatchWidth;
  const int pw = spec.partial_width();
  std::vector<uint8_t> raw = MakeTuples(schema, n, 21, 300);
  std::vector<uint8_t> partials = MakePartials(spec, schema, raw, n);
  const int64_t m = 30;

  AggHashTable scalar(&spec, m);
  std::vector<int> scalar_overflow;
  for (int i = 0; i < n; ++i) {
    const uint8_t* rec = partials.data() + static_cast<size_t>(i) * pw;
    if (scalar.UpsertPartial(rec, spec.HashKey(rec)) ==
        AggHashTable::UpsertResult::kFull) {
      scalar_overflow.push_back(i);
    }
  }
  ASSERT_FALSE(scalar_overflow.empty());

  AggHashTable batched(&spec, m);
  TupleBatch batch(&spec);
  batch.BindView(partials.data(), pw, n);
  batch.ComputeHashes();
  std::vector<int> batch_overflow;
  batched.UpsertPartialBatchOverflow(batch, 0, batch_overflow);
  batch.Clear();
  EXPECT_EQ(batch_overflow, scalar_overflow);
  ExpectTablesEqual(spec, scalar, batched);
}

// PR bugfix regression: MemoryBytes must report the actually allocated
// arena, growing as the table grows past the constructor's initial
// reservation instead of staying pinned to it.
TEST(BatchKernels, MemoryBytesTracksArenaGrowth) {
  Schema schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}});
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                       MakeCountSumSpec(&schema, 0, 1));
  const int64_t m = 200'000;  // beyond the 65536-slot initial arena
  AggHashTable table(&spec, m);
  const int64_t initial = table.MemoryBytes();
  const int slot = spec.key_width() + spec.state_width();
  EXPECT_GE(initial, 65536 * slot);

  std::vector<uint8_t> proj(static_cast<size_t>(spec.projected_width()));
  int64_t v = 1;
  std::memcpy(proj.data() + 8, &v, 8);
  for (int64_t g = 0; g < 100'000; ++g) {
    std::memcpy(proj.data(), &g, 8);
    ASSERT_NE(table.UpsertProjected(proj.data(), spec.HashKey(proj.data())),
              AggHashTable::UpsertResult::kFull);
  }
  // 100K live slots can only fit in >= 100K allocated slots; the old
  // accounting would still have reported the 65536-slot reservation.
  EXPECT_GE(table.MemoryBytes(), 100'000 * slot);
  EXPECT_GT(table.MemoryBytes(), initial);
}

// End-to-end randomized differential: every algorithm over a randomized
// workload must match the single-threaded reference oracle now that all
// six scan loops run batched.
TEST(BatchKernels, AllAlgorithmsMatchReferenceOnRandomizedWorkloads) {
  const AlgorithmKind kinds[] = {
      AlgorithmKind::kCentralizedTwoPhase, AlgorithmKind::kTwoPhase,
      AlgorithmKind::kRepartitioning,      AlgorithmKind::kSampling,
      AlgorithmKind::kAdaptiveTwoPhase,
      AlgorithmKind::kAdaptiveRepartitioning,
      AlgorithmKind::kGraefeTwoPhase,      AlgorithmKind::kSortTwoPhase,
  };
  struct Workload {
    int nodes;
    int64_t tuples;
    int64_t groups;
    int64_t m;  // small tables force overflow / adaptive switches
  };
  const Workload workloads[] = {
      {3, 6'000, 8, 64},       // few groups: 2P side wins
      {3, 6'000, 3'000, 128},  // many groups: overflow + switches
      {1, 3'000, 500, 64},     // single node, heavy spill
  };
  for (const Workload& w : workloads) {
    WorkloadSpec wspec;
    wspec.num_nodes = w.nodes;
    wspec.num_tuples = w.tuples;
    wspec.num_groups = w.groups;
    wspec.seed = 77 + static_cast<uint64_t>(w.groups);
    ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
    ASSERT_OK_AND_ASSIGN(AggregationSpec spec,
                         MakeBenchQuery(&rel.schema()));
    for (AlgorithmKind kind : kinds) {
      SCOPED_TRACE(AlgorithmKindToString(kind) + " groups=" +
                   std::to_string(w.groups));
      testing_util::ExpectMatchesReference(
          kind, SmallClusterParams(w.nodes, w.tuples, w.m), spec, rel);
    }
  }
}

}  // namespace
}  // namespace adaptagg
