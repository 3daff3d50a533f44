// Differential suite for the SIMD batch kernels: the dispatched path
// (AVX2 on CI's x86 hosts) and the forced-scalar fallback must produce
// byte-identical aggregation results over the full AggKind x value-type
// x key-width matrix, including NaN doubles, int64 sentinel extremes,
// and batch sizes that straddle the 8-lane groups.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "agg/batch_kernels.h"
#include "agg/spilling_aggregator.h"
#include "common/simd.h"
#include "storage/disk.h"

namespace adaptagg {
namespace {

class ScopedForceScalar {
 public:
  ScopedForceScalar() {
    const char* prev = std::getenv("ADAPTAGG_FORCE_SCALAR");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("ADAPTAGG_FORCE_SCALAR", "1", 1);
    simd::ResetDispatchForTest();
  }
  ~ScopedForceScalar() {
    if (had_prev_) {
      setenv("ADAPTAGG_FORCE_SCALAR", prev_.c_str(), 1);
    } else {
      unsetenv("ADAPTAGG_FORCE_SCALAR");
    }
    simd::ResetDispatchForTest();
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

/// One matrix cell: a spec over the 5-column test schema plus the data
/// shape that exercises it.
struct Cell {
  std::string name;
  std::vector<int> group_cols;
  std::vector<AggDescriptor> aggs;
  bool distinct = false;
};

Schema TestSchema() {
  return Schema({{"g1", DataType::kInt64, 8},
                 {"g2", DataType::kInt64, 8},
                 {"g3", DataType::kInt64, 8},
                 {"vi", DataType::kInt64, 8},
                 {"vd", DataType::kDouble, 8}});
}

std::vector<Cell> Matrix() {
  std::vector<Cell> cells;
  for (int keys = 1; keys <= 3; ++keys) {
    std::vector<int> group_cols;
    for (int c = 0; c < keys; ++c) group_cols.push_back(c);
    const std::string kw = "k" + std::to_string(keys * 8);
    cells.push_back({"count_sum_i64_" + kw, group_cols,
                     {{AggKind::kCount, -1, "c"},
                      {AggKind::kSum, 3, "s"}}});
    cells.push_back({"sum_double_" + kw, group_cols,
                     {{AggKind::kSum, 4, "sd"}}});
    cells.push_back({"avg_both_" + kw, group_cols,
                     {{AggKind::kAvg, 3, "ai"},
                      {AggKind::kAvg, 4, "ad"}}});
    cells.push_back({"minmax_i64_" + kw, group_cols,
                     {{AggKind::kMin, 3, "mn"},
                      {AggKind::kMax, 3, "mx"}}});
    cells.push_back({"minmax_double_" + kw, group_cols,
                     {{AggKind::kMin, 4, "mn"},
                      {AggKind::kMax, 4, "mx"}}});
    cells.push_back({"mixed_" + kw, group_cols,
                     {{AggKind::kCount, -1, "c"},
                      {AggKind::kSum, 3, "s"},
                      {AggKind::kMin, 3, "mn"}}});
    Cell distinct{"distinct_" + kw, group_cols, {}};
    distinct.distinct = true;
    cells.push_back(distinct);
  }
  return cells;
}

/// Deterministic input rows with adversarial values: sentinel int64
/// extremes, NaN / infinities / signed zero doubles, and group ids that
/// collide across the 3 key columns.
std::vector<uint8_t> MakeRows(const Schema& schema, int n, int groups) {
  const int w = schema.tuple_size();
  std::vector<uint8_t> rows(static_cast<size_t>(n) * w);
  constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
  const double specials[] = {std::nan(""),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             -0.0, 1.5e300, -2.25};
  for (int i = 0; i < n; ++i) {
    uint8_t* row = rows.data() + static_cast<size_t>(i) * w;
    const int64_t g1 = i % groups;
    const int64_t g2 = (i % 7 == 0) ? kI64Min : (i / groups) % 3;
    const int64_t g3 = (i % 11 == 0) ? kI64Max : g1 / 2;
    int64_t vi = static_cast<int64_t>(i) * 37 - 500;
    if (i % 13 == 0) vi = kI64Min;
    if (i % 17 == 0) vi = kI64Max;
    const double vd =
        (i % 5 == 0) ? specials[static_cast<size_t>(i / 5) % 6]
                     : static_cast<double>(i) * 0.125 - 3.0;
    std::memcpy(row, &g1, 8);
    std::memcpy(row + 8, &g2, 8);
    std::memcpy(row + 16, &g3, 8);
    std::memcpy(row + 24, &vi, 8);
    std::memcpy(row + 32, &vd, 8);
  }
  return rows;
}

/// Projects every row, feeds them through AddProjectedBatch in a batch
/// schedule that covers sizes 1, kBatchWidth - 1, and kBatchWidth, and
/// returns the emitted (key, state) byte stream in emit order.
std::vector<uint8_t> RunProjected(const AggregationSpec& spec,
                                  const std::vector<uint8_t>& rows, int n,
                                  int64_t max_entries) {
  const Schema& schema = spec.input_schema();
  const int pw = spec.projected_width();
  std::vector<uint8_t> projected(static_cast<size_t>(n) * pw);
  for (int i = 0; i < n; ++i) {
    TupleView t(rows.data() + static_cast<size_t>(i) * schema.tuple_size(),
                &schema);
    spec.ProjectRaw(t, projected.data() + static_cast<size_t>(i) * pw);
  }

  SimDisk disk(1024);
  SpillingAggregator agg(&spec, &disk, max_entries, /*fanout=*/4, "diff");
  TupleBatch batch(&spec);
  const int sizes[] = {1, kBatchWidth - 1, kBatchWidth};
  int off = 0;
  int step = 0;
  while (off < n) {
    const int run = std::min(sizes[step++ % 3], n - off);
    batch.BindView(projected.data() + static_cast<size_t>(off) * pw, pw,
                   run);
    batch.ComputeHashes();
    Status st = agg.AddProjectedBatch(batch);
    EXPECT_TRUE(st.ok()) << st.ToString();
    off += run;
  }
  batch.Clear();

  std::vector<uint8_t> out;
  Status st = agg.Finish([&](const uint8_t* key, const uint8_t* state) {
    out.insert(out.end(), key, key + spec.key_width());
    out.insert(out.end(), state, state + spec.state_width());
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

/// Same, but shipping *partial* records through AddPartialBatch: each
/// input row becomes a single-tuple partial, so the merge kernels (the
/// fused add / min-max merges) do all the work.
std::vector<uint8_t> RunPartials(const AggregationSpec& spec,
                                 const std::vector<uint8_t>& rows, int n,
                                 int64_t max_entries) {
  const Schema& schema = spec.input_schema();
  const int pw = spec.projected_width();
  const int kw = spec.key_width();
  const int ww = spec.partial_width();
  std::vector<uint8_t> proj(static_cast<size_t>(pw));
  std::vector<uint8_t> partials(static_cast<size_t>(n) * ww);
  for (int i = 0; i < n; ++i) {
    TupleView t(rows.data() + static_cast<size_t>(i) * schema.tuple_size(),
                &schema);
    spec.ProjectRaw(t, proj.data());
    uint8_t* p = partials.data() + static_cast<size_t>(i) * ww;
    std::memcpy(p, proj.data(), static_cast<size_t>(kw));
    spec.InitState(p + kw);
    spec.UpdateFromProjected(p + kw, proj.data());
  }

  SimDisk disk(1024);
  SpillingAggregator agg(&spec, &disk, max_entries, /*fanout=*/4, "diffp");
  TupleBatch batch(&spec);
  const int sizes[] = {kBatchWidth, 1, kBatchWidth - 1};
  int off = 0;
  int step = 0;
  while (off < n) {
    const int run = std::min(sizes[step++ % 3], n - off);
    batch.BindView(partials.data() + static_cast<size_t>(off) * ww, ww,
                   run);
    batch.ComputeHashes();
    Status st = agg.AddPartialBatch(batch);
    EXPECT_TRUE(st.ok()) << st.ToString();
    off += run;
  }
  batch.Clear();

  std::vector<uint8_t> out;
  Status st = agg.Finish([&](const uint8_t* key, const uint8_t* state) {
    out.insert(out.end(), key, key + spec.key_width());
    out.insert(out.end(), state, state + spec.state_width());
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

AggregationSpec MakeCellSpec(const Schema* schema, const Cell& cell) {
  Result<AggregationSpec> spec =
      cell.distinct ? MakeDistinctSpec(schema, cell.group_cols)
                    : AggregationSpec::Make(schema, cell.group_cols,
                                            cell.aggs);
  EXPECT_TRUE(spec.ok()) << cell.name;
  return std::move(spec).value();
}

class SimdDifferentialTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 1500;
  static constexpr int kGroups = 211;
  SimdDifferentialTest()
      : schema_(TestSchema()), rows_(MakeRows(schema_, kRows, kGroups)) {}

  Schema schema_;
  std::vector<uint8_t> rows_;
};

TEST_F(SimdDifferentialTest, DispatchedMatchesForcedScalarInMemory) {
  for (const Cell& cell : Matrix()) {
    const AggregationSpec spec = MakeCellSpec(&schema_, cell);
    const std::vector<uint8_t> vec =
        RunProjected(spec, rows_, kRows, /*max_entries=*/100'000);
    ScopedForceScalar force;
    const std::vector<uint8_t> sca =
        RunProjected(spec, rows_, kRows, /*max_entries=*/100'000);
    EXPECT_EQ(vec, sca) << cell.name;
  }
}

TEST_F(SimdDifferentialTest, DispatchedMatchesForcedScalarWithSpill) {
  // A tiny table bound forces overflow spilling and recursive repasses,
  // so the overflow paths are exercised too.
  for (const Cell& cell : Matrix()) {
    const AggregationSpec spec = MakeCellSpec(&schema_, cell);
    const std::vector<uint8_t> vec =
        RunProjected(spec, rows_, kRows, /*max_entries=*/64);
    ScopedForceScalar force;
    const std::vector<uint8_t> sca =
        RunProjected(spec, rows_, kRows, /*max_entries=*/64);
    EXPECT_EQ(vec, sca) << cell.name;
  }
}

TEST_F(SimdDifferentialTest, PartialMergePathMatchesForcedScalar) {
  for (const Cell& cell : Matrix()) {
    const AggregationSpec spec = MakeCellSpec(&schema_, cell);
    const std::vector<uint8_t> vec =
        RunPartials(spec, rows_, kRows, /*max_entries=*/100'000);
    ScopedForceScalar force;
    const std::vector<uint8_t> sca =
        RunPartials(spec, rows_, kRows, /*max_entries=*/100'000);
    EXPECT_EQ(vec, sca) << cell.name;
  }
}

}  // namespace
}  // namespace adaptagg
