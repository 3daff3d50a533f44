#include "agg/agg_spec.h"

#include <algorithm>
#include <cstring>

#include "common/random.h"
#include "common/simd.h"

namespace adaptagg {
namespace {

/// Seed for group-key hashing; all key hashes in the system (table
/// probing, node routing, spill bucketing) derive from this one value.
constexpr uint64_t kKeyHashSeed = 0x5ca1ab1e;

// FNV-1a constants (must match HashBytes in common/random.cc; the batch
// fast path below re-implements its word loop without the tail).
constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// Appends a copy to the plan, merging with the previous run when both
/// source and destination are contiguous.
void AddCopyRun(std::vector<ProjCopyRun>& plan, int src, int dst,
                int width) {
  if (!plan.empty()) {
    ProjCopyRun& last = plan.back();
    if (last.src_offset + last.width == src &&
        last.dst_offset + last.width == dst) {
      last.width += width;
      return;
    }
  }
  plan.push_back({src, dst, width});
}

FusedKernelKind DetectFusedKernel(const AggregationSpec& spec) {
  if (spec.ops().empty()) return FusedKernelKind::kDistinct;
  if (spec.aggs().size() == 2 &&
      spec.aggs()[0].kind == AggKind::kCount &&
      spec.aggs()[1].kind == AggKind::kSum &&
      spec.ops()[1].input_type() == DataType::kInt64) {
    // State layout is [count:int64][sum:int64] and the single value slot
    // sits right after the key — the canonical bench query's shape.
    return FusedKernelKind::kCountSumInt64;
  }
  return FusedKernelKind::kGeneric;
}

FusedMergeKind DetectFusedMerge(const AggregationSpec& spec) {
  if (spec.ops().empty()) return FusedMergeKind::kDistinct;
  bool all_add = true;
  bool all_minmax = true;
  for (const AggregateOp& op : spec.ops()) {
    // COUNT, SUM(int64), and AVG(int64) states are int64 words whose
    // MergePartial is word-wise addition (AVG adds sum and count).
    const bool add = op.kind() == AggKind::kCount ||
                     ((op.kind() == AggKind::kSum ||
                       op.kind() == AggKind::kAvg) &&
                      op.input_type() == DataType::kInt64);
    const bool minmax =
        (op.kind() == AggKind::kMin || op.kind() == AggKind::kMax) &&
        op.input_type() == DataType::kInt64;
    all_add = all_add && add;
    all_minmax = all_minmax && minmax;
  }
  if (all_add) return FusedMergeKind::kAddInt64;
  if (all_minmax) return FusedMergeKind::kMinMaxInt64;
  return FusedMergeKind::kGeneric;
}

}  // namespace

Result<AggregationSpec> AggregationSpec::Make(
    const Schema* input_schema, std::vector<int> group_cols,
    std::vector<AggDescriptor> aggs) {
  if (group_cols.empty() && aggs.empty()) {
    return Status::InvalidArgument(
        "aggregation needs group columns or aggregates");
  }
  for (int c : group_cols) {
    if (c < 0 || c >= input_schema->num_fields()) {
      return Status::InvalidArgument("group column out of range");
    }
  }
  for (const auto& a : aggs) {
    if (a.kind == AggKind::kCount) continue;
    if (a.input_col < 0 || a.input_col >= input_schema->num_fields()) {
      return Status::InvalidArgument("aggregate input column out of range");
    }
    DataType t = input_schema->field(a.input_col).type;
    if (t != DataType::kInt64 && t != DataType::kDouble) {
      return Status::InvalidArgument("aggregate input must be numeric: " +
                                     a.name);
    }
  }

  AggregationSpec spec;
  spec.input_ = input_schema;
  spec.group_cols_ = std::move(group_cols);
  spec.aggs_ = std::move(aggs);

  // Key layout.
  for (int c : spec.group_cols_) {
    const Field& f = input_schema->field(c);
    spec.key_parts_.emplace_back(input_schema->offset(c), f.width);
    spec.key_width_ += f.width;
  }

  // Distinct aggregate input columns, assigned 8-byte slots after the key.
  for (const auto& a : spec.aggs_) {
    DataType in_type =
        a.kind == AggKind::kCount
            ? DataType::kInt64
            : input_schema->field(a.input_col).type;
    spec.ops_.emplace_back(a.kind, in_type);
    if (a.kind == AggKind::kCount) {
      spec.op_value_offsets_.push_back(-1);
      continue;
    }
    auto it = std::find(spec.value_cols_.begin(), spec.value_cols_.end(),
                        a.input_col);
    int slot;
    if (it == spec.value_cols_.end()) {
      slot = static_cast<int>(spec.value_cols_.size());
      spec.value_cols_.push_back(a.input_col);
      spec.value_src_offsets_.push_back(input_schema->offset(a.input_col));
    } else {
      slot = static_cast<int>(it - spec.value_cols_.begin());
    }
    spec.op_value_offsets_.push_back(spec.key_width_ + slot * 8);
  }
  spec.projected_width_ =
      spec.key_width_ + static_cast<int>(spec.value_cols_.size()) * 8;

  // State layout.
  for (const auto& op : spec.ops_) {
    spec.op_state_offsets_.push_back(spec.state_width_);
    spec.state_width_ += op.state_width();
  }

  // Final schema: group columns (by input name) then aggregate outputs.
  std::vector<Field> out_fields;
  for (int c : spec.group_cols_) {
    out_fields.push_back(input_schema->field(c));
  }
  for (size_t i = 0; i < spec.aggs_.size(); ++i) {
    Field f;
    f.name = spec.aggs_[i].name;
    f.type = spec.ops_[i].output_type();
    f.width = 8;
    out_fields.push_back(f);
  }
  spec.final_schema_ = Schema(std::move(out_fields));

  // Compile the projection into coalesced copies and pick the update
  // kernel the batch paths will dispatch to.
  int dst = 0;
  for (const auto& [off, width] : spec.key_parts_) {
    AddCopyRun(spec.projection_plan_, off, dst, width);
    dst += width;
  }
  for (size_t i = 0; i < spec.value_cols_.size(); ++i) {
    AddCopyRun(spec.projection_plan_, spec.value_src_offsets_[i], dst, 8);
    dst += 8;
  }
  spec.fused_kernel_ = DetectFusedKernel(spec);
  spec.fused_merge_kernel_ = DetectFusedMerge(spec);
  if (spec.fused_merge_kernel_ == FusedMergeKind::kMinMaxInt64) {
    for (const AggregateOp& op : spec.ops_) {
      spec.merge_is_min_.push_back(op.kind() == AggKind::kMin ? 1 : 0);
    }
  }
  return spec;
}

void AggregationSpec::ProjectRaw(const TupleView& tuple, uint8_t* out) const {
  const uint8_t* src = tuple.data();
  for (const ProjCopyRun& run : projection_plan_) {
    std::memcpy(out + run.dst_offset, src + run.src_offset,
                static_cast<size_t>(run.width));
  }
}

void AggregationSpec::InitState(uint8_t* state) const {
  for (size_t i = 0; i < ops_.size(); ++i) {
    ops_[i].InitState(state + op_state_offsets_[i]);
  }
}

void AggregationSpec::UpdateFromProjected(uint8_t* state,
                                          const uint8_t* proj) const {
  for (size_t i = 0; i < ops_.size(); ++i) {
    const uint8_t* value =
        op_value_offsets_[i] < 0 ? nullptr : proj + op_value_offsets_[i];
    ops_[i].UpdateRaw(state + op_state_offsets_[i], value);
  }
}

void AggregationSpec::MergeState(uint8_t* state,
                                 const uint8_t* other_state) const {
  for (size_t i = 0; i < ops_.size(); ++i) {
    ops_[i].MergePartial(state + op_state_offsets_[i],
                         other_state + op_state_offsets_[i]);
  }
}

void AggregationSpec::FinalizeRecord(const uint8_t* key, const uint8_t* state,
                                     uint8_t* out) const {
  std::memcpy(out, key, static_cast<size_t>(key_width_));
  uint8_t* dst = out + key_width_;
  for (size_t i = 0; i < ops_.size(); ++i) {
    ops_[i].FinalizeTo(state + op_state_offsets_[i], dst);
    dst += 8;
  }
}

uint64_t AggregationSpec::HashKey(const uint8_t* key) const {
  return HashBytes(key, static_cast<size_t>(key_width_), kKeyHashSeed);
}

void AggregationSpec::HashKeys(const uint8_t* recs, int stride, int n,
                               uint64_t* out) const {
  if (key_width_ % 8 == 0) {
    // Word-at-a-time fast path: same FNV-1a word loop as HashBytes but
    // with no byte tail (common/simd.h).
    simd::HashKeysFnvWords(recs, stride, key_width_ / 8, n,
                           kFnvBasis ^ kKeyHashSeed, kFnvPrime, out);
    return;
  }
  for (int i = 0; i < n; ++i) {
    out[i] = HashBytes(recs + static_cast<int64_t>(i) * stride,
                       static_cast<size_t>(key_width_), kKeyHashSeed);
  }
}

Result<AggregationSpec> MakeCountSumSpec(const Schema* input_schema,
                                         int group_col, int value_col) {
  std::vector<AggDescriptor> aggs;
  aggs.push_back({AggKind::kCount, -1, "cnt"});
  aggs.push_back({AggKind::kSum, value_col, "sum_v"});
  return AggregationSpec::Make(input_schema, {group_col}, std::move(aggs));
}

Result<AggregationSpec> MakeDistinctSpec(const Schema* input_schema,
                                         std::vector<int> cols) {
  return AggregationSpec::Make(input_schema, std::move(cols), {});
}

}  // namespace adaptagg
