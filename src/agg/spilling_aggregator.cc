#include "agg/spilling_aggregator.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"

namespace adaptagg {
namespace {

/// Deepest allowed recursive repartitioning; hitting it means the key hash
/// failed to split a bucket 24 times in a row, which indicates a bug (or
/// an adversarial hash collision set), not a legitimate workload.
constexpr int kMaxDepth = 24;

}  // namespace

void SpillStats::Accumulate(const SpillStats& other) {
  overflow_records += other.overflow_records;
  spill_pages_written += other.spill_pages_written;
  spill_pages_read += other.spill_pages_read;
  buckets_created += other.buckets_created;
  max_depth = std::max(max_depth, other.max_depth);
}

SpillingAggregator::SpillingAggregator(const AggregationSpec* spec,
                                       Disk* disk, int64_t max_entries,
                                       int fanout, std::string name)
    : SpillingAggregator(spec, disk, max_entries, fanout, std::move(name),
                         /*depth=*/0) {}

SpillingAggregator::SpillingAggregator(const AggregationSpec* spec,
                                       Disk* disk, int64_t max_entries,
                                       int fanout, std::string name,
                                       int depth)
    : spec_(spec),
      disk_(disk),
      max_entries_(max_entries),
      fanout_(fanout),
      name_(std::move(name)),
      depth_(depth),
      table_(spec, max_entries) {
  ADAPTAGG_CHECK(fanout_ >= 2) << "spill fanout must be >= 2";
  ADAPTAGG_CHECK(depth_ <= kMaxDepth)
      << "aggregation overflow recursion too deep";
}

SpillingAggregator::~SpillingAggregator() {
  // Best effort on an abandoned aggregation: a bucket Finish already
  // dropped reports NotFound, and no answer depends on the status.
  for (auto& bucket : buckets_) (void)bucket->Drop();
}

int SpillingAggregator::BucketOf(uint64_t hash) const {
  // Re-mix with a per-depth seed so each recursion level splits on
  // independent bits, even though the same base hash is reused.
  uint64_t mixed = SplitMix64(hash ^ (0xa5a5a5a5ULL * (depth_ + 1)));
  return static_cast<int>(mixed % static_cast<uint64_t>(fanout_));
}

Status SpillingAggregator::EnsureBuckets() {
  if (!buckets_.empty()) return Status::OK();
  buckets_.reserve(static_cast<size_t>(fanout_));
  for (int b = 0; b < fanout_; ++b) {
    ADAPTAGG_ASSIGN_OR_RETURN(
        SpillWriter w,
        SpillWriter::Create(disk_,
                            name_ + ".d" + std::to_string(depth_) + ".b" +
                                std::to_string(b),
                            spec_->projected_width(), spec_->partial_width()));
    buckets_.push_back(std::make_unique<SpillWriter>(std::move(w)));
  }
  stats_.buckets_created += fanout_;
  return Status::OK();
}

Status SpillingAggregator::AddProjectedBatch(const TupleBatch& batch) {
  overflow_scratch_.clear();
  table_.UpsertProjectedBatchOverflow(batch, 0, overflow_scratch_);
  return SpillBatchOverflow(SpillTag::kRaw, batch);
}

Status SpillingAggregator::AddPartialBatch(const TupleBatch& batch) {
  overflow_scratch_.clear();
  table_.UpsertPartialBatchOverflow(batch, 0, overflow_scratch_);
  return SpillBatchOverflow(SpillTag::kPartial, batch);
}

Status SpillingAggregator::SpillBatchOverflow(SpillTag tag,
                                              const TupleBatch& batch) {
  for (int idx : overflow_scratch_) {
    ADAPTAGG_RETURN_IF_ERROR(EnsureBuckets());
    ++stats_.overflow_records;
    ADAPTAGG_RETURN_IF_ERROR(
        buckets_[static_cast<size_t>(BucketOf(batch.hash(idx)))]->Append(
            tag, batch.record(idx)));
  }
  return Status::OK();
}

bool SpillingAggregator::Snapshot(std::vector<uint8_t>* out) const {
  out->clear();
  if (finished_ || has_spilled()) return false;
  const size_t key_width = static_cast<size_t>(spec_->key_width());
  const size_t state_width = static_cast<size_t>(spec_->state_width());
  out->reserve(static_cast<size_t>(table_.size()) *
               (key_width + state_width));
  table_.ForEach([&](const uint8_t* key, const uint8_t* state) {
    out->insert(out->end(), key, key + key_width);
    out->insert(out->end(), state, state + state_width);
  });
  return true;
}

Status SpillingAggregator::RestoreFrom(const uint8_t* data, size_t size) {
  if (finished_ || has_spilled() || table_.size() != 0) {
    return Status::FailedPrecondition(
        "checkpoint restore requires a fresh aggregator");
  }
  const size_t width = static_cast<size_t>(spec_->partial_width());
  if (width == 0 || size % width != 0) {
    return Status::DataLoss("checkpointed partials are not a whole number "
                            "of records: " + std::to_string(size) +
                            " bytes / width " + std::to_string(width));
  }
  TupleBatch batch(spec_);
  const size_t records = size / width;
  for (size_t i = 0; i < records; i += kBatchWidth) {
    batch.BindView(data + i * width, static_cast<int>(width),
                   static_cast<int>(std::min<size_t>(kBatchWidth,
                                                     records - i)));
    batch.ComputeHashes();
    ADAPTAGG_RETURN_IF_ERROR(AddPartialBatch(batch));
  }
  return Status::OK();
}

Status SpillingAggregator::Finish(const EmitFn& emit) {
  ADAPTAGG_CHECK(!finished_) << "Finish() called twice";
  finished_ = true;

  table_.ForEach(
      [&](const uint8_t* key, const uint8_t* state) { emit(key, state); });
  table_.Clear();

  TupleBatch batch(spec_);

  for (auto& bucket : buckets_) {
    ADAPTAGG_RETURN_IF_ERROR(bucket->Flush());
    stats_.spill_pages_written += bucket->num_pages();
    if (bucket->num_records() == 0) {
      ADAPTAGG_RETURN_IF_ERROR(bucket->Drop());
      continue;
    }
    SpillingAggregator child(spec_, disk_, max_entries_, fanout_, name_,
                             depth_ + 1);
    // Replay the bucket in same-tag runs of one page, bound in place as
    // strided batches. The child sees the records in file order, so its
    // overflow decisions (and thus pages and SpillStats) do not depend
    // on where the runs are cut.
    SpillReader reader(bucket.get());
    SpillRun run;
    while (reader.NextRun(kBatchWidth, &run)) {
      batch.BindView(run.records, run.stride, run.count);
      batch.ComputeHashes();
      ADAPTAGG_RETURN_IF_ERROR(run.tag == SpillTag::kRaw
                                   ? child.AddProjectedBatch(batch)
                                   : child.AddPartialBatch(batch));
    }
    ADAPTAGG_RETURN_IF_ERROR(reader.status());
    stats_.spill_pages_read += reader.pages_read();
    ADAPTAGG_RETURN_IF_ERROR(bucket->Drop());
    ADAPTAGG_RETURN_IF_ERROR(child.Finish(emit));
    stats_.Accumulate(child.stats());
    child_ht_stats_.Accumulate(child.ht_stats());
    stats_.max_depth = std::max(stats_.max_depth, depth_ + 1);
  }
  buckets_.clear();
  return Status::OK();
}

}  // namespace adaptagg
