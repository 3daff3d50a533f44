#include "agg/batch_kernels.h"

#include <algorithm>
#include <cstring>

namespace adaptagg {

TupleBatch::TupleBatch(const AggregationSpec* spec)
    : spec_(spec),
      stride_(static_cast<size_t>(spec->projected_width())),
      // Never zero-sized: a global-aggregate spec (no group columns) has
      // a zero-width projected record, and record(i) must stay a valid
      // pointer for memcmp/memcpy of zero bytes.
      arena_(std::max<size_t>(1, static_cast<size_t>(kBatchWidth) * stride_)),
      hashes_(kBatchWidth) {
  data_ = arena_.data();
}

int TupleBatch::GatherRun(const uint8_t* recs, int rec_size, int n) {
  n = std::min(n, kBatchWidth - size_);
  if (n <= 0) return 0;
  uint8_t* dst0 = arena_.data() + static_cast<size_t>(size_) * stride_;
  const std::vector<ProjCopyRun>& plan = spec_->projection_plan();
  if (plan.size() == 1 && plan[0].src_offset == 0 &&
      plan[0].dst_offset == 0 &&
      plan[0].width == static_cast<int>(stride_) &&
      rec_size == static_cast<int>(stride_)) {
    // Identity projection over densely packed records: one bulk copy.
    std::memcpy(dst0, recs, static_cast<size_t>(n) * stride_);
    stats_.identity_copy_tuples += n;
  } else if (plan.size() == 1 && plan[0].width == 16) {
    // One 16-byte run per record (the bench query's key and value sit
    // side by side): a compile-time width lowers the copy to plain
    // loads/stores instead of a libc memcpy call per record.
    const uint8_t* src = recs + plan[0].src_offset;
    uint8_t* dst = dst0 + plan[0].dst_offset;
    for (int i = 0; i < n; ++i) {
      std::memcpy(dst + static_cast<size_t>(i) * stride_,
                  src + static_cast<size_t>(i) * rec_size, 16);
    }
  } else {
    for (int i = 0; i < n; ++i) {
      const uint8_t* src = recs + static_cast<size_t>(i) * rec_size;
      uint8_t* dst = dst0 + static_cast<size_t>(i) * stride_;
      for (const ProjCopyRun& run : plan) {
        std::memcpy(dst + run.dst_offset, src + run.src_offset,
                    static_cast<size_t>(run.width));
      }
    }
  }
  size_ += n;
  stats_.gathered_tuples += n;
  return n;
}

}  // namespace adaptagg
