#ifndef ADAPTAGG_STORAGE_FAULTY_DISK_H_
#define ADAPTAGG_STORAGE_FAULTY_DISK_H_

#include <algorithm>
#include <cstddef>

#include "storage/disk.h"

namespace adaptagg {

/// A SimDisk with programmable failures, for exercising the engine's
/// error paths: after the configured number of successful operations of
/// a kind, every further operation of that kind fails with IOError. Used
/// by the fault-injection tests; algorithms must surface these errors as
/// Status (never hang or crash).
class FaultySimDisk : public SimDisk {
 public:
  explicit FaultySimDisk(int page_size) : SimDisk(page_size) {}

  /// Fail all reads after `n` more successful reads (-1 disables).
  void FailReadsAfter(int64_t n) { reads_left_ = n; }
  /// Fail all appends after `n` more successful appends (-1 disables).
  void FailWritesAfter(int64_t n) { writes_left_ = n; }

 protected:
  Result<const uint8_t*> ReadPageUncounted(
      FileId file, int64_t index, std::vector<uint8_t>& scratch) override {
    if (reads_left_ == 0) {
      return Status::IOError("injected read fault");
    }
    if (reads_left_ > 0) --reads_left_;
    return SimDisk::ReadPageUncounted(file, index, scratch);
  }

  Status AppendPageUncounted(FileId file,
                             const std::vector<uint8_t>& page) override {
    if (writes_left_ == 0) {
      return Status::IOError("injected write fault");
    }
    if (writes_left_ > 0) --writes_left_;
    return SimDisk::AppendPageUncounted(file, page);
  }

 private:
  int64_t reads_left_ = -1;
  int64_t writes_left_ = -1;
};

/// A SimDisk that models a torn write: the Nth appended page is persisted
/// with its tail zeroed out (as if power was lost mid-sector), but the
/// append still reports success — exactly what a real crash-during-write
/// looks like to the writer. Readers only discover the damage later, so
/// this is the fixture for proving that checkpoint/spill CRC verification
/// turns silent corruption into a descriptive kDataLoss instead of a
/// wrong answer.
class TornWriteDisk : public SimDisk {
 public:
  explicit TornWriteDisk(int page_size) : SimDisk(page_size) {}

  /// Tear the `n`th append from now (0 = the very next one; -1 disables).
  void TearWrite(int64_t n) { tear_at_ = n; }

  /// Appends this disk has performed (torn one included).
  int64_t writes_seen() const { return writes_seen_; }

 protected:
  Status AppendPageUncounted(FileId file,
                             const std::vector<uint8_t>& page) override {
    const int64_t at = writes_seen_++;
    if (at == tear_at_) {
      std::vector<uint8_t> torn = page;
      const size_t keep = torn.size() / 2;
      std::fill(torn.begin() + static_cast<ptrdiff_t>(keep), torn.end(),
                uint8_t{0});
      return SimDisk::AppendPageUncounted(file, torn);
    }
    return SimDisk::AppendPageUncounted(file, page);
  }

 private:
  int64_t tear_at_ = -1;
  int64_t writes_seen_ = 0;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_STORAGE_FAULTY_DISK_H_
