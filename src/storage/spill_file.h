#ifndef ADAPTAGG_STORAGE_SPILL_FILE_H_
#define ADAPTAGG_STORAGE_SPILL_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/disk.h"

namespace adaptagg {

/// Tag of a spilled record. Aggregation overflow buckets can contain a mix
/// of raw (projected input) tuples and partial-aggregate tuples — e.g. in
/// the Adaptive Two Phase global phase — so every spilled record carries a
/// one-byte tag.
enum class SpillTag : uint8_t { kRaw = 0, kPartial = 1 };

/// Writes tagged fixed-width records to a spill file on a Disk, packed
/// into pages:
///   page := [uint32 frame_count] ([uint8 tag][record bytes])*
/// Records never span pages. The raw and partial record widths are fixed
/// per writer.
///
/// Integrity: whenever at least four bytes of trailing padding remain,
/// Flush signs the page — bit 31 of frame_count is set and a CRC-32C over
/// everything before the last word is stored in the final four bytes.
/// SpillReader verifies the signature and reports a mismatch as a
/// descriptive kDataLoss instead of decoding garbage. Exactly-full pages
/// have no padding and stay unsigned; signing never changes page counts,
/// so modeled I/O is unaffected.
class SpillWriter {
 public:
  /// Creates the backing file. Widths are in bytes; a width of 0 means the
  /// corresponding tag is never written.
  static Result<SpillWriter> Create(Disk* disk, const std::string& name,
                                    int raw_width, int partial_width);

  /// Appends one record of the given tag.
  Status Append(SpillTag tag, const uint8_t* record);

  /// Flushes the trailing partial page.
  Status Flush();

  int64_t num_records() const { return num_records_; }
  int64_t num_pages() const { return num_pages_; }
  FileId file_id() const { return file_; }
  Disk* disk() const { return disk_; }
  int raw_width() const { return raw_width_; }
  int partial_width() const { return partial_width_; }

  /// Deletes the backing file (after the bucket has been consumed).
  Status Drop();

 private:
  SpillWriter(Disk* disk, FileId file, int raw_width, int partial_width);

  int WidthOf(SpillTag tag) const {
    return tag == SpillTag::kRaw ? raw_width_ : partial_width_;
  }

  Disk* disk_;
  FileId file_;
  int raw_width_;
  int partial_width_;
  std::vector<uint8_t> page_;
  int offset_ = 0;
  uint32_t frames_in_page_ = 0;
  int64_t num_records_ = 0;
  int64_t num_pages_ = 0;
};

/// A run of consecutive same-tag frames within one spill page: `count`
/// records of the tag's width, `stride` (= 1 + width) bytes apart, the
/// first at `records` (just past its tag byte). The tag bytes between
/// records are skipped by the stride, so a run can be bound as a strided
/// record view without copying.
struct SpillRun {
  SpillTag tag = SpillTag::kRaw;
  const uint8_t* records = nullptr;
  int stride = 0;
  int count = 0;
};

/// Sequentially reads back a flushed spill file, one run at a time.
class SpillReader {
 public:
  explicit SpillReader(const SpillWriter* writer);
  // Move-only: page_ may point into scratch_, whose buffer a move keeps
  // but a copy would leave behind.
  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;
  SpillReader(SpillReader&&) = default;
  SpillReader& operator=(SpillReader&&) = default;

  /// Returns the next run of at most `max_frames` (>= 1) same-tag frames,
  /// all from one page and in file order, or false at end of file or on
  /// an error — distinguish by checking status(). The run's records are
  /// valid until the following NextRun() call.
  bool NextRun(int max_frames, SpillRun* run);

  /// OK unless a page read failed or a page failed verification.
  const Status& status() const { return status_; }

  int64_t pages_read() const { return pages_read_; }

 private:
  bool LoadPage(int64_t index);

  const SpillWriter* writer_;
  /// Read buffer for disks that do not keep pages in memory.
  std::vector<uint8_t> scratch_;
  /// The current page, as Disk::ReadPage returned it.
  const uint8_t* page_ = nullptr;
  Status status_;
  int64_t next_page_ = 0;
  uint32_t frames_in_page_ = 0;
  uint32_t frame_in_page_ = 0;
  int offset_ = 0;
  int64_t pages_read_ = 0;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_STORAGE_SPILL_FILE_H_
