#ifndef ADAPTAGG_SORT_EXTERNAL_SORTER_H_
#define ADAPTAGG_SORT_EXTERNAL_SORTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/disk.h"
#include "storage/page.h"

namespace adaptagg {

/// Bounded-memory external merge sort over fixed-width records, ordered
/// by the memcmp order of a key prefix. The substrate for the
/// sort-based aggregation baseline ([BBDW83], discussed in §1 of the
/// paper): records accumulate in memory up to `max_records`; each full
/// buffer is sorted and written to a run file on the Disk; Finish()
/// returns a stream that k-way-merges the runs page by page.
///
/// Usage: Add() records, then Finish() exactly once, then iterate the
/// returned stream.
class SortedStream;

class ExternalSorter {
 public:
  /// `key_offset`/`key_width` locate the memcmp key inside each record.
  ExternalSorter(Disk* disk, int record_width, int key_offset,
                 int key_width, int64_t max_records, std::string name);
  /// Deletes the run files, so a resident service's disks do not grow
  /// by every sort-based query.
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  Status Add(const uint8_t* record);

  /// Sorts/flushes the tail and returns the merged stream. The sorter
  /// must outlive the stream.
  Result<SortedStream> Finish();

  int64_t num_records() const { return num_records_; }
  int64_t num_runs() const {
    return static_cast<int64_t>(run_files_.size());
  }
  int64_t run_pages_written() const { return run_pages_written_; }
  int record_width() const { return record_width_; }

 private:
  friend class SortedStream;

  bool Less(const uint8_t* a, const uint8_t* b) const;
  Status FlushRun();

  Disk* disk_;
  int record_width_;
  int key_offset_;
  int key_width_;
  int64_t max_records_;
  std::string name_;

  std::vector<uint8_t> buffer_;  // max_records * record_width bytes
  int64_t in_buffer_ = 0;
  int64_t num_records_ = 0;
  int64_t run_pages_written_ = 0;
  std::vector<FileId> run_files_;
  std::vector<int64_t> run_page_counts_;
  bool finished_ = false;
};

/// Merged, key-ordered view over the sorter's runs (plus any still-in-
/// memory tail). Reads one page per run at a time, so memory stays
/// bounded by (runs + 1) pages.
class SortedStream {
 public:
  // Move-only: a cursor's page may point into its scratch buffer, which a
  // move keeps but a copy would leave behind.
  SortedStream(const SortedStream&) = delete;
  SortedStream& operator=(const SortedStream&) = delete;
  SortedStream(SortedStream&&) = default;
  SortedStream& operator=(SortedStream&&) = default;

  /// Next record in key order, or nullptr at end (check status()).
  const uint8_t* Next();

  /// OK unless a run page read failed.
  const Status& status() const { return status_; }

  int64_t pages_read() const { return pages_read_; }

 private:
  friend class ExternalSorter;

  struct RunCursor {
    FileId file = 0;
    int64_t num_pages = 0;
    int64_t next_page = 0;
    /// Read buffer for disks that do not keep pages in memory.
    std::vector<uint8_t> scratch;
    /// The current page, as Disk::ReadPage returned it.
    const uint8_t* page = nullptr;
    int record = 0;
    int records_in_page = 0;
    bool done = false;
  };

  explicit SortedStream(ExternalSorter* sorter);
  Status LoadPage(RunCursor& cursor);
  const uint8_t* CursorRecord(const RunCursor& cursor) const;
  Status AdvanceCursor(RunCursor& cursor);

  ExternalSorter* sorter_ = nullptr;
  std::vector<RunCursor> cursors_;
  std::vector<uint8_t> staging_;
  // In-memory tail (sorted slice of the sorter's buffer).
  const uint8_t* tail_ = nullptr;
  int64_t tail_count_ = 0;
  int64_t tail_next_ = 0;
  Status status_;
  int64_t pages_read_ = 0;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_SORT_EXTERNAL_SORTER_H_
