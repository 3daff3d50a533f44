#ifndef ADAPTAGG_STORAGE_HEAP_FILE_H_
#define ADAPTAGG_STORAGE_HEAP_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "schema/tuple.h"
#include "storage/disk.h"
#include "storage/page.h"

namespace adaptagg {

/// A heap file: an unordered, paged sequence of fixed-width tuples of one
/// schema, stored on a Disk. This is the on-"disk" representation of one
/// node's partition of a relation.
class HeapFile {
 public:
  /// Creates a new empty heap file on `disk`. `disk` and `schema` must
  /// outlive the HeapFile.
  static Result<HeapFile> Create(Disk* disk, const Schema* schema,
                                 const std::string& name);

  /// Read-only view of an existing (fully flushed) heap file through a
  /// different Disk over the same underlying store — the serving layer
  /// scans one shared partition through per-session ScopedDisks so each
  /// query's I/O lands on its own counters. `disk` must resolve the same
  /// FileId space as `base.disk()`. Appending through a view is
  /// undefined (the view's page count would diverge from the base's).
  static HeapFile View(Disk* disk, const HeapFile& base) {
    HeapFile f(disk, &base.schema(), base.file_id());
    f.num_tuples_ = base.num_tuples();
    f.num_pages_ = base.num_pages();
    return f;
  }

  int64_t num_tuples() const { return num_tuples_; }
  int64_t num_pages() const { return num_pages_; }
  const Schema& schema() const { return *schema_; }
  Disk* disk() const { return disk_; }
  FileId file_id() const { return file_; }

  /// Appends one tuple (buffered; call Flush() when done loading).
  Status Append(const TupleView& tuple);
  Status AppendRaw(const uint8_t* record);

  /// Writes out any partially-filled page.
  Status Flush();

  /// Deletes the underlying file.
  Status Drop();

 private:
  HeapFile(Disk* disk, const Schema* schema, FileId file);

  Disk* disk_;
  const Schema* schema_;
  FileId file_;
  int64_t num_tuples_ = 0;
  int64_t num_pages_ = 0;
  std::unique_ptr<PageBuilder> builder_;
};

/// Sequentially scans a HeapFile page by page, yielding tuple views.
/// Reading a page performs (and counts) one disk read, reads the page in
/// place through Disk::ReadPage's view, and prefetches the page's cache
/// lines, so the first records are not waiting on DRAM.
class HeapFileScanner {
 public:
  explicit HeapFileScanner(const HeapFile* file);
  // Move-only: page_ may point into scratch_, whose buffer a move keeps
  // but a copy would leave behind.
  HeapFileScanner(const HeapFileScanner&) = delete;
  HeapFileScanner& operator=(const HeapFileScanner&) = delete;
  HeapFileScanner(HeapFileScanner&&) = default;
  HeapFileScanner& operator=(HeapFileScanner&&) = default;

  /// Advances to the next tuple; returns an invalid view at end of file
  /// or on a disk error — distinguish by checking status().
  TupleView Next();

  /// Fills `out` with up to `max` record pointers into the current page
  /// (loading the next page first when it is exhausted, so one call
  /// never spans pages and performs at most one disk read). Returns the
  /// count; 0 at end of file or on error. The pointers are a view of the
  /// page as Disk::ReadPage returned it: on a SimDisk they stay valid
  /// until the file is deleted; on a FileDisk only until the scanner
  /// loads another page (the next NextRun/Next that crosses a page
  /// boundary). Callers must assume the shorter lifetime.
  int NextRun(const uint8_t** out, int max);

  /// OK unless a page read failed; once non-OK the scanner stays ended.
  const Status& status() const { return status_; }

 private:
  bool LoadPage(int64_t index);

  const HeapFile* file_;
  /// Read buffer for disks that do not keep pages in memory.
  std::vector<uint8_t> scratch_;
  /// The current page, as ReadPage returned it.
  const uint8_t* page_ = nullptr;
  Status status_;
  int64_t next_page_ = 0;
  int record_in_page_ = 0;
  int records_in_page_ = 0;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_STORAGE_HEAP_FILE_H_
