#ifndef ADAPTAGG_STORAGE_DISK_H_
#define ADAPTAGG_STORAGE_DISK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace adaptagg {

/// Opaque handle to a file on a Disk.
using FileId = int64_t;

/// Cumulative I/O counters of one disk. Sequential vs. random reads are
/// distinguished because the paper charges them differently (IO = 1.15 ms,
/// rIO = 15 ms per 4 KB page).
struct DiskStats {
  int64_t pages_read_seq = 0;
  int64_t pages_read_rand = 0;
  int64_t pages_written = 0;

  int64_t pages_read() const { return pages_read_seq + pages_read_rand; }
};

/// Abstract page-oriented store modeling one node's local disk in a
/// shared-nothing cluster. Files are append-only sequences of fixed-size
/// pages, readable by index. AppendPage and ReadPage count each page once,
/// in DiskStats on the disk they are called on; implementations supply
/// the uncounted page I/O underneath. The paper's I/O times are charged by
/// the caller (CostClock) from those counters.
///
/// Thread-safe: the serving layer runs concurrent query sessions against
/// one node's disks, so every operation and the stats counters are
/// internally synchronized. Per-session I/O attribution (deterministic
/// sequential/random classification independent of neighbors) is layered
/// on top via ScopedDisk, not here.
class Disk {
 public:
  explicit Disk(int page_size) : page_size_(page_size) {}
  virtual ~Disk() = default;

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  int page_size() const { return page_size_; }
  DiskStats stats() const {
    MutexLock lock(&stats_mu_);
    return stats_;
  }
  /// Clears the counters and the sequential-read tracking, so that runs
  /// over the same disk start from identical I/O state.
  void ResetStats() {
    MutexLock lock(&stats_mu_);
    stats_ = DiskStats();
    last_read_.clear();
  }

  /// Creates a new empty file and returns its id.
  virtual Result<FileId> CreateFile(const std::string& name) = 0;

  /// Appends one page (must be exactly page_size bytes).
  Status AppendPage(FileId file, const std::vector<uint8_t>& page) {
    ADAPTAGG_RETURN_IF_ERROR(AppendPageUncounted(file, page));
    CountWrite();
    return Status::OK();
  }

  /// Reads page `index` and returns a view of its page_size bytes. A disk
  /// that keeps its pages in memory returns a view of its own copy
  /// (SimDisk: valid until the file is deleted); one that does not reads
  /// into `scratch` (resized to page_size) and returns scratch.data(),
  /// valid until the next read into the same buffer. Callers therefore
  /// keep `scratch` alive while they use the view, and never write
  /// through it.
  Result<const uint8_t*> ReadPage(FileId file, int64_t index,
                                  std::vector<uint8_t>& scratch) {
    ADAPTAGG_ASSIGN_OR_RETURN(const uint8_t* view,
                              ReadPageUncounted(file, index, scratch));
    CountRead(file, index);
    return view;
  }

  /// Number of pages currently in the file.
  virtual Result<int64_t> NumPages(FileId file) const = 0;

  /// Removes the file and frees its space.
  virtual Status DeleteFile(FileId file) = 0;

 protected:
  // ScopedDisk forwards its page I/O to its base disk's uncounted hooks,
  // so a page read or written through a view is counted on the view only.
  friend class ScopedDisk;

  /// The page I/O behind AppendPage and ReadPage, with the same contracts
  /// and no counting.
  virtual Status AppendPageUncounted(FileId file,
                                     const std::vector<uint8_t>& page) = 0;
  virtual Result<const uint8_t*> ReadPageUncounted(
      FileId file, int64_t index, std::vector<uint8_t>& scratch) = 0;

 private:
  /// Classifies and counts a read of page `index` of `file`: sequential if
  /// it directly follows the previous read of the same file.
  void CountRead(FileId file, int64_t index);
  void CountWrite() {
    MutexLock lock(&stats_mu_);
    ++stats_.pages_written;
  }

  int page_size_;
  mutable Mutex stats_mu_;
  DiskStats stats_ ADAPTAGG_GUARDED_BY(stats_mu_);
  std::unordered_map<FileId, int64_t> last_read_ ADAPTAGG_GUARDED_BY(stats_mu_);
};

/// In-memory disk: stores pages in RAM but counts I/O as if they hit a
/// real spindle. This is the default substrate — it makes experiment runs
/// deterministic and fast while preserving the paper's I/O cost structure.
///
/// ReadPage returns a view of the stored page itself, not a copy. Every
/// page is its own heap buffer, written once by AppendPage and never
/// again; growing a file moves the page handles, never the bytes. A view
/// therefore stays valid, and its bytes unchanged, until DeleteFile of
/// its file, whatever else is appended, created or deleted meanwhile.
class SimDisk : public Disk {
 public:
  explicit SimDisk(int page_size);

  Result<FileId> CreateFile(const std::string& name) override;
  Result<int64_t> NumPages(FileId file) const override;
  Status DeleteFile(FileId file) override;

 protected:
  Status AppendPageUncounted(FileId file,
                             const std::vector<uint8_t>& page) override;
  Result<const uint8_t*> ReadPageUncounted(
      FileId file, int64_t index, std::vector<uint8_t>& scratch) override;

 private:
  mutable Mutex mu_;
  FileId next_id_ ADAPTAGG_GUARDED_BY(mu_) = 1;
  std::unordered_map<FileId, std::vector<std::vector<uint8_t>>> files_
      ADAPTAGG_GUARDED_BY(mu_);
};

/// Real-file disk: each FileId maps to a file under `dir`, accessed with
/// positioned reads/writes. Used to validate that the engine also runs on
/// actual storage.
class FileDisk : public Disk {
 public:
  /// `dir` must exist and be writable.
  FileDisk(std::string dir, int page_size);
  ~FileDisk() override;

  Result<FileId> CreateFile(const std::string& name) override;
  Result<int64_t> NumPages(FileId file) const override;
  Status DeleteFile(FileId file) override;

 protected:
  Status AppendPageUncounted(FileId file,
                             const std::vector<uint8_t>& page) override;
  Result<const uint8_t*> ReadPageUncounted(
      FileId file, int64_t index, std::vector<uint8_t>& scratch) override;

 private:
  struct OpenFile {
    int fd = -1;
    int64_t num_pages = 0;
    std::string path;
  };

  std::string dir_;
  mutable Mutex mu_;
  FileId next_id_ ADAPTAGG_GUARDED_BY(mu_) = 1;
  std::unordered_map<FileId, OpenFile> files_ ADAPTAGG_GUARDED_BY(mu_);
};

}  // namespace adaptagg

#endif  // ADAPTAGG_STORAGE_DISK_H_
