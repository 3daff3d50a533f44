#ifndef ADAPTAGG_STORAGE_SCOPED_DISK_H_
#define ADAPTAGG_STORAGE_SCOPED_DISK_H_

#include <string>
#include <vector>

#include "storage/disk.h"

namespace adaptagg {

/// Per-session view of a shared Disk. Data operations forward to the
/// underlying disk (same FileId space, so partition files created on the
/// base are readable through the view), but the DiskStats counters — and
/// with them the sequential/random read classification — are kept
/// per-view: a page read or written through the view counts on the view
/// and not on the base. Concurrent query sessions interleave their page
/// accesses on the shared base disk; charging modeled I/O time off the
/// base counters would make each query's simulated time depend on its
/// neighbors.
/// Charging off a ScopedDisk keeps every session's I/O accounting
/// byte-identical to the same query run alone.
///
/// The base Disk must outlive every ScopedDisk over it.
class ScopedDisk : public Disk {
 public:
  explicit ScopedDisk(Disk* base) : Disk(base->page_size()), base_(base) {}

  Disk* base() const { return base_; }

  Result<FileId> CreateFile(const std::string& name) override {
    return base_->CreateFile(name);
  }

  Result<int64_t> NumPages(FileId file) const override {
    return base_->NumPages(file);
  }

  Status DeleteFile(FileId file) override { return base_->DeleteFile(file); }

 protected:
  // Page I/O goes to the base's uncounted hooks: the base counts nothing,
  // and Disk::AppendPage / Disk::ReadPage count once, on this view.
  Status AppendPageUncounted(FileId file,
                             const std::vector<uint8_t>& page) override {
    return base_->AppendPageUncounted(file, page);
  }

  Result<const uint8_t*> ReadPageUncounted(
      FileId file, int64_t index, std::vector<uint8_t>& scratch) override {
    return base_->ReadPageUncounted(file, index, scratch);
  }

 private:
  Disk* base_;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_STORAGE_SCOPED_DISK_H_
