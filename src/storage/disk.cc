#include "storage/disk.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace adaptagg {

void Disk::CountRead(FileId file, int64_t index) {
  MutexLock lock(&stats_mu_);
  auto it = last_read_.find(file);
  if (it != last_read_.end() && it->second + 1 == index) {
    ++stats_.pages_read_seq;
  } else if (index == 0 && it == last_read_.end()) {
    // First page of a fresh scan counts as sequential (a scan's initial
    // seek is amortized over the whole scan in the paper's model).
    ++stats_.pages_read_seq;
  } else {
    ++stats_.pages_read_rand;
  }
  last_read_[file] = index;
}

// ---------------------------------------------------------------------------
// SimDisk

SimDisk::SimDisk(int page_size) : Disk(page_size) {}

Result<FileId> SimDisk::CreateFile(const std::string& name) {
  (void)name;  // names are only meaningful for FileDisk paths
  MutexLock lock(&mu_);
  FileId id = next_id_++;
  files_.emplace(id, std::vector<std::vector<uint8_t>>());
  return id;
}

Status SimDisk::AppendPageUncounted(FileId file,
                                    const std::vector<uint8_t>& page) {
  MutexLock lock(&mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("SimDisk: no file " + std::to_string(file));
  }
  if (static_cast<int>(page.size()) != page_size()) {
    return Status::InvalidArgument("page size mismatch: got " +
                                   std::to_string(page.size()));
  }
  it->second.push_back(page);
  return Status::OK();
}

Result<const uint8_t*> SimDisk::ReadPageUncounted(
    FileId file, int64_t index, std::vector<uint8_t>& scratch) {
  (void)scratch;  // the view points at the stored page
  MutexLock lock(&mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("SimDisk: no file " + std::to_string(file));
  }
  if (index < 0 || index >= static_cast<int64_t>(it->second.size())) {
    return Status::OutOfRange("SimDisk: page " + std::to_string(index) +
                              " of " + std::to_string(it->second.size()));
  }
  return static_cast<const uint8_t*>(
      it->second[static_cast<size_t>(index)].data());
}

Result<int64_t> SimDisk::NumPages(FileId file) const {
  MutexLock lock(&mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("SimDisk: no file " + std::to_string(file));
  }
  return static_cast<int64_t>(it->second.size());
}

Status SimDisk::DeleteFile(FileId file) {
  MutexLock lock(&mu_);
  if (files_.erase(file) == 0) {
    return Status::NotFound("SimDisk: no file " + std::to_string(file));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FileDisk

FileDisk::FileDisk(std::string dir, int page_size)
    : Disk(page_size), dir_(std::move(dir)) {}

FileDisk::~FileDisk() {
  MutexLock lock(&mu_);
  for (auto& [id, f] : files_) {
    if (f.fd >= 0) {
      ::close(f.fd);
      ::unlink(f.path.c_str());
    }
  }
}

Result<FileId> FileDisk::CreateFile(const std::string& name) {
  MutexLock lock(&mu_);
  FileId id = next_id_++;
  OpenFile f;
  f.path = dir_ + "/adaptagg_" + std::to_string(id) + "_" + name;
  f.fd = ::open(f.path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (f.fd < 0) {
    return Status::IOError("open " + f.path + ": " + std::strerror(errno));
  }
  files_.emplace(id, std::move(f));
  return id;
}

Status FileDisk::AppendPageUncounted(FileId file,
                                     const std::vector<uint8_t>& page) {
  MutexLock lock(&mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("FileDisk: no file " + std::to_string(file));
  }
  if (static_cast<int>(page.size()) != page_size()) {
    return Status::InvalidArgument("page size mismatch");
  }
  off_t off = static_cast<off_t>(it->second.num_pages) * page_size();
  ssize_t n = ::pwrite(it->second.fd, page.data(), page.size(), off);
  if (n != static_cast<ssize_t>(page.size())) {
    return Status::IOError("pwrite: " + std::string(std::strerror(errno)));
  }
  ++it->second.num_pages;
  return Status::OK();
}

Result<const uint8_t*> FileDisk::ReadPageUncounted(
    FileId file, int64_t index, std::vector<uint8_t>& scratch) {
  MutexLock lock(&mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("FileDisk: no file " + std::to_string(file));
  }
  if (index < 0 || index >= it->second.num_pages) {
    return Status::OutOfRange("FileDisk: page " + std::to_string(index));
  }
  scratch.resize(static_cast<size_t>(page_size()));
  off_t off = static_cast<off_t>(index) * page_size();
  ssize_t n = ::pread(it->second.fd, scratch.data(), scratch.size(), off);
  if (n != static_cast<ssize_t>(scratch.size())) {
    return Status::IOError("pread: " + std::string(std::strerror(errno)));
  }
  return static_cast<const uint8_t*>(scratch.data());
}

Result<int64_t> FileDisk::NumPages(FileId file) const {
  MutexLock lock(&mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("FileDisk: no file " + std::to_string(file));
  }
  return it->second.num_pages;
}

Status FileDisk::DeleteFile(FileId file) {
  MutexLock lock(&mu_);
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound("FileDisk: no file " + std::to_string(file));
  }
  ::close(it->second.fd);
  ::unlink(it->second.path.c_str());
  files_.erase(it);
  return Status::OK();
}

}  // namespace adaptagg
