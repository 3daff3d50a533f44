#include "storage/heap_file.h"

#include <algorithm>

#include "common/logging.h"
#include "common/simd.h"

namespace adaptagg {

HeapFile::HeapFile(Disk* disk, const Schema* schema, FileId file)
    : disk_(disk),
      schema_(schema),
      file_(file),
      builder_(std::make_unique<PageBuilder>(disk->page_size(),
                                             schema->tuple_size())) {}

Result<HeapFile> HeapFile::Create(Disk* disk, const Schema* schema,
                                  const std::string& name) {
  ADAPTAGG_ASSIGN_OR_RETURN(FileId id, disk->CreateFile(name));
  return HeapFile(disk, schema, id);
}

Status HeapFile::Append(const TupleView& tuple) {
  return AppendRaw(tuple.data());
}

Status HeapFile::AppendRaw(const uint8_t* record) {
  builder_->Append(record);
  ++num_tuples_;
  if (builder_->full()) {
    ADAPTAGG_RETURN_IF_ERROR(disk_->AppendPage(file_, builder_->Finish()));
    ++num_pages_;
  }
  return Status::OK();
}

Status HeapFile::Flush() {
  if (!builder_->empty()) {
    ADAPTAGG_RETURN_IF_ERROR(disk_->AppendPage(file_, builder_->Finish()));
    ++num_pages_;
  }
  return Status::OK();
}

Status HeapFile::Drop() { return disk_->DeleteFile(file_); }

// ---------------------------------------------------------------------------

HeapFileScanner::HeapFileScanner(const HeapFile* file) : file_(file) {}

bool HeapFileScanner::LoadPage(int64_t index) {
  if (!status_.ok() || index >= file_->num_pages()) return false;
  Result<const uint8_t*> page =
      file_->disk()->ReadPage(file_->file_id(), index, scratch_);
  if (!page.ok()) {
    status_ = page.status();
    return false;
  }
  page_ = *page;
  // The scan is bound by memory speed: ask for the whole page now, so
  // the lines arrive while the first records are being projected.
  const int page_size = file_->disk()->page_size();
  for (int off = 0; off < page_size; off += simd::kCacheLineBytes) {
    simd::PrefetchRead(page_ + off);
  }
  PageReader reader(page_, page_size, file_->schema().tuple_size());
  records_in_page_ = reader.count();
  record_in_page_ = 0;
  next_page_ = index + 1;
  return true;
}

TupleView HeapFileScanner::Next() {
  while (record_in_page_ >= records_in_page_) {
    if (!LoadPage(next_page_)) return TupleView();
  }
  PageReader reader(page_, file_->disk()->page_size(),
                    file_->schema().tuple_size());
  const uint8_t* rec = reader.record(record_in_page_++);
  return TupleView(rec, &file_->schema());
}

int HeapFileScanner::NextRun(const uint8_t** out, int max) {
  if (max <= 0) return 0;
  while (record_in_page_ >= records_in_page_) {
    if (!LoadPage(next_page_)) return 0;
  }
  PageReader reader(page_, file_->disk()->page_size(),
                    file_->schema().tuple_size());
  int take = std::min(max, records_in_page_ - record_in_page_);
  for (int i = 0; i < take; ++i) {
    out[i] = reader.record(record_in_page_ + i);
  }
  record_in_page_ += take;
  return take;
}

}  // namespace adaptagg
