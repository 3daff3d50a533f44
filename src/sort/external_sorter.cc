#include "sort/external_sorter.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/logging.h"

namespace adaptagg {

ExternalSorter::ExternalSorter(Disk* disk, int record_width, int key_offset,
                               int key_width, int64_t max_records,
                               std::string name)
    : disk_(disk),
      record_width_(record_width),
      key_offset_(key_offset),
      key_width_(key_width),
      max_records_(max_records),
      name_(std::move(name)) {
  ADAPTAGG_CHECK(record_width_ > 0 && key_width_ > 0 && key_offset_ >= 0 &&
                 key_offset_ + key_width_ <= record_width_)
      << "bad sorter layout";
  ADAPTAGG_CHECK(max_records_ > 0) << "sorter needs memory";
  buffer_.resize(static_cast<size_t>(max_records_) *
                 static_cast<size_t>(record_width_));
}

bool ExternalSorter::Less(const uint8_t* a, const uint8_t* b) const {
  return std::memcmp(a + key_offset_, b + key_offset_,
                     static_cast<size_t>(key_width_)) < 0;
}

Status ExternalSorter::Add(const uint8_t* record) {
  ADAPTAGG_CHECK(!finished_) << "Add after Finish";
  if (in_buffer_ >= max_records_) {
    ADAPTAGG_RETURN_IF_ERROR(FlushRun());
  }
  std::memcpy(buffer_.data() + in_buffer_ * record_width_, record,
              static_cast<size_t>(record_width_));
  ++in_buffer_;
  ++num_records_;
  return Status::OK();
}

namespace {

/// Sorts `count` fixed-width records in place via an index permutation
/// (avoids O(n * width) swaps of big records during sorting; applies the
/// permutation once at the end).
void SortRecords(uint8_t* data, int64_t count, int width,
                 const std::function<bool(const uint8_t*, const uint8_t*)>&
                     less) {
  std::vector<int32_t> index(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    index[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  std::sort(index.begin(), index.end(), [&](int32_t a, int32_t b) {
    return less(data + static_cast<int64_t>(a) * width,
                data + static_cast<int64_t>(b) * width);
  });
  std::vector<uint8_t> scratch(static_cast<size_t>(count) *
                               static_cast<size_t>(width));
  for (int64_t i = 0; i < count; ++i) {
    std::memcpy(scratch.data() + i * width,
                data + static_cast<int64_t>(index[static_cast<size_t>(i)]) *
                           width,
                static_cast<size_t>(width));
  }
  std::memcpy(data, scratch.data(), scratch.size());
}

}  // namespace

ExternalSorter::~ExternalSorter() {
  // Deleting charges no modeled I/O; a file that is already gone (or a
  // failed delete) changes no answer, so the status is not needed.
  for (FileId file : run_files_) (void)disk_->DeleteFile(file);
}

Status ExternalSorter::FlushRun() {
  if (in_buffer_ == 0) return Status::OK();
  SortRecords(buffer_.data(), in_buffer_, record_width_,
              [this](const uint8_t* a, const uint8_t* b) {
                return Less(a, b);
              });
  ADAPTAGG_ASSIGN_OR_RETURN(
      FileId file,
      disk_->CreateFile(name_ + ".run" +
                        std::to_string(run_files_.size())));
  PageBuilder builder(disk_->page_size(), record_width_);
  int64_t pages = 0;
  for (int64_t i = 0; i < in_buffer_; ++i) {
    builder.Append(buffer_.data() + i * record_width_);
    if (builder.full()) {
      ADAPTAGG_RETURN_IF_ERROR(disk_->AppendPage(file, builder.Finish()));
      ++pages;
    }
  }
  if (!builder.empty()) {
    ADAPTAGG_RETURN_IF_ERROR(disk_->AppendPage(file, builder.Finish()));
    ++pages;
  }
  run_files_.push_back(file);
  run_page_counts_.push_back(pages);
  run_pages_written_ += pages;
  in_buffer_ = 0;
  return Status::OK();
}

Result<SortedStream> ExternalSorter::Finish() {
  ADAPTAGG_CHECK(!finished_) << "Finish called twice";
  finished_ = true;
  // The in-memory tail is sorted but kept in RAM and merged directly —
  // no reason to spend I/O on it.
  if (in_buffer_ > 0) {
    SortRecords(buffer_.data(), in_buffer_, record_width_,
                [this](const uint8_t* a, const uint8_t* b) {
                  return Less(a, b);
                });
  }
  SortedStream stream(this);
  if (!stream.status().ok()) return stream.status();
  return stream;
}

// ---------------------------------------------------------------------------

SortedStream::SortedStream(ExternalSorter* sorter) : sorter_(sorter) {
  tail_ = sorter_->buffer_.data();
  tail_count_ = sorter_->in_buffer_;
  cursors_.resize(sorter_->run_files_.size());
  for (size_t r = 0; r < cursors_.size(); ++r) {
    cursors_[r].file = sorter_->run_files_[r];
    cursors_[r].num_pages = sorter_->run_page_counts_[r];
    Status st = LoadPage(cursors_[r]);
    if (!st.ok()) {
      status_ = st;
      return;
    }
  }
}

Status SortedStream::LoadPage(RunCursor& cursor) {
  if (cursor.next_page >= cursor.num_pages) {
    cursor.done = true;
    return Status::OK();
  }
  ADAPTAGG_ASSIGN_OR_RETURN(
      cursor.page,
      sorter_->disk_->ReadPage(cursor.file, cursor.next_page, cursor.scratch));
  PageReader reader(cursor.page, sorter_->disk_->page_size(),
                    sorter_->record_width_);
  cursor.records_in_page = reader.count();
  cursor.record = 0;
  ++cursor.next_page;
  ++pages_read_;
  return Status::OK();
}

const uint8_t* SortedStream::CursorRecord(const RunCursor& cursor) const {
  return cursor.page + sizeof(uint32_t) +
         static_cast<size_t>(cursor.record) *
             static_cast<size_t>(sorter_->record_width_);
}

Status SortedStream::AdvanceCursor(RunCursor& cursor) {
  ++cursor.record;
  while (!cursor.done && cursor.record >= cursor.records_in_page) {
    ADAPTAGG_RETURN_IF_ERROR(LoadPage(cursor));
  }
  return Status::OK();
}

const uint8_t* SortedStream::Next() {
  if (!status_.ok()) return nullptr;
  // Pick the minimum over run heads and the in-memory tail head. Run
  // counts are small (records / max_records), so a linear scan beats
  // heap bookkeeping at this scale.
  const uint8_t* best = nullptr;
  RunCursor* best_cursor = nullptr;
  for (RunCursor& cursor : cursors_) {
    if (cursor.done || cursor.records_in_page == 0) continue;
    const uint8_t* rec = CursorRecord(cursor);
    if (best == nullptr || sorter_->Less(rec, best)) {
      best = rec;
      best_cursor = &cursor;
    }
  }
  bool take_tail = false;
  if (tail_next_ < tail_count_) {
    const uint8_t* rec = tail_ + tail_next_ * sorter_->record_width_;
    if (best == nullptr || sorter_->Less(rec, best)) {
      best = rec;
      take_tail = true;
    }
  }
  if (best == nullptr) return nullptr;
  if (take_tail) {
    ++tail_next_;
    return best;
  }
  // `best` points into the cursor's page; copy-free hand-off works
  // because AdvanceCursor only replaces the page after the caller is
  // done — so stage the pointer by advancing lazily: we must not reload
  // the page before returning. Copy the record into the stream-local
  // staging buffer instead.
  staging_.assign(best, best + sorter_->record_width_);
  Status st = AdvanceCursor(*best_cursor);
  if (!st.ok()) {
    status_ = st;
    return nullptr;
  }
  return staging_.data();
}

}  // namespace adaptagg
