#include "storage/spill_file.h"

#include <cstring>

#include "common/crc32c.h"
#include "common/logging.h"

namespace adaptagg {
namespace {

// Bit 31 of the frame-count word marks a CRC-signed page: the last four
// bytes of the page then hold a CRC-32C over everything before them. Real
// frame counts never get near 2^31 (a page holds at most page_size
// records), so the flag cannot collide with a genuine count.
constexpr uint32_t kCrcSignedFlag = 0x80000000u;

}  // namespace

SpillWriter::SpillWriter(Disk* disk, FileId file, int raw_width,
                         int partial_width)
    : disk_(disk),
      file_(file),
      raw_width_(raw_width),
      partial_width_(partial_width),
      page_(static_cast<size_t>(disk->page_size()), 0),
      offset_(sizeof(uint32_t)) {}

Result<SpillWriter> SpillWriter::Create(Disk* disk, const std::string& name,
                                        int raw_width, int partial_width) {
  ADAPTAGG_ASSIGN_OR_RETURN(FileId id, disk->CreateFile(name));
  return SpillWriter(disk, id, raw_width, partial_width);
}

Status SpillWriter::Append(SpillTag tag, const uint8_t* record) {
  int width = WidthOf(tag);
  ADAPTAGG_CHECK(width > 0) << "spill append with unconfigured tag";
  int frame = 1 + width;
  ADAPTAGG_CHECK(frame + static_cast<int>(sizeof(uint32_t)) <=
                 disk_->page_size())
      << "spill record larger than a page";
  if (offset_ + frame > disk_->page_size()) {
    ADAPTAGG_RETURN_IF_ERROR(Flush());
  }
  page_[static_cast<size_t>(offset_)] = static_cast<uint8_t>(tag);
  std::memcpy(page_.data() + offset_ + 1, record,
              static_cast<size_t>(width));
  offset_ += frame;
  ++frames_in_page_;
  ++num_records_;
  return Status::OK();
}

Status SpillWriter::Flush() {
  if (frames_in_page_ == 0) return Status::OK();
  const int page_size = disk_->page_size();
  if (offset_ + 4 <= page_size) {
    // Room in the trailing padding: sign the page. The signed layout uses
    // the same page count and byte positions as the unsigned one, so
    // modeled I/O (pages written/read) is bit-identical either way.
    const uint32_t flagged = frames_in_page_ | kCrcSignedFlag;
    std::memcpy(page_.data(), &flagged, sizeof(flagged));
    const uint32_t crc =
        Crc32c(0, page_.data(), static_cast<size_t>(page_size) - 4);
    std::memcpy(page_.data() + page_size - 4, &crc, 4);
  } else {
    // Exactly-full page: no padding to host the CRC; leave it unsigned.
    std::memcpy(page_.data(), &frames_in_page_, sizeof(frames_in_page_));
  }
  ADAPTAGG_RETURN_IF_ERROR(disk_->AppendPage(file_, page_));
  ++num_pages_;
  std::fill(page_.begin(), page_.end(), 0);
  offset_ = sizeof(uint32_t);
  frames_in_page_ = 0;
  return Status::OK();
}

Status SpillWriter::Drop() { return disk_->DeleteFile(file_); }

// ---------------------------------------------------------------------------

SpillReader::SpillReader(const SpillWriter* writer) : writer_(writer) {}

bool SpillReader::LoadPage(int64_t index) {
  if (!status_.ok() || index >= writer_->num_pages()) return false;
  Result<const uint8_t*> page =
      writer_->disk()->ReadPage(writer_->file_id(), index, scratch_);
  if (!page.ok()) {
    status_ = page.status();
    return false;
  }
  page_ = *page;
  uint32_t frames;
  std::memcpy(&frames, page_, sizeof(frames));
  if (frames & kCrcSignedFlag) {
    // Verified on the stored page itself: the view is what gets decoded.
    const size_t page_size = static_cast<size_t>(writer_->disk()->page_size());
    uint32_t stored;
    std::memcpy(&stored, page_ + page_size - 4, 4);
    const uint32_t actual = Crc32c(0, page_, page_size - 4);
    if (stored != actual) {
      status_ = Status::DataLoss(
          "spill page " + std::to_string(index) +
          " failed CRC-32C (torn or corrupted write)");
      return false;
    }
    frames &= ~kCrcSignedFlag;
  }
  frames_in_page_ = frames;
  frame_in_page_ = 0;
  offset_ = sizeof(uint32_t);
  next_page_ = index + 1;
  ++pages_read_;
  return true;
}

bool SpillReader::NextRun(int max_frames, SpillRun* run) {
  // Errors are sticky: the current page may be the one that failed.
  if (!status_.ok()) return false;
  while (frame_in_page_ >= frames_in_page_) {
    if (!LoadPage(next_page_)) return false;
  }
  // Every frame must lie inside the page, which an unsigned (exactly
  // full) page with a damaged header or tag byte could otherwise break.
  const uint8_t* page = page_;
  const size_t page_size = static_cast<size_t>(writer_->disk()->page_size());
  auto malformed = [&]() {
    status_ = Status::DataLoss("spill page " + std::to_string(next_page_ - 1) +
                               " frame " + std::to_string(frame_in_page_) +
                               " is malformed");
    return false;
  };
  if (static_cast<size_t>(offset_) >= page_size) return malformed();
  const uint8_t tag_byte = page[offset_];
  const int width = tag_byte == static_cast<uint8_t>(SpillTag::kRaw)
                        ? writer_->raw_width()
                    : tag_byte == static_cast<uint8_t>(SpillTag::kPartial)
                        ? writer_->partial_width()
                        : 0;
  const int stride = 1 + width;
  run->tag = static_cast<SpillTag>(tag_byte);
  run->records = page + offset_ + 1;
  run->stride = stride;
  run->count = 0;
  // Extend the run while the next frame carries the same tag.
  do {
    if (width == 0 || static_cast<size_t>(offset_ + stride) > page_size) {
      return malformed();
    }
    offset_ += stride;
    ++frame_in_page_;
    ++run->count;
  } while (run->count < max_frames && frame_in_page_ < frames_in_page_ &&
           static_cast<size_t>(offset_) < page_size &&
           page[offset_] == tag_byte);
  return true;
}

}  // namespace adaptagg
