#include "storage/disk.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "storage/scoped_disk.h"

namespace adaptagg {
namespace {

std::vector<uint8_t> MakePage(int page_size, uint8_t fill) {
  return std::vector<uint8_t>(static_cast<size_t>(page_size), fill);
}

/// A page whose every byte depends on (file tag, page index, offset), so
/// a view of the wrong page or a reused buffer cannot pass for it.
std::vector<uint8_t> PatternPage(int page_size, int tag, int64_t index) {
  std::vector<uint8_t> page(static_cast<size_t>(page_size));
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(tag * 31 + index * 7 +
                                   static_cast<int64_t>(i));
  }
  return page;
}

class DiskTest : public ::testing::TestWithParam<bool /*use_file_disk*/> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      const char* tmp = std::getenv("TMPDIR");
      disk_ = std::make_unique<FileDisk>(tmp != nullptr ? tmp : "/tmp", 512);
    } else {
      disk_ = std::make_unique<SimDisk>(512);
    }
  }
  std::unique_ptr<Disk> disk_;
};

TEST_P(DiskTest, CreateAppendReadRoundtrip) {
  auto file = disk_->CreateFile("t");
  ASSERT_TRUE(file.ok());
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(disk_->AppendPage(*file, PatternPage(512, 1, i)).ok());
  }
  auto pages = disk_->NumPages(*file);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(*pages, 8);

  // Every byte of the view, in and out of order and on a repeated read.
  std::vector<uint8_t> scratch;
  for (int64_t i : {0, 1, 7, 3, 3}) {
    auto page = disk_->ReadPage(*file, i, scratch);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    const std::vector<uint8_t> want = PatternPage(512, 1, i);
    EXPECT_EQ(std::memcmp(*page, want.data(), want.size()), 0)
        << "page " << i;
  }
}

TEST_P(DiskTest, ErrorsOnBadArguments) {
  auto file = disk_->CreateFile("t");
  ASSERT_TRUE(file.ok());
  // Wrong page size.
  EXPECT_EQ(disk_->AppendPage(*file, MakePage(100, 0)).code(),
            StatusCode::kInvalidArgument);
  // Out-of-range read.
  std::vector<uint8_t> out;
  EXPECT_EQ(disk_->ReadPage(*file, 0, out).status().code(),
            StatusCode::kOutOfRange);
  // Unknown file id.
  EXPECT_EQ(disk_->ReadPage(9999, 0, out).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(disk_->NumPages(9999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(disk_->DeleteFile(9999).code(), StatusCode::kNotFound);
}

TEST_P(DiskTest, DeleteRemovesFile) {
  auto file = disk_->CreateFile("t");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(disk_->AppendPage(*file, MakePage(512, 1)).ok());
  ASSERT_TRUE(disk_->DeleteFile(*file).ok());
  std::vector<uint8_t> out;
  EXPECT_EQ(disk_->ReadPage(*file, 0, out).status().code(),
            StatusCode::kNotFound);
}

TEST_P(DiskTest, StatsDistinguishSequentialAndRandom) {
  auto file = disk_->CreateFile("t");
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        disk_->AppendPage(*file, MakePage(512, static_cast<uint8_t>(i)))
            .ok());
  }
  EXPECT_EQ(disk_->stats().pages_written, 10);

  std::vector<uint8_t> out;
  // Sequential scan 0..9.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(disk_->ReadPage(*file, i, out).ok());
  }
  EXPECT_EQ(disk_->stats().pages_read_seq, 10);
  EXPECT_EQ(disk_->stats().pages_read_rand, 0);

  // Jumping around is random.
  ASSERT_TRUE(disk_->ReadPage(*file, 5, out).ok());
  ASSERT_TRUE(disk_->ReadPage(*file, 2, out).ok());
  EXPECT_EQ(disk_->stats().pages_read_rand, 2);
  // ...but continuing from a jump is sequential again.
  ASSERT_TRUE(disk_->ReadPage(*file, 3, out).ok());
  EXPECT_EQ(disk_->stats().pages_read_seq, 11);
  EXPECT_EQ(disk_->stats().pages_read(), 13);

  disk_->ResetStats();
  EXPECT_EQ(disk_->stats().pages_read(), 0);
  EXPECT_EQ(disk_->stats().pages_written, 0);
}

TEST_P(DiskTest, MultipleFilesIndependent) {
  auto f1 = disk_->CreateFile("a");
  auto f2 = disk_->CreateFile("b");
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_NE(*f1, *f2);
  ASSERT_TRUE(disk_->AppendPage(*f1, MakePage(512, 1)).ok());
  ASSERT_TRUE(disk_->AppendPage(*f2, MakePage(512, 2)).ok());
  std::vector<uint8_t> scratch;
  auto page = disk_->ReadPage(*f2, 0, scratch);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)[0], 2);
}

INSTANTIATE_TEST_SUITE_P(SimAndFile, DiskTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "FileDisk" : "SimDisk";
                         });

// ---------------------------------------------------------------------------
// The ReadPage contract beyond DiskTest: a per-session ScopedDisk on a
// SimDisk, and how long a view lives.

TEST(DiskContractLifetime, ScopedDiskReadsTheBaseAndCountsOnItself) {
  // DiskTest's bytes and read-count figures, through a session view.
  // Modeled I/O time is charged from these counters, so they must not
  // depend on whether a read copies the page or hands out a view.
  SimDisk base(512);
  ScopedDisk disk(&base);
  auto file = disk.CreateFile("t");
  ASSERT_TRUE(file.ok());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(disk.AppendPage(*file, PatternPage(512, 2, i)).ok());
  }
  // A page written through the view counts once, on the view.
  EXPECT_EQ(disk.stats().pages_written, 10);
  EXPECT_EQ(base.stats().pages_written, 0);
  disk.ResetStats();
  std::vector<uint8_t> scratch;
  for (int64_t i : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 5, 2, 3}) {
    auto page = disk.ReadPage(*file, i, scratch);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    const std::vector<uint8_t> want = PatternPage(512, 2, i);
    EXPECT_EQ(std::memcmp(*page, want.data(), want.size()), 0)
        << "page " << i;
  }
  EXPECT_EQ(disk.stats().pages_read_seq, 11);
  EXPECT_EQ(disk.stats().pages_read_rand, 2);
  EXPECT_EQ(disk.stats().pages_written, 0);
  // A read through the view counts once, on the view, never on the base.
  EXPECT_EQ(base.stats().pages_read(), 0);
}

/// Checks that a view of page 0 of a one-page file on `disk` keeps its
/// bytes, and stays the stored page, while the same file grows by 1,000
/// pages, other files come and go, and other pages are read.
void ExpectViewOutlivesGrowth(Disk& disk) {
  const int page_size = disk.page_size();
  auto file = disk.CreateFile("kept");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(disk.AppendPage(*file, PatternPage(page_size, 3, 0)).ok());
  std::vector<uint8_t> scratch;
  auto view = disk.ReadPage(*file, 0, scratch);
  ASSERT_TRUE(view.ok());

  for (int64_t i = 1; i <= 1000; ++i) {
    ASSERT_TRUE(disk.AppendPage(*file, PatternPage(page_size, 3, i)).ok());
  }
  for (int round = 0; round < 10; ++round) {
    auto other = disk.CreateFile("other");
    ASSERT_TRUE(other.ok());
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          disk.AppendPage(*other, PatternPage(page_size, 4, i)).ok());
    }
    ASSERT_TRUE(disk.ReadPage(*other, 19, scratch).ok());
    if (round % 2 == 0) {
      ASSERT_TRUE(disk.DeleteFile(*other).ok());
    }
  }
  ASSERT_TRUE(disk.ReadPage(*file, 500, scratch).ok());

  const std::vector<uint8_t> want = PatternPage(page_size, 3, 0);
  EXPECT_EQ(std::memcmp(*view, want.data(), want.size()), 0);
  auto again = disk.ReadPage(*file, 0, scratch);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *view) << "a SimDisk read returns the stored page";
  EXPECT_TRUE(scratch.empty()) << "a SimDisk read never copies";
}

TEST(DiskContractLifetime, SimDiskViewOutlivesGrowthAndOtherFiles) {
  SimDisk disk(256);
  ExpectViewOutlivesGrowth(disk);
}

TEST(DiskContractLifetime, ScopedDiskViewOutlivesGrowthAndOtherFiles) {
  SimDisk base(256);
  ScopedDisk disk(&base);
  ExpectViewOutlivesGrowth(disk);
}

TEST(DiskContractLifetime, FileDiskViewIsTheScratchBuffer) {
  const char* tmp = std::getenv("TMPDIR");
  FileDisk disk(tmp != nullptr ? tmp : "/tmp", 256);
  auto file = disk.CreateFile("scratch");
  ASSERT_TRUE(file.ok());
  for (int64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(disk.AppendPage(*file, PatternPage(256, 5, i)).ok());
  }
  std::vector<uint8_t> scratch;
  for (int64_t i : {0, 1}) {
    auto view = disk.ReadPage(*file, i, scratch);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(*view, scratch.data());
    ASSERT_EQ(scratch.size(), 256u);
    EXPECT_EQ(scratch, PatternPage(256, 5, i));
  }
}

}  // namespace
}  // namespace adaptagg
