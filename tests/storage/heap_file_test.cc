#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include "storage/faulty_disk.h"

namespace adaptagg {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest()
      : disk_(512),
        schema_({{"k", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}}) {}

  HeapFile MakeFile() {
    auto hf = HeapFile::Create(&disk_, &schema_, "t");
    EXPECT_TRUE(hf.ok());
    return std::move(hf).value();
  }

  void Fill(HeapFile& hf, int64_t n) {
    TupleBuffer t(&schema_);
    for (int64_t i = 0; i < n; ++i) {
      t.SetInt64(0, i);
      t.SetInt64(1, i * 2);
      ASSERT_TRUE(hf.Append(t.view()).ok());
    }
    ASSERT_TRUE(hf.Flush().ok());
  }

  SimDisk disk_;
  Schema schema_;
};

TEST_F(HeapFileTest, AppendScanRoundtrip) {
  HeapFile hf = MakeFile();
  Fill(hf, 100);
  EXPECT_EQ(hf.num_tuples(), 100);

  HeapFileScanner scanner(&hf);
  int64_t i = 0;
  for (TupleView t = scanner.Next(); t.valid(); t = scanner.Next(), ++i) {
    EXPECT_EQ(t.GetInt64(0), i);
    EXPECT_EQ(t.GetInt64(1), i * 2);
  }
  EXPECT_EQ(i, 100);
}

TEST_F(HeapFileTest, PageCountMatchesCapacity) {
  HeapFile hf = MakeFile();
  // 512-byte pages, 16-byte tuples, 4-byte header -> 31 tuples/page.
  int cap = PageBuilder::Capacity(512, 16);
  EXPECT_EQ(cap, 31);
  Fill(hf, 100);
  EXPECT_EQ(hf.num_pages(), (100 + cap - 1) / cap);
}

TEST_F(HeapFileTest, EmptyFileScan) {
  HeapFile hf = MakeFile();
  ASSERT_TRUE(hf.Flush().ok());
  EXPECT_EQ(hf.num_pages(), 0);
  HeapFileScanner scanner(&hf);
  EXPECT_FALSE(scanner.Next().valid());
}

TEST_F(HeapFileTest, FlushIdempotent) {
  HeapFile hf = MakeFile();
  Fill(hf, 5);
  int64_t pages = hf.num_pages();
  ASSERT_TRUE(hf.Flush().ok());  // nothing buffered -> no new page
  EXPECT_EQ(hf.num_pages(), pages);
}

TEST_F(HeapFileTest, ScannerCountsPages) {
  HeapFile hf = MakeFile();
  Fill(hf, 100);
  const int64_t before = disk_.stats().pages_read_seq;
  HeapFileScanner scanner(&hf);
  while (scanner.Next().valid()) {
  }
  EXPECT_EQ(disk_.stats().pages_read_seq - before, hf.num_pages());
}

TEST_F(HeapFileTest, InjectedReadFaultEndsTheScan) {
  FaultySimDisk disk(512);
  auto made = HeapFile::Create(&disk, &schema_, "t");
  ASSERT_TRUE(made.ok());
  HeapFile hf = std::move(made).value();
  Fill(hf, 100);  // four pages of 31 tuples
  ASSERT_EQ(hf.num_pages(), 4);
  disk.FailReadsAfter(2);

  HeapFileScanner scanner(&hf);
  const uint8_t* ptrs[64];
  int64_t rows = 0;
  while (int n = scanner.NextRun(ptrs, 64)) rows += n;
  EXPECT_EQ(rows, 2 * 31);
  EXPECT_EQ(disk.stats().pages_read_seq, 2);
  EXPECT_EQ(scanner.status().code(), StatusCode::kIOError);
  EXPECT_EQ(scanner.status().message(), "injected read fault");
  EXPECT_EQ(scanner.NextRun(ptrs, 64), 0);  // the error is sticky
}

TEST_F(HeapFileTest, DropDeletesBackingFile) {
  HeapFile hf = MakeFile();
  Fill(hf, 10);
  ASSERT_TRUE(hf.Drop().ok());
  std::vector<uint8_t> out;
  EXPECT_FALSE(disk_.ReadPage(hf.file_id(), 0, out).ok());
}

}  // namespace
}  // namespace adaptagg
