#include "storage/spill_file.h"

#include <gtest/gtest.h>

#include <cstring>

#include "storage/faulty_disk.h"

namespace adaptagg {
namespace {

/// One frame read back: its tag and record bytes.
struct Frame {
  SpillTag tag;
  std::vector<uint8_t> bytes;
};

/// Reads `writer`'s file back run by run and flattens the runs into
/// frames, checking each run's shape on the way: non-empty, at most
/// `max_frames` long, stride = 1 + the tag's width.
std::vector<Frame> ReadAll(const SpillWriter& writer, int max_frames,
                           int64_t* pages_read = nullptr) {
  SpillReader reader(&writer);
  std::vector<Frame> frames;
  SpillRun run;
  while (reader.NextRun(max_frames, &run)) {
    const int width = run.tag == SpillTag::kRaw ? writer.raw_width()
                                                : writer.partial_width();
    EXPECT_GE(run.count, 1);
    EXPECT_LE(run.count, max_frames);
    EXPECT_EQ(run.stride, 1 + width);
    for (int i = 0; i < run.count; ++i) {
      const uint8_t* rec = run.records + static_cast<size_t>(i) * run.stride;
      frames.push_back({run.tag, std::vector<uint8_t>(rec, rec + width)});
    }
  }
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
  if (pages_read != nullptr) *pages_read = reader.pages_read();
  return frames;
}

class SpillFileTest : public ::testing::Test {
 protected:
  SpillFileTest() : disk_(256) {}

  SpillWriter MakeWriter(int raw_width, int partial_width) {
    auto w = SpillWriter::Create(&disk_, "spill", raw_width, partial_width);
    EXPECT_TRUE(w.ok());
    return std::move(w).value();
  }

  SimDisk disk_;
};

TEST_F(SpillFileTest, MixedTagRoundtrip) {
  SpillWriter w = MakeWriter(/*raw=*/16, /*partial=*/24);
  uint8_t raw[16];
  uint8_t partial[24];
  for (int i = 0; i < 100; ++i) {
    if (i % 3 == 0) {
      std::memset(partial, i, sizeof(partial));
      ASSERT_TRUE(w.Append(SpillTag::kPartial, partial).ok());
    } else {
      std::memset(raw, i, sizeof(raw));
      ASSERT_TRUE(w.Append(SpillTag::kRaw, raw).ok());
    }
  }
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_records(), 100);
  EXPECT_GT(w.num_pages(), 1);

  for (int max_frames : {1, 3, 128}) {
    int64_t pages_read = 0;
    std::vector<Frame> frames = ReadAll(w, max_frames, &pages_read);
    ASSERT_EQ(frames.size(), 100u) << max_frames;
    for (int i = 0; i < 100; ++i) {
      const Frame& f = frames[static_cast<size_t>(i)];
      if (i % 3 == 0) {
        EXPECT_EQ(f.tag, SpillTag::kPartial);
        EXPECT_EQ(f.bytes, std::vector<uint8_t>(24, static_cast<uint8_t>(i)));
      } else {
        EXPECT_EQ(f.tag, SpillTag::kRaw);
        EXPECT_EQ(f.bytes, std::vector<uint8_t>(16, static_cast<uint8_t>(i)));
      }
    }
    EXPECT_EQ(pages_read, w.num_pages());
  }
}

TEST_F(SpillFileTest, RunsStopAtTagChangesPageEndsAndTheCap) {
  // 256-byte pages hold 28 frames of 1+8 bytes: 40 raw, 5 partial, 40 raw
  // frames make runs 28 | 12, 5, 11 | 28, 1 split by pages and tags.
  SpillWriter w = MakeWriter(8, 8);
  int64_t v = 0;
  auto append = [&](SpillTag tag, int n) {
    for (int i = 0; i < n; ++i, ++v) {
      ASSERT_TRUE(w.Append(tag, reinterpret_cast<uint8_t*>(&v)).ok());
    }
  };
  append(SpillTag::kRaw, 40);
  append(SpillTag::kPartial, 5);
  append(SpillTag::kRaw, 40);
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_EQ(w.num_pages(), 4);

  auto run_counts = [&](int max_frames) {
    SpillReader reader(&w);
    std::vector<int> counts;
    SpillRun run;
    int64_t expect = 0;
    while (reader.NextRun(max_frames, &run)) {
      counts.push_back(run.count);
      for (int i = 0; i < run.count; ++i, ++expect) {
        int64_t got;
        std::memcpy(&got, run.records + static_cast<size_t>(i) * run.stride,
                    8);
        EXPECT_EQ(got, expect);
      }
    }
    EXPECT_TRUE(reader.status().ok());
    EXPECT_EQ(expect, 85);
    return counts;
  };
  EXPECT_EQ(run_counts(128), (std::vector<int>{28, 12, 5, 11, 28, 1}));
  EXPECT_EQ(run_counts(10),
            (std::vector<int>{10, 10, 8, 10, 2, 5, 10, 1, 10, 10, 8, 1}));
}

TEST_F(SpillFileTest, CorruptedPageIsDataLoss) {
  // 48 frames: a full (unsigned) first page of 28, then a signed page of
  // 20 whose torn write zeroes its second half — frames and CRC word. The
  // reader must refuse that page rather than decode it.
  TornWriteDisk disk(256);
  disk.TearWrite(1);
  auto made = SpillWriter::Create(&disk, "spill", 8, 8);
  ASSERT_TRUE(made.ok());
  SpillWriter w = std::move(made).value();
  for (int64_t v = 0; v < 48; ++v) {
    ASSERT_TRUE(w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  }
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_EQ(w.num_pages(), 2);

  SpillReader reader(&w);
  SpillRun run;
  int64_t frames = 0;
  while (reader.NextRun(128, &run)) frames += run.count;
  EXPECT_EQ(frames, 28);  // the intact first page only
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reader.status().message().find("spill page 1"),
            std::string::npos)
      << reader.status().ToString();
  EXPECT_FALSE(reader.NextRun(128, &run));  // the error is sticky
}

TEST_F(SpillFileTest, InjectedReadFaultIsTheReadersStatus) {
  FaultySimDisk disk(256);
  auto made = SpillWriter::Create(&disk, "spill", 8, 8);
  ASSERT_TRUE(made.ok());
  SpillWriter w = std::move(made).value();
  for (int64_t v = 0; v < 3 * 28; ++v) {  // three full pages of 28
    ASSERT_TRUE(w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  }
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_EQ(w.num_pages(), 3);
  disk.FailReadsAfter(1);

  SpillReader reader(&w);
  SpillRun run;
  int64_t frames = 0;
  while (reader.NextRun(128, &run)) frames += run.count;
  EXPECT_EQ(frames, 28);
  EXPECT_EQ(reader.pages_read(), 1);
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
  EXPECT_EQ(reader.status().message(), "injected read fault");
}

/// A SimDisk whose reads return every page with its frame-count word
/// overwritten: an unsigned header claiming far more frames than fit.
class HeaderCorruptingDisk : public SimDisk {
 public:
  using SimDisk::SimDisk;

 protected:
  Result<const uint8_t*> ReadPageUncounted(
      FileId file, int64_t index, std::vector<uint8_t>& scratch) override {
    ADAPTAGG_ASSIGN_OR_RETURN(const uint8_t* page,
                              SimDisk::ReadPageUncounted(file, index, scratch));
    // The stored page stays intact; the damaged copy is what is read.
    scratch.assign(page, page + page_size());
    const uint32_t frames = 0xFFFF;
    std::memcpy(scratch.data(), &frames, sizeof(frames));
    return static_cast<const uint8_t*>(scratch.data());
  }
};

TEST_F(SpillFileTest, MalformedUnsignedPageIsDataLoss) {
  // An unsigned page has no CRC to catch a damaged header; the reader
  // must still stop at the page end instead of reading past it.
  HeaderCorruptingDisk disk(256);
  auto made = SpillWriter::Create(&disk, "spill", 8, 8);
  ASSERT_TRUE(made.ok());
  SpillWriter w = std::move(made).value();
  for (int64_t v = 0; v < 28; ++v) {  // exactly one full, unsigned page
    ASSERT_TRUE(w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  }
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_EQ(w.num_pages(), 1);

  SpillReader reader(&w);
  SpillRun run;
  int64_t frames = 0;
  while (reader.NextRun(128, &run)) frames += run.count;
  EXPECT_EQ(frames, 28);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reader.status().message().find("malformed"), std::string::npos)
      << reader.status().ToString();
}

TEST_F(SpillFileTest, EmptySpill) {
  SpillWriter w = MakeWriter(8, 8);
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_pages(), 0);
  SpillReader reader(&w);
  SpillRun run;
  EXPECT_FALSE(reader.NextRun(128, &run));
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.pages_read(), 0);
}

TEST_F(SpillFileTest, FlushMidStreamPreservesOrder) {
  SpillWriter w = MakeWriter(8, 8);
  int64_t v = 1;
  ASSERT_TRUE(w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  ASSERT_TRUE(w.Flush().ok());
  v = 2;
  ASSERT_TRUE(w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_pages(), 2);

  // Each page holds one record, so each is a run of its own.
  SpillReader reader(&w);
  SpillRun run;
  int64_t out;
  ASSERT_TRUE(reader.NextRun(128, &run));
  ASSERT_EQ(run.count, 1);
  std::memcpy(&out, run.records, 8);
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(reader.NextRun(128, &run));
  ASSERT_EQ(run.count, 1);
  std::memcpy(&out, run.records, 8);
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(reader.NextRun(128, &run));
  EXPECT_TRUE(reader.status().ok());
}

TEST_F(SpillFileTest, DoubleFlushNoEmptyPage) {
  SpillWriter w = MakeWriter(8, 8);
  int64_t v = 1;
  ASSERT_TRUE(w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_pages(), 1);
}

TEST_F(SpillFileTest, DropReleasesFile) {
  SpillWriter w = MakeWriter(8, 8);
  int64_t v = 9;
  ASSERT_TRUE(w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_TRUE(w.Drop().ok());
  std::vector<uint8_t> page;
  EXPECT_FALSE(disk_.ReadPage(w.file_id(), 0, page).ok());
}

TEST_F(SpillFileTest, PagePackingRespectsFrameOverhead) {
  // 256-byte pages, 4-byte header, frames of 1+8 bytes -> 28 per page.
  SpillWriter w = MakeWriter(8, 0);
  int64_t v = 0;
  for (int i = 0; i < 28; ++i) {
    ASSERT_TRUE(
        w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  }
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_pages(), 1);
  ASSERT_TRUE(
      w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_pages(), 2);
}

}  // namespace
}  // namespace adaptagg
