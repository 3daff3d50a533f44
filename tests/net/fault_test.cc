#include "net/fault.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <vector>

#include "common/crc32c.h"
#include "net/message.h"
#include "net/transport.h"
#include "test_util.h"

namespace adaptagg {
namespace {

// --- CRC-32C ---

TEST(Crc32c, KnownVector) {
  // The canonical CRC-32C check value: crc("123456789") == 0xE3069283.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32c(0, data, sizeof(data)), 0xE3069283u);
}

TEST(Crc32c, Composable) {
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  uint32_t part = Crc32c(0, data, 4);
  EXPECT_EQ(Crc32c(part, data + 4, 5), 0xE3069283u);
}

TEST(Crc32c, DetectsSingleBitFlip) {
  std::vector<uint8_t> buf(256);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  const uint32_t good = Crc32c(0, buf.data(), buf.size());
  for (size_t byte : {size_t{0}, buf.size() / 2, buf.size() - 1}) {
    buf[byte] ^= 0x10;
    EXPECT_NE(Crc32c(0, buf.data(), buf.size()), good);
    buf[byte] ^= 0x10;
  }
}

// The textbook byte-at-a-time CRC-32C, the reference the production
// slice-by-8 loop must match bit for bit.
uint32_t BytewiseCrc32c(uint32_t crc, const uint8_t* data, size_t len) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? (c >> 1) ^ 0x82F63B78u : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

TEST(Crc32c, SliceBy8MatchesBytewiseTable) {
  // Every length up to a page at every start alignment, so the 8-byte
  // main loop, the tail loop and all their seams are each exercised.
  std::vector<uint8_t> buf(4096 + 8);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(0, p, len), BytewiseCrc32c(0, p, len))
          << "offset " << offset << " len " << len;
    }
  }
  // Composability across split points that straddle 8-byte blocks.
  const uint32_t whole = BytewiseCrc32c(0, buf.data(), 4096);
  for (size_t split : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{1000}, size_t{4095}}) {
    const uint32_t head = Crc32c(0, buf.data(), split);
    EXPECT_EQ(Crc32c(head, buf.data() + split, 4096 - split), whole)
        << "split " << split;
  }
}

// --- FaultPlan parsing ---

TEST(FaultPlan, ParsesFullGrammar) {
  ASSERT_OK_AND_ASSIGN(
      FaultPlan plan,
      FaultPlan::Parse("drop:from=1,to=2,nth=0;crash:node=2,tuple=5000;"
                       "straggle:node=3,factor=4;hang:node=1,phase=merge;"
                       "seed=7"));
  ASSERT_EQ(plan.faults.size(), 4u);
  EXPECT_EQ(plan.seed, 7u);

  EXPECT_EQ(plan.faults[0].kind, FaultKind::kDrop);
  EXPECT_EQ(plan.faults[0].from, 1);
  EXPECT_EQ(plan.faults[0].to, 2);
  EXPECT_EQ(plan.faults[0].nth, 0);

  EXPECT_EQ(plan.faults[1].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.faults[1].node, 2);
  EXPECT_EQ(plan.faults[1].tuple, 5000);

  EXPECT_EQ(plan.faults[2].kind, FaultKind::kStraggle);
  EXPECT_EQ(plan.faults[2].node, 3);
  EXPECT_DOUBLE_EQ(plan.faults[2].secs, 0.004);

  EXPECT_EQ(plan.faults[3].kind, FaultKind::kHang);
  EXPECT_EQ(plan.faults[3].node, 1);
  EXPECT_EQ(plan.faults[3].phase, "merge");

  const FaultSpec* crash = plan.CrashForNode(2);
  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(crash->tuple, 5000);
  EXPECT_EQ(plan.CrashForNode(0), nullptr);
  // A hang stops its node just as a crash does.
  ASSERT_NE(plan.CrashForNode(1), nullptr);
  EXPECT_EQ(plan.CrashForNode(1)->kind, FaultKind::kHang);
  EXPECT_DOUBLE_EQ(plan.StraggleSecsForNode(3), 0.004);
  EXPECT_DOUBLE_EQ(plan.StraggleSecsForNode(1), 0);
}

TEST(FaultPlan, ToStringRoundTrips) {
  const std::string text =
      "drop:from=1,to=2,nth=0;dup:nth=-1;crash:node=2,phase=merge;"
      "hang:node=1,tuple=300;seed=9";
  ASSERT_OK_AND_ASSIGN(FaultPlan plan, FaultPlan::Parse(text));
  ASSERT_OK_AND_ASSIGN(FaultPlan again, FaultPlan::Parse(plan.ToString()));
  EXPECT_EQ(again.ToString(), plan.ToString());
  ASSERT_EQ(again.faults.size(), plan.faults.size());
  EXPECT_EQ(again.seed, 9u);
  EXPECT_EQ(again.faults[2].phase, "merge");
  EXPECT_EQ(again.faults[3].kind, FaultKind::kHang);
  EXPECT_EQ(again.faults[3].tuple, 300);
}

TEST(FaultPlan, EmptyTextIsEmptyPlan) {
  ASSERT_OK_AND_ASSIGN(FaultPlan plan, FaultPlan::Parse(""));
  EXPECT_TRUE(plan.empty());
  ASSERT_OK_AND_ASSIGN(plan, FaultPlan::Parse(" ; ; "));
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, RejectsMalformedClauses) {
  EXPECT_FALSE(FaultPlan::Parse("explode:node=1").ok());
  EXPECT_FALSE(FaultPlan::Parse("drop").ok());
  EXPECT_FALSE(FaultPlan::Parse("drop:banana").ok());
  EXPECT_FALSE(FaultPlan::Parse("drop:from=abc").ok());
  EXPECT_FALSE(FaultPlan::Parse("drop:color=red").ok());
  EXPECT_FALSE(FaultPlan::Parse("crash:tuple=5").ok());          // no node
  EXPECT_FALSE(FaultPlan::Parse("crash:node=1").ok());  // no trigger
  EXPECT_FALSE(FaultPlan::Parse("hang:node=1").ok());   // no trigger
  EXPECT_FALSE(FaultPlan::Parse("hang:tuple=5").ok());  // no node
  EXPECT_FALSE(FaultPlan::Parse("straggle:node=1").ok());        // no secs
  EXPECT_FALSE(FaultPlan::Parse("delay:from=0,to=1").ok());      // no secs
  EXPECT_FALSE(FaultPlan::Parse("seed=xyz").ok());
}

// --- FaultyTransport over a real inproc mesh ---

Message DataMsg(uint8_t tag) {
  Message m;
  m.type = MessageType::kRawPage;
  m.phase = 1;
  m.payload = {tag};
  return m;
}

TEST(FaultyTransport, DropSwallowsTheNthMatch) {
  ASSERT_OK_AND_ASSIGN(FaultPlan plan,
                       FaultPlan::Parse("drop:from=0,to=1,nth=0"));
  auto mesh = MakeInprocMesh(2);
  std::vector<FaultEvent> events;
  FaultyTransport faulty(std::move(mesh[0]), plan,
                         [&](const FaultEvent& e) { events.push_back(e); });

  ASSERT_OK(faulty.Send(1, DataMsg(1)));  // dropped
  ASSERT_OK(faulty.Send(1, DataMsg(2)));  // delivered
  ASSERT_OK_AND_ASSIGN(Message got, mesh[1]->RecvWithDeadline(5.0));
  ASSERT_EQ(got.payload.size(), 1u);
  EXPECT_EQ(got.payload[0], 2);
  EXPECT_FALSE(mesh[1]->TryRecv().has_value());

  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kDrop);
  EXPECT_EQ(events[0].node, 0);
  EXPECT_EQ(events[0].peer, 1);
}

TEST(FaultyTransport, DuplicateDeliversTwice) {
  ASSERT_OK_AND_ASSIGN(FaultPlan plan,
                       FaultPlan::Parse("dup:from=0,to=1,nth=0"));
  auto mesh = MakeInprocMesh(2);
  FaultyTransport faulty(std::move(mesh[0]), plan);

  ASSERT_OK(faulty.Send(1, DataMsg(7)));
  ASSERT_OK_AND_ASSIGN(Message first, mesh[1]->RecvWithDeadline(5.0));
  ASSERT_OK_AND_ASSIGN(Message second, mesh[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(first.payload, second.payload);
  EXPECT_FALSE(mesh[1]->TryRecv().has_value());
}

TEST(FaultyTransport, DelaySleepsButDelivers) {
  ASSERT_OK_AND_ASSIGN(FaultPlan plan,
                       FaultPlan::Parse("delay:from=0,to=1,nth=0,secs=0.05"));
  auto mesh = MakeInprocMesh(2);
  FaultyTransport faulty(std::move(mesh[0]), plan);

  const auto start = std::chrono::steady_clock::now();
  ASSERT_OK(faulty.Send(1, DataMsg(3)));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 0.04);
  ASSERT_OK_AND_ASSIGN(Message got, mesh[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(got.payload[0], 3);
}

TEST(FaultyTransport, CorruptBecomesADetectableDrop) {
  ASSERT_OK_AND_ASSIGN(FaultPlan plan,
                       FaultPlan::Parse("corrupt:from=0,to=1,nth=0"));
  auto mesh = MakeInprocMesh(2);
  FaultyTransport faulty(std::move(mesh[0]), plan);

  Message big = DataMsg(0);
  big.payload.assign(512, 0xAB);
  ASSERT_OK(faulty.Send(1, std::move(big)));   // CRC rejects the frame
  ASSERT_OK(faulty.Send(1, DataMsg(9)));       // next one is clean
  ASSERT_OK_AND_ASSIGN(Message got, mesh[1]->RecvWithDeadline(5.0));
  ASSERT_EQ(got.payload.size(), 1u);
  EXPECT_EQ(got.payload[0], 9);
  EXPECT_FALSE(mesh[1]->TryRecv().has_value());
}

TEST(FaultyTransport, EveryMatchWhenNthIsMinusOne) {
  ASSERT_OK_AND_ASSIGN(FaultPlan plan,
                       FaultPlan::Parse("drop:from=0,to=1,nth=-1"));
  auto mesh = MakeInprocMesh(2);
  FaultyTransport faulty(std::move(mesh[0]), plan);
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(faulty.Send(1, DataMsg(static_cast<uint8_t>(i))));
  }
  EXPECT_FALSE(mesh[1]->TryRecv().has_value());
}

TEST(FaultyTransport, HeartbeatsAndAbortsAreExempt) {
  // nth=0 would hit the first message — but heartbeats and aborts are
  // neither faulted nor counted, so the beacon passes and the first
  // *data* message is the one dropped.
  ASSERT_OK_AND_ASSIGN(FaultPlan plan,
                       FaultPlan::Parse("drop:from=0,to=1,nth=0"));
  auto mesh = MakeInprocMesh(2);
  FaultyTransport faulty(std::move(mesh[0]), plan);

  Message hb;
  hb.type = MessageType::kHeartbeat;
  ASSERT_OK(faulty.Send(1, std::move(hb)));
  Message abort;
  abort.type = MessageType::kAbort;
  ASSERT_OK(faulty.Send(1, std::move(abort)));
  ASSERT_OK(faulty.Send(1, DataMsg(1)));  // dropped (first eligible)
  ASSERT_OK(faulty.Send(1, DataMsg(2)));

  ASSERT_OK_AND_ASSIGN(Message got1, mesh[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(got1.type, MessageType::kHeartbeat);
  ASSERT_OK_AND_ASSIGN(Message got2, mesh[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(got2.type, MessageType::kAbort);
  ASSERT_OK_AND_ASSIGN(Message got3, mesh[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(got3.payload[0], 2);
}

TEST(FaultyTransport, FailStopSwallowsEverything) {
  FaultPlan plan;  // even an empty plan supports fail-stop
  auto mesh = MakeInprocMesh(2);
  FaultyTransport faulty(std::move(mesh[0]), plan);
  faulty.SimulateFailStop();
  ASSERT_OK(faulty.Send(1, DataMsg(1)));
  Message abort;
  abort.type = MessageType::kAbort;
  ASSERT_OK(faulty.Send(1, std::move(abort)));
  // The peer learns of the close, and of nothing sent after it.
  std::optional<Message> notice = mesh[1]->TryRecv();
  ASSERT_TRUE(notice.has_value());
  EXPECT_EQ(notice->type, MessageType::kPeerClosed);
  EXPECT_EQ(notice->from, 0);
  EXPECT_FALSE(mesh[1]->TryRecv().has_value());
}

TEST(FaultyTransport, HangSwallowsEverythingAndStaysOpen) {
  FaultPlan plan;
  auto mesh = MakeInprocMesh(2);
  FaultyTransport faulty(std::move(mesh[0]), plan);
  faulty.SimulateHang();
  ASSERT_OK(faulty.Send(1, DataMsg(1)));
  // No data and no close notice: the peer hears nothing at all.
  EXPECT_FALSE(mesh[1]->TryRecv().has_value());
}

// --- RecvWithDeadline across substrates ---

TEST(RecvWithDeadline, InprocTimesOutWithDeadlineExceeded) {
  auto mesh = MakeInprocMesh(2);
  const auto start = std::chrono::steady_clock::now();
  Result<Message> got = mesh[0]->RecvWithDeadline(0.05);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed, 0.04);
  EXPECT_LT(elapsed, 5.0);
}

TEST(RecvWithDeadline, TcpTimesOutWithDeadlineExceeded) {
  ASSERT_OK_AND_ASSIGN(auto mesh, MakeTcpMesh(2, 47900));
  Result<Message> got = mesh[1]->RecvWithDeadline(0.05);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);

  // A message sent before the deadline is returned instead.
  ASSERT_OK(mesh[0]->Send(1, DataMsg(5)));
  ASSERT_OK_AND_ASSIGN(Message msg, mesh[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(msg.payload[0], 5);
}

}  // namespace
}  // namespace adaptagg
