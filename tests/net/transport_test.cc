#include "net/transport.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

namespace adaptagg {
namespace {

Message Make(MessageType type, uint32_t phase, std::vector<uint8_t> payload) {
  Message m;
  m.type = type;
  m.phase = phase;
  m.payload = std::move(payload);
  return m;
}

TEST(InprocTransport, MeshDelivery) {
  auto mesh = MakeInprocMesh(3);
  ASSERT_EQ(mesh.size(), 3u);
  EXPECT_EQ(mesh[1]->node_id(), 1);
  EXPECT_EQ(mesh[1]->num_nodes(), 3);

  ASSERT_TRUE(
      mesh[0]->Send(2, Make(MessageType::kRawPage, 1, {1, 2, 3})).ok());
  auto m = mesh[2]->Recv();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->from, 0);
  EXPECT_EQ(m->payload.size(), 3u);
}

TEST(InprocTransport, SelfSend) {
  auto mesh = MakeInprocMesh(2);
  ASSERT_TRUE(
      mesh[1]->Send(1, Make(MessageType::kControl, 0, {7})).ok());
  auto m = mesh[1]->TryRecv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->from, 1);
}

TEST(InprocTransport, TryRecvEmptyAndBadDest) {
  auto mesh = MakeInprocMesh(2);
  EXPECT_FALSE(mesh[0]->TryRecv().has_value());
  EXPECT_FALSE(mesh[0]->Send(5, Make(MessageType::kControl, 0, {})).ok());
  EXPECT_FALSE(mesh[0]->Send(-1, Make(MessageType::kControl, 0, {})).ok());
}

TEST(InprocTransport, PairwiseOrderPreserved) {
  auto mesh = MakeInprocMesh(2);
  for (uint8_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        mesh[0]->Send(1, Make(MessageType::kRawPage, 1, {i})).ok());
  }
  for (uint8_t i = 0; i < 100; ++i) {
    auto m = mesh[1]->Recv();
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->payload[0], i);
  }
}

TEST(TcpTransport, MeshRoundtrip) {
  auto mesh_or = MakeTcpMesh(3, 42900);
  ASSERT_TRUE(mesh_or.ok()) << mesh_or.status().ToString();
  auto& mesh = *mesh_or;

  // Every ordered pair exchanges one tagged message.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      uint8_t tag = static_cast<uint8_t>(i * 3 + j);
      ASSERT_TRUE(mesh[static_cast<size_t>(i)]
                      ->Send(j, Make(MessageType::kRawPage, 1, {tag}))
                      .ok());
    }
  }
  for (int j = 0; j < 3; ++j) {
    int got = 0;
    bool from_seen[3] = {};
    while (got < 3) {
      auto m = mesh[static_cast<size_t>(j)]->Recv();
      ASSERT_TRUE(m.ok());
      EXPECT_EQ(m->payload[0], m->from * 3 + j);
      from_seen[m->from] = true;
      ++got;
    }
    EXPECT_TRUE(from_seen[0] && from_seen[1] && from_seen[2]);
  }
}

TEST(TcpTransport, LargePayloadSurvivesFraming) {
  auto mesh_or = MakeTcpMesh(2, 42950);
  ASSERT_TRUE(mesh_or.ok()) << mesh_or.status().ToString();
  auto& mesh = *mesh_or;
  std::vector<uint8_t> big(64 * 1024);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(
      mesh[0]->Send(1, Make(MessageType::kPartialPage, 2, big)).ok());
  auto m = mesh[1]->Recv();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->payload, big);
  EXPECT_EQ(m->phase, 2u);
}

TEST(TcpTransport, ConcurrentSendersToOneReceiver) {
  auto mesh_or = MakeTcpMesh(3, 43000);
  ASSERT_TRUE(mesh_or.ok()) << mesh_or.status().ToString();
  auto& mesh = *mesh_or;
  constexpr int kEach = 200;
  std::thread s1([&] {
    for (int i = 0; i < kEach; ++i) {
      ASSERT_TRUE(
          mesh[1]->Send(0, Make(MessageType::kRawPage, 1, {1})).ok());
    }
  });
  std::thread s2([&] {
    for (int i = 0; i < kEach; ++i) {
      ASSERT_TRUE(
          mesh[2]->Send(0, Make(MessageType::kRawPage, 1, {2})).ok());
    }
  });
  int counts[3] = {};
  for (int i = 0; i < 2 * kEach; ++i) {
    auto m = mesh[0]->Recv();
    ASSERT_TRUE(m.ok());
    ++counts[m->from];
  }
  s1.join();
  s2.join();
  EXPECT_EQ(counts[1], kEach);
  EXPECT_EQ(counts[2], kEach);
}

// Fail-stop contract, shared by every substrate: node 0's pages arrive
// in order, then exactly one kPeerClosed from node 0, then nothing (the
// sends after the close are swallowed).
void ExpectOneCloseBehindData(std::vector<std::unique_ptr<Transport>>& mesh) {
  constexpr uint8_t kPages = 50;
  for (uint8_t i = 0; i < kPages; ++i) {
    for (int to : {1, 2}) {
      ASSERT_TRUE(
          mesh[0]->Send(to, Make(MessageType::kRawPage, 1, {i})).ok());
    }
  }
  mesh[0]->SimulateFailStop();
  mesh[0]->SimulateFailStop();  // idempotent: still one notice
  ASSERT_TRUE(mesh[0]->Send(1, Make(MessageType::kRawPage, 1, {99})).ok());
  for (size_t peer : {size_t{1}, size_t{2}}) {
    for (uint8_t i = 0; i < kPages; ++i) {
      auto m = mesh[peer]->RecvWithDeadline(5.0);
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      ASSERT_EQ(m->type, MessageType::kRawPage);
      EXPECT_EQ(m->payload[0], i);
    }
    auto closed = mesh[peer]->RecvWithDeadline(5.0);
    ASSERT_TRUE(closed.ok()) << closed.status().ToString();
    EXPECT_EQ(closed->type, MessageType::kPeerClosed);
    EXPECT_EQ(closed->from, 0);
    EXPECT_FALSE(mesh[peer]->RecvWithDeadline(0.1).ok());
  }
  // The crashed node hears no close of its own.
  EXPECT_FALSE(mesh[0]->TryRecv().has_value());
}

TEST(InprocTransport, FailStopDeliversOneCloseBehindData) {
  auto mesh = MakeInprocMesh(3);
  ExpectOneCloseBehindData(mesh);
}

TEST(TcpTransport, FailStopDeliversOneCloseBehindData) {
  auto mesh_or = MakeTcpMesh(3, 44400);
  ASSERT_TRUE(mesh_or.ok()) << mesh_or.status().ToString();
  ExpectOneCloseBehindData(*mesh_or);
}

TEST(TcpTransport, PeerTeardownDeliversClose) {
  auto mesh_or = MakeTcpMesh(2, 44450);
  ASSERT_TRUE(mesh_or.ok()) << mesh_or.status().ToString();
  auto& mesh = *mesh_or;
  // Node 0's destructor closes its sockets: node 1 sees the EOF.
  mesh[0].reset();
  auto closed = mesh[1]->RecvWithDeadline(5.0);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed->type, MessageType::kPeerClosed);
  EXPECT_EQ(closed->from, 0);
  EXPECT_FALSE(mesh[1]->RecvWithDeadline(0.1).ok());
}

}  // namespace
}  // namespace adaptagg
