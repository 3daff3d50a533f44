#include "net/session_router.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace adaptagg {
namespace {

Message MakeFrame(MessageType type, const std::string& payload) {
  Message msg;
  msg.type = type;
  msg.seq = 1;
  msg.payload.assign(payload.begin(), payload.end());
  return msg;
}

std::string PayloadOf(const Message& msg) {
  return std::string(msg.payload.begin(), msg.payload.end());
}

TEST(SessionRouter, RejectsReservedAndDuplicateIds) {
  SessionRouter router(MakeInprocMesh(2));
  EXPECT_FALSE(router.OpenSession(0).ok());
  ASSERT_OK_AND_ASSIGN(auto first, router.OpenSession(7));
  EXPECT_FALSE(router.OpenSession(7).ok());
  router.CloseSession(7);
  // A closed id is free again (ids are not reused by the service, but
  // the router itself only cares about currently-open sessions).
  EXPECT_TRUE(router.OpenSession(7).ok());
}

TEST(SessionRouter, ConcurrentSessionsNeverCrossTalk) {
  SessionRouter router(MakeInprocMesh(2));
  ASSERT_OK_AND_ASSIGN(auto a, router.OpenSession(7));
  ASSERT_OK_AND_ASSIGN(auto b, router.OpenSession(8));

  // Both sessions send node0 → node1 on the shared physical mesh.
  ASSERT_OK(a[0]->Send(1, MakeFrame(MessageType::kControl, "session-7")));
  ASSERT_OK(b[0]->Send(1, MakeFrame(MessageType::kControl, "session-8")));

  // Each session's node-1 endpoint sees exactly its own frame, tagged
  // with its own query id.
  ASSERT_OK_AND_ASSIGN(Message ma, a[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(ma.query_id, 7u);
  EXPECT_EQ(PayloadOf(ma), "session-7");
  EXPECT_EQ(ma.from, 0);

  ASSERT_OK_AND_ASSIGN(Message mb, b[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(mb.query_id, 8u);
  EXPECT_EQ(PayloadOf(mb), "session-8");

  // Nothing else arrives on either inbox.
  EXPECT_FALSE(a[1]->TryRecv().has_value());
  EXPECT_FALSE(b[1]->TryRecv().has_value());
}

TEST(SessionRouter, HeartbeatsAreSharedAcrossSessions) {
  SessionRouter router(MakeInprocMesh(2));
  ASSERT_OK_AND_ASSIGN(auto a, router.OpenSession(7));
  ASSERT_OK_AND_ASSIGN(auto b, router.OpenSession(8));

  ASSERT_OK(a[0]->Send(1, MakeFrame(MessageType::kHeartbeat, "")));

  // The owning session receives the sequenced original...
  ASSERT_OK_AND_ASSIGN(Message orig, a[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(orig.type, MessageType::kHeartbeat);
  EXPECT_EQ(orig.query_id, 7u);
  EXPECT_EQ(orig.seq, 1u);

  // ...and the co-resident session an unsequenced (seq=0) copy, which
  // is what lets one session's beacons feed every neighbor's failure
  // detector.
  ASSERT_OK_AND_ASSIGN(Message copy, b[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(copy.type, MessageType::kHeartbeat);
  EXPECT_EQ(copy.seq, 0u);
  EXPECT_EQ(copy.from, 0);
  EXPECT_GE(router.heartbeats_shared(), 1u);

  // Data frames are never fanned out this way.
  ASSERT_OK(a[0]->Send(1, MakeFrame(MessageType::kControl, "data")));
  ASSERT_OK_AND_ASSIGN(Message data, a[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(PayloadOf(data), "data");
  EXPECT_FALSE(b[1]->TryRecv().has_value());
}

TEST(SessionRouter, LateFramesAreDroppedAndCounted) {
  SessionRouter router(MakeInprocMesh(2));
  ASSERT_OK_AND_ASSIGN(auto a, router.OpenSession(7));
  router.CloseSession(7);

  // The endpoint outlives CloseSession; its traffic still reaches the
  // physical mesh but no longer has a registered inbox.
  ASSERT_OK(a[0]->Send(1, MakeFrame(MessageType::kControl, "late")));
  for (int i = 0; i < 200 && router.late_frames_dropped() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(router.late_frames_dropped(), 1u);
  EXPECT_FALSE(a[1]->TryRecv().has_value());
}

TEST(SessionRouter, ClosedSessionFramesNeverReachItsReplay) {
  // A served replay runs under a fresh wire id on the same mesh: the
  // crashed attempt's session closes, the replay's opens, and whatever
  // the crashed attempt still sends must never reach the replay.
  SessionRouter router(MakeInprocMesh(2));
  ASSERT_OK_AND_ASSIGN(auto crashed, router.OpenSession(7));
  router.CloseSession(7);
  ASSERT_OK_AND_ASSIGN(auto replay, router.OpenSession(8));

  // A late data frame and a late heartbeat from the crashed attempt. A
  // live session's heartbeat is fanned out to its neighbors; a closed
  // session's must not be.
  ASSERT_OK(crashed[0]->Send(1, MakeFrame(MessageType::kPartialPage, "old")));
  ASSERT_OK(crashed[0]->Send(1, MakeFrame(MessageType::kHeartbeat, "")));
  for (int i = 0; i < 200 && router.late_frames_dropped() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(router.late_frames_dropped(), 2u);
  EXPECT_EQ(router.heartbeats_shared(), 0u);
  EXPECT_FALSE(replay[0]->TryRecv().has_value());
  EXPECT_FALSE(replay[1]->TryRecv().has_value());

  // The replay's own traffic is delivered.
  ASSERT_OK(replay[0]->Send(1, MakeFrame(MessageType::kPartialPage, "new")));
  ASSERT_OK_AND_ASSIGN(Message got, replay[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(got.query_id, 8u);
  EXPECT_EQ(PayloadOf(got), "new");
  EXPECT_FALSE(replay[1]->TryRecv().has_value());
  EXPECT_EQ(router.late_frames_dropped(), 2u);
}

TEST(SessionRouter, FailStopIsPerSessionEndpoint) {
  SessionRouter router(MakeInprocMesh(2));
  ASSERT_OK_AND_ASSIGN(auto a, router.OpenSession(7));
  ASSERT_OK_AND_ASSIGN(auto b, router.OpenSession(8));

  a[0]->SimulateFailStop();
  // The dead endpoint swallows sends; its session peer gets exactly one
  // close notice and nothing sent after it...
  ASSERT_OK(a[0]->Send(1, MakeFrame(MessageType::kControl, "never")));
  ASSERT_OK_AND_ASSIGN(Message closed, a[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(closed.type, MessageType::kPeerClosed);
  EXPECT_EQ(closed.from, 0);
  // ...while the co-resident session on the same physical node is
  // unaffected and sees no close.
  ASSERT_OK(b[0]->Send(1, MakeFrame(MessageType::kControl, "alive")));
  ASSERT_OK_AND_ASSIGN(Message mb, b[1]->RecvWithDeadline(5.0));
  EXPECT_EQ(PayloadOf(mb), "alive");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(a[1]->TryRecv().has_value());
  EXPECT_FALSE(b[1]->TryRecv().has_value());
  EXPECT_FALSE(b[0]->TryRecv().has_value());
}

TEST(SessionRouter, StopJoinsDemuxThreadsIdempotently) {
  SessionRouter router(MakeInprocMesh(3));
  EXPECT_EQ(router.num_nodes(), 3);
  for (int i = 0; i < 200 && router.alive_demux_threads() != 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(router.alive_demux_threads(), 3);
  router.Stop();
  EXPECT_EQ(router.alive_demux_threads(), 0);
  router.Stop();  // idempotent
  EXPECT_EQ(router.alive_demux_threads(), 0);
}

}  // namespace
}  // namespace adaptagg
