#include "net/message.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/crc32c.h"

namespace adaptagg {
namespace {

TEST(Message, SerializeDeserializeRoundtrip) {
  Message m;
  m.type = MessageType::kPartialPage;
  m.from = 5;
  m.phase = 1;
  m.depart_time = 3.25;
  m.payload = {1, 2, 3, 4, 5};

  std::vector<uint8_t> wire = m.Serialize();
  // Frame length prefix.
  uint32_t len;
  std::memcpy(&len, wire.data(), 4);
  EXPECT_EQ(len, wire.size() - 4);

  auto back = Message::Deserialize(wire.data() + 4, wire.size() - 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, MessageType::kPartialPage);
  EXPECT_EQ(back->from, 5);
  EXPECT_EQ(back->phase, 1u);
  EXPECT_DOUBLE_EQ(back->depart_time, 3.25);
  EXPECT_EQ(back->payload, m.payload);
}

TEST(Message, EmptyPayloadRoundtrip) {
  Message m;
  m.type = MessageType::kEndOfStream;
  m.from = 0;
  m.phase = 7;
  std::vector<uint8_t> wire = m.Serialize();
  auto back = Message::Deserialize(wire.data() + 4, wire.size() - 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, MessageType::kEndOfStream);
  EXPECT_TRUE(back->payload.empty());
}

TEST(Message, DeserializeRejectsGarbage) {
  uint8_t tiny[3] = {1, 2, 3};
  EXPECT_FALSE(Message::Deserialize(tiny, 3).ok());

  // Bad type byte.
  Message m;
  m.type = MessageType::kControl;
  std::vector<uint8_t> wire = m.Serialize();
  wire[4] = 200;
  EXPECT_FALSE(
      Message::Deserialize(wire.data() + 4, wire.size() - 4).ok());
}

TEST(Message, TypeNames) {
  EXPECT_EQ(MessageTypeToString(MessageType::kRawPage), "raw-page");
  EXPECT_EQ(MessageTypeToString(MessageType::kEndOfPhase), "end-of-phase");
  EXPECT_EQ(MessageTypeToString(MessageType::kHeartbeat), "heartbeat");
}

TEST(Message, ChargedBytesRoundtrips) {
  // A trimmed exchange page carries fewer wire bytes than the cost model
  // charges; the charged size must survive serialization.
  Message m;
  m.type = MessageType::kRawPage;
  m.payload = {1, 2, 3, 4};
  m.charged_bytes = 2048;
  std::vector<uint8_t> wire = m.Serialize();
  auto back = Message::Deserialize(wire.data() + 4, wire.size() - 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->charged_bytes, 2048u);
  EXPECT_EQ(back->payload, m.payload);

  // Default: 0 = "charge the real payload size".
  Message plain;
  plain.type = MessageType::kControl;
  wire = plain.Serialize();
  back = Message::Deserialize(wire.data() + 4, wire.size() - 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->charged_bytes, 0u);
}

TEST(Message, SequenceNumberRoundtrips) {
  Message m;
  m.type = MessageType::kRawPage;
  m.seq = 0x0123456789ABCDEFull;
  std::vector<uint8_t> wire = m.Serialize();
  auto back = Message::Deserialize(wire.data() + 4, wire.size() - 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->seq, 0x0123456789ABCDEFull);
}

TEST(Message, EpochAndPageSeqRoundtrip) {
  // The session and recovery header fields must survive the wire and
  // default to 0 ("no session" / "not a data page").
  Message m;
  m.type = MessageType::kPartialPage;
  m.query_id = 7;
  m.page_seq = 0xFEDCBA9876543210ull;
  std::vector<uint8_t> wire = m.Serialize();
  auto back = Message::Deserialize(wire.data() + 4, wire.size() - 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->query_id, 7u);
  EXPECT_EQ(back->page_seq, 0xFEDCBA9876543210ull);

  Message plain;
  plain.type = MessageType::kControl;
  wire = plain.Serialize();
  back = Message::Deserialize(wire.data() + 4, wire.size() - 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->query_id, 0u);
  EXPECT_EQ(back->page_seq, 0u);
}

TEST(Message, EveryTruncationIsRejected) {
  Message m;
  m.type = MessageType::kPartialPage;
  m.payload = {9, 8, 7};
  std::vector<uint8_t> wire = m.Serialize();
  // Every prefix shorter than the header is malformed, including zero.
  for (size_t len = 0; len < kHeaderBytes; ++len) {
    EXPECT_FALSE(Message::Deserialize(wire.data() + 4, len).ok())
        << "len=" << len;
  }
}

TEST(Message, OversizedFrameIsRejected) {
  // A frame one byte past the cap must be refused before any parsing:
  // a corrupted length prefix must not turn into a giant allocation.
  std::vector<uint8_t> huge(static_cast<size_t>(kMaxFrameBytes) + 1, 0);
  auto got = Message::Deserialize(huge.data(), huge.size());
  ASSERT_FALSE(got.ok());
}

TEST(Message, BadTypeRejectedEvenWithValidChecksum) {
  Message m;
  m.type = MessageType::kControl;
  std::vector<uint8_t> wire = m.Serialize();
  // Frame layout after the length prefix: [crc][type][...]. Overwrite
  // the type with an out-of-range value and re-sign the frame so the
  // CRC passes — the type check itself must still reject it.
  uint8_t* frame = wire.data() + 4;
  const size_t frame_len = wire.size() - 4;
  frame[4] = 200;
  const uint32_t crc = Crc32c(0, frame + 4, frame_len - 4);
  std::memcpy(frame, &crc, 4);
  auto got = Message::Deserialize(frame, frame_len);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("type"), std::string::npos);
}

TEST(Message, PeerClosedNeverComesOffTheWire) {
  // kPeerClosed is synthesized by a receiving endpoint when a peer's
  // connection ends. A correctly signed frame claiming that type must
  // still be rejected, so no remote can forge another node's close.
  Message m = PeerClosedNotice(2);
  std::vector<uint8_t> wire = m.Serialize();
  uint8_t* frame = wire.data() + 4;
  const size_t frame_len = wire.size() - 4;
  ASSERT_EQ(frame[4], 7);
  auto got = Message::Deserialize(frame, frame_len);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("type"), std::string::npos);
  EXPECT_EQ(MessageTypeToString(MessageType::kPeerClosed), "peer-closed");
}

TEST(Message, CorruptedByteFailsTheChecksum) {
  Message m;
  m.type = MessageType::kRawPage;
  m.from = 3;
  m.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint8_t> wire = m.Serialize();
  // Flip one bit in every post-CRC position in turn; all must be caught.
  for (size_t at = 8; at < wire.size(); ++at) {
    wire[at] ^= 0x01;
    EXPECT_FALSE(
        Message::Deserialize(wire.data() + 4, wire.size() - 4).ok())
        << "at=" << at;
    wire[at] ^= 0x01;
  }
  // Untouched frame still parses (the loop restored every byte).
  EXPECT_TRUE(Message::Deserialize(wire.data() + 4, wire.size() - 4).ok());
}

TEST(Message, RandomFramesNeverCrashTheParser) {
  // Deterministic fuzz: feed pseudo-random junk of assorted sizes; the
  // parser must return an error every time (a random 32-bit checksum
  // match is ~2^-32) and never crash or over-read.
  uint64_t state = 0x853C49E6748FEA9Bull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint8_t>(state >> 33);
  };
  for (int round = 0; round < 500; ++round) {
    std::vector<uint8_t> frame(kHeaderBytes + (round % 97));
    for (uint8_t& b : frame) b = next();
    EXPECT_FALSE(Message::Deserialize(frame.data(), frame.size()).ok());
  }
}

}  // namespace
}  // namespace adaptagg
