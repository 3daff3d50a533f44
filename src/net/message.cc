#include "net/message.h"

#include <cstring>

#include "common/crc32c.h"

namespace adaptagg {

std::string MessageTypeToString(MessageType type) {
  switch (type) {
    case MessageType::kRawPage:
      return "raw-page";
    case MessageType::kPartialPage:
      return "partial-page";
    case MessageType::kEndOfStream:
      return "eos";
    case MessageType::kEndOfPhase:
      return "end-of-phase";
    case MessageType::kControl:
      return "control";
    case MessageType::kAbort:
      return "abort";
    case MessageType::kHeartbeat:
      return "heartbeat";
    case MessageType::kPeerClosed:
      return "peer-closed";
  }
  return "?";
}

Message PeerClosedNotice(int32_t from) {
  Message notice;
  notice.type = MessageType::kPeerClosed;
  notice.from = from;
  return notice;
}

std::vector<uint8_t> Message::Serialize() const {
  std::vector<uint8_t> out(4 + kHeaderBytes + payload.size());
  uint32_t total = static_cast<uint32_t>(kHeaderBytes + payload.size());
  size_t off = 0;
  std::memcpy(out.data() + off, &total, 4);
  off += 4;
  const size_t crc_off = off;  // filled in last, over what follows it
  off += 4;
  out[off++] = static_cast<uint8_t>(type);
  std::memcpy(out.data() + off, &from, 4);
  off += 4;
  std::memcpy(out.data() + off, &phase, 4);
  off += 4;
  std::memcpy(out.data() + off, &depart_time, 8);
  off += 8;
  std::memcpy(out.data() + off, &seq, 8);
  off += 8;
  std::memcpy(out.data() + off, &charged_bytes, 4);
  off += 4;
  std::memcpy(out.data() + off, &query_id, 4);
  off += 4;
  std::memcpy(out.data() + off, &page_seq, 8);
  off += 8;
  if (!payload.empty()) {
    std::memcpy(out.data() + off, payload.data(), payload.size());
    off += payload.size();
  }
  uint32_t crc = Crc32c(0, out.data() + crc_off + 4, off - crc_off - 4);
  std::memcpy(out.data() + crc_off, &crc, 4);
  return out;
}

Result<Message> Message::Deserialize(const uint8_t* data, size_t len) {
  if (len < kHeaderBytes) {
    return Status::InvalidArgument("message frame too short: " +
                                   std::to_string(len));
  }
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("message frame too long: " +
                                   std::to_string(len));
  }
  size_t off = 0;
  uint32_t stored_crc;
  std::memcpy(&stored_crc, data + off, 4);
  off += 4;
  const uint32_t actual_crc = Crc32c(0, data + off, len - off);
  if (stored_crc != actual_crc) {
    return Status::NetworkError("message frame checksum mismatch");
  }
  Message m;
  uint8_t t = data[off++];
  if (t > static_cast<uint8_t>(kLastWireType)) {
    return Status::InvalidArgument("bad message type " + std::to_string(t));
  }
  m.type = static_cast<MessageType>(t);
  std::memcpy(&m.from, data + off, 4);
  off += 4;
  std::memcpy(&m.phase, data + off, 4);
  off += 4;
  std::memcpy(&m.depart_time, data + off, 8);
  off += 8;
  std::memcpy(&m.seq, data + off, 8);
  off += 8;
  std::memcpy(&m.charged_bytes, data + off, 4);
  off += 4;
  std::memcpy(&m.query_id, data + off, 4);
  off += 4;
  std::memcpy(&m.page_seq, data + off, 8);
  off += 8;
  m.payload.assign(data + off, data + len);
  return m;
}

}  // namespace adaptagg
