#ifndef ADAPTAGG_NET_MESSAGE_H_
#define ADAPTAGG_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace adaptagg {

/// Kinds of inter-node messages exchanged by the aggregation algorithms.
enum class MessageType : uint8_t {
  /// A page of projected raw tuples (Repartitioning traffic).
  kRawPage = 0,
  /// A page of partial-aggregate records (two-phase traffic).
  kPartialPage = 1,
  /// The sender will send no more data in this phase.
  kEndOfStream = 2,
  /// Adaptive Repartitioning's "end-of-phase" switch signal (§3.3).
  kEndOfPhase = 3,
  /// Small control payloads (e.g. the Sampling algorithm's decision).
  kControl = 4,
  /// A node hit an unrecoverable error; peers must stop waiting for its
  /// traffic and fail the run. Broadcast by the cluster runtime.
  kAbort = 5,
  /// Liveness beacon emitted by the failure detector while a run is
  /// armed. Swallowed inside NodeContext: algorithms never see it, and
  /// it is free under the network cost model (piggybacked traffic).
  kHeartbeat = 6,
  /// The sender's endpoint closed: its process is gone (a crash).
  /// Synthesized by the receiving endpoint after everything that peer
  /// sent, never serialized: Deserialize rejects this type, so no remote
  /// can forge a close. NodeContext turns it into a run-failing error.
  kPeerClosed = 7,
};

/// Highest type that may travel on the wire (kPeerClosed is local-only).
inline constexpr MessageType kLastWireType = MessageType::kHeartbeat;

std::string MessageTypeToString(MessageType type);

/// Upper bound on one serialized frame (length word excluded): far above
/// any message-page size the engine produces, far below what a corrupt
/// length prefix could demand. Enforced by Deserialize and by the TCP
/// reader before it trusts a length prefix.
inline constexpr uint32_t kMaxFrameBytes = 64u * 1024 * 1024;

/// Fixed bytes of one frame after the length word: crc32c + type + from +
/// phase + depart + seq + charged_bytes + query_id + page_seq.
inline constexpr size_t kHeaderBytes = 4 + 1 + 4 + 4 + 8 + 8 + 4 + 4 + 8;

/// One network message. `depart_time` carries the sender's simulated
/// clock so receivers preserve causality (a conservative discrete-event
/// rule); it plays no role in correctness. `seq` is the per-(sender,
/// receiver) sequence number stamped by NodeContext::Send — receivers use
/// it to discard duplicates and detect message loss; raw transport users
/// may leave it 0 (validation only runs inside NodeContext).
struct Message {
  MessageType type = MessageType::kControl;
  int32_t from = -1;
  uint32_t phase = 0;
  double depart_time = 0.0;
  uint64_t seq = 0;
  /// Bytes the network cost model charges for this message instead of
  /// payload.size(); 0 means "charge the real payload". The exchange
  /// trims trailing page padding off the wire but stamps the untrimmed
  /// page size here, so the paper's per-page network charge — and with
  /// it every modeled time — is independent of the wire optimization.
  uint32_t charged_bytes = 0;
  /// Serving-layer session tag: which query's exchange instance this frame
  /// belongs to. 0 means "no session" (the one-shot Cluster::Run path).
  /// The session router demultiplexes a shared physical mesh on this id,
  /// so concurrent repartitions never cross-talk, and a replay runs under
  /// a fresh id, so a crashed attempt's late frames are dropped as late
  /// instead of reaching the retry.
  uint32_t query_id = 0;
  /// Deterministic per-(origin, destination) DATA page counter, stamped
  /// by Exchange::SendPage on kRawPage/kPartialPage frames only (1, 2,
  /// ...; 0 on every other frame = "not a data page"). Unlike `seq` —
  /// whose numbering shifts with wall-clock heartbeats — page_seq is a
  /// pure function of the sender's input, so a recovering receiver can
  /// dedupe replayed pages against its checkpointed fold watermark and
  /// keep merges exactly-once.
  uint64_t page_seq = 0;
  std::vector<uint8_t> payload;

  /// Wire encoding for socket transports:
  /// [u32 total_len][u32 crc32c][u8 type][i32 from][u32 phase]
  /// [f64 depart][u64 seq][u32 charged_bytes][u32 query_id][u64 page_seq]
  /// [payload], where the CRC-32C covers everything after the crc word
  /// itself. total_len counts from the crc word on.
  std::vector<uint8_t> Serialize() const;

  /// Parses a frame produced by Serialize() (without the leading length
  /// word, which the transport consumes). Rejects truncated, oversized,
  /// bad-type, and checksum-mismatched frames with a Status — never
  /// asserts, so arbitrary bytes off the wire are safe to feed here.
  static Result<Message> Deserialize(const uint8_t* data, size_t len);
};

/// The local kPeerClosed notice an endpoint delivers when peer `from`'s
/// endpoint closes.
Message PeerClosedNotice(int32_t from);

}  // namespace adaptagg

#endif  // ADAPTAGG_NET_MESSAGE_H_
