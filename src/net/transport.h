#ifndef ADAPTAGG_NET_TRANSPORT_H_
#define ADAPTAGG_NET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/message.h"

namespace adaptagg {

/// One node's endpoint of the cluster interconnect. Implementations:
/// InprocTransport (shared-memory channels; the default substrate) and
/// TcpTransport (real loopback sockets, full mesh). Nodes may send to
/// themselves; delivery between a given pair of nodes is in order.
///
/// Send is callable from the owning node's thread; Recv/TryRecv only from
/// the owning node's thread.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int node_id() const = 0;
  virtual int num_nodes() const = 0;

  /// Enqueues `msg` for node `to`. Never blocks on the receiver.
  virtual Status Send(int to, Message msg) = 0;

  /// Blocks until a message arrives.
  virtual Result<Message> Recv() = 0;

  /// Blocks until a message arrives or `timeout_s` seconds elapse, in
  /// which case it returns kDeadlineExceeded. A negative timeout blocks
  /// forever. Engine code above the transport layer must use this (or
  /// TryRecv) instead of Recv, so a lost message can never hang a run.
  virtual Result<Message> RecvWithDeadline(double timeout_s) = 0;

  /// Non-blocking receive.
  virtual std::optional<Message> TryRecv() = 0;

  /// Deepest this node's inbox has ever been (backlog high-water mark).
  /// Transports without inbox visibility report 0.
  virtual size_t inbox_high_water() const { return 0; }

  /// Inbound frames this endpoint rejected as corrupt or malformed
  /// (checksum mismatch, bad type). Always 0 for in-process transports.
  virtual uint64_t frames_rejected() const { return 0; }

  /// Crashes the endpoint the way a dying process does: every later Send
  /// is silently swallowed, and the endpoint closes, so each peer's
  /// endpoint delivers exactly one local MessageType::kPeerClosed with
  /// `from` = this node, after everything this node already sent. The
  /// dead node cannot say why it died, but its peers learn *that* it
  /// died at transport speed. (A SessionRouter endpoint pushes the
  /// notice straight into the session's inboxes, so it can overtake
  /// frames still crossing the shared mesh; the attempt is over either
  /// way.) Idempotent.
  virtual void SimulateFailStop() {}

  /// Hangs the endpoint: every later Send is silently swallowed but the
  /// endpoint stays open, so peers learn nothing until their silence
  /// detection fires. Only FaultyTransport, which wraps every endpoint of
  /// a run with a fault plan, implements it.
  virtual void SimulateHang() {}
};

/// Creates an in-process mesh of `n` transports sharing channels.
std::vector<std::unique_ptr<Transport>> MakeInprocMesh(int n);

/// Creates a TCP loopback mesh of `n` transports. Every pair of nodes is
/// connected through 127.0.0.1 sockets; background reader threads feed
/// each node's inbox. `base_port` must leave `n` consecutive free ports.
Result<std::vector<std::unique_ptr<Transport>>> MakeTcpMesh(int n,
                                                            int base_port);

}  // namespace adaptagg

#endif  // ADAPTAGG_NET_TRANSPORT_H_
