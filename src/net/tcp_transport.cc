#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "common/logging.h"
#include "net/channel.h"
#include "net/transport.h"

namespace adaptagg {
namespace {

Status ReadFully(int fd, uint8_t* buf, size_t len) {
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, buf + got, len - got, 0);
    if (n == 0) return Status::NetworkError("peer closed");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::NetworkError(std::string("recv: ") +
                                  std::strerror(errno));
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteFully(int fd, const uint8_t* buf, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::NetworkError(std::string("send: ") +
                                  std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// One node's endpoint of a TCP loopback mesh. Owns n-1 outgoing sockets
/// and n-1 reader threads feeding the inbox; self-sends short-circuit
/// through the inbox directly.
class TcpTransport : public Transport {
 public:
  TcpTransport(int node_id, int num_nodes)
      : node_id_(node_id),
        num_nodes_(num_nodes),
        out_fds_(static_cast<size_t>(num_nodes), -1) {}

  ~TcpTransport() override {
    // Our own teardown ends every reader with an error or EOF; that is
    // not a peer closing, so the readers push no notice for it.
    closing_.store(true, std::memory_order_release);
    for (int fd : out_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
    for (int fd : in_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
    for (auto& t : readers_) {
      if (t.joinable()) t.join();
    }
    for (int fd : out_fds_) {
      if (fd >= 0) ::close(fd);
    }
    for (int fd : in_fds_) {
      ::close(fd);
    }
  }

  int node_id() const override { return node_id_; }
  int num_nodes() const override { return num_nodes_; }

  Status Send(int to, Message msg) override {
    if (dead_) return Status::OK();
    if (to < 0 || to >= num_nodes_) {
      return Status::InvalidArgument("send to bad node " +
                                     std::to_string(to));
    }
    msg.from = node_id_;
    if (to == node_id_) {
      inbox_.Push(std::move(msg));
      return Status::OK();
    }
    std::vector<uint8_t> frame = msg.Serialize();
    return WriteFully(out_fds_[static_cast<size_t>(to)], frame.data(),
                      frame.size());
  }

  Result<Message> Recv() override { return inbox_.Pop(); }

  Result<Message> RecvWithDeadline(double timeout_s) override {
    std::optional<Message> msg = inbox_.PopFor(timeout_s);
    if (!msg.has_value()) {
      return Status::DeadlineExceeded("recv deadline (" +
                                      std::to_string(timeout_s) +
                                      "s) exceeded");
    }
    return std::move(*msg);
  }

  std::optional<Message> TryRecv() override { return inbox_.TryPop(); }

  size_t inbox_high_water() const override { return inbox_.max_depth(); }

  uint64_t frames_rejected() const override {
    return frames_rejected_.load(std::memory_order_relaxed);
  }

  /// Half-closes every outgoing socket: the kernel sends FIN behind the
  /// bytes already queued, so each peer's reader drains this node's
  /// last frames, then sees EOF and delivers the close notice.
  void SimulateFailStop() override {
    if (dead_) return;
    dead_ = true;
    for (int fd : out_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_WR);
    }
  }

  void SetOutgoing(int to, int fd) {
    out_fds_[static_cast<size_t>(to)] = fd;
  }

  /// Registers an accepted incoming connection from node `peer` (the id
  /// its hello announced) and starts its reader.
  void AddIncoming(int fd, int peer) {
    in_fds_.push_back(fd);
    readers_.emplace_back([this, fd, peer] { ReadLoop(fd, peer); });
  }

 private:
  /// Reads frames from `peer` until its connection ends. EOF, a recv
  /// error and a desynchronized stream all mean the peer is gone, so
  /// each delivers one kPeerClosed behind the frames already read.
  void ReadLoop(int fd, int peer) {
    ReadFrames(fd);
    if (!closing_.load(std::memory_order_acquire)) {
      inbox_.Push(PeerClosedNotice(peer));
    }
  }

  void ReadFrames(int fd) {
    std::vector<uint8_t> buf;
    while (true) {
      uint8_t len_bytes[4];
      if (!ReadFully(fd, len_bytes, 4).ok()) return;  // peer closed
      uint32_t len;
      std::memcpy(&len, len_bytes, 4);
      if (len > kMaxFrameBytes) {
        // A length beyond the cap means the stream is desynchronized,
        // so the connection is dropped rather than resynchronized.
        ADAPTAGG_LOG(kError) << "tcp frame length " << len
                             << " exceeds cap; closing connection";
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      buf.resize(len);
      if (!ReadFully(fd, buf.data(), len).ok()) return;
      Result<Message> msg = Message::Deserialize(buf.data(), len);
      if (!msg.ok()) {
        // Checksum or format violation inside a well-delimited frame:
        // the stream itself is still in sync, so reject just the frame.
        // The sender-side sequence number now has a gap, which the
        // receiving NodeContext reports as message loss.
        ADAPTAGG_LOG(kError) << "rejecting bad frame: "
                             << msg.status().ToString();
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      inbox_.Push(std::move(msg).value());
    }
  }

  // Thread roles (this class needs no mutex of its own): all
  // cross-thread traffic funnels through `inbox_` (internally locked and
  // annotated), `frames_rejected_` or `closing_` (atomics). `out_fds_` is
  // written only during single-threaded mesh setup and read by Send and
  // SimulateFailStop afterwards; `dead_` is touched only by those two,
  // on the owning node's thread; `in_fds_` and `readers_` are touched
  // only by setup and the destructor, which joins every reader before
  // closing.
  int node_id_;
  int num_nodes_;
  Channel inbox_;
  std::vector<int> out_fds_;
  std::vector<int> in_fds_;
  std::vector<std::thread> readers_;
  std::atomic<uint64_t> frames_rejected_{0};
  std::atomic<bool> closing_{false};
  bool dead_ = false;
};

Result<int> Listen(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::NetworkError("socket failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::NetworkError("bind " + std::to_string(port) + ": " +
                                std::strerror(errno));
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    return Status::NetworkError("listen failed");
  }
  return fd;
}

Result<int> ConnectOnce(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::NetworkError("socket failed");
  // SO_REUSEADDR on the *connect* side too: Linux only lets a later
  // SO_REUSEADDR bind ride over this socket's TIME-WAIT remnant if the
  // remnant also had the option set. Without it, an outbound connection
  // whose ephemeral source port lands on another mesh's fixed listen
  // port poisons that port for a full TIME-WAIT interval.
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::NetworkError("connect " + std::to_string(port) + ": " +
                                std::strerror(errno));
  }
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Connects with bounded retries and exponential backoff, shielding mesh
/// bring-up from transient refusals (a peer's listener still coming up,
/// a kernel backlog burp on a busy CI host).
Result<int> Connect(int port) {
  constexpr int kAttempts = 6;
  std::chrono::milliseconds backoff{10};
  Result<int> fd = ConnectOnce(port);
  for (int attempt = 1; !fd.ok() && attempt < kAttempts; ++attempt) {
    std::this_thread::sleep_for(backoff);
    backoff *= 2;
    fd = ConnectOnce(port);
  }
  return fd;
}

/// Accepts with a timeout so a half-built mesh fails with a Status
/// instead of blocking forever in ::accept.
Result<int> AcceptWithTimeout(int listener, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = listener;
  pfd.events = POLLIN;
  int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    return Status::NetworkError(std::string("poll: ") +
                                std::strerror(errno));
  }
  if (ready == 0) {
    return Status::DeadlineExceeded("accept timed out after " +
                                    std::to_string(timeout_ms) + "ms");
  }
  int fd = ::accept(listener, nullptr, nullptr);
  if (fd < 0) {
    return Status::NetworkError(std::string("accept: ") +
                                std::strerror(errno));
  }
  return fd;
}

}  // namespace

Result<std::vector<std::unique_ptr<Transport>>> MakeTcpMesh(int n,
                                                            int base_port) {
  std::vector<std::unique_ptr<TcpTransport>> nodes;
  nodes.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<TcpTransport>(i, n));
  }

  std::vector<int> listeners(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    ADAPTAGG_ASSIGN_OR_RETURN(listeners[static_cast<size_t>(i)],
                              Listen(base_port + i));
  }

  // Connect every ordered pair (i -> j), i != j. The connector announces
  // its node id in a 4-byte hello so the acceptor can label the link.
  Status failure;
  for (int i = 0; i < n && failure.ok(); ++i) {
    for (int j = 0; j < n && failure.ok(); ++j) {
      if (i == j) continue;
      Result<int> out = Connect(base_port + j);
      if (!out.ok()) {
        failure = out.status();
        break;
      }
      int32_t hello = i;
      Status st = WriteFully(*out, reinterpret_cast<uint8_t*>(&hello), 4);
      if (!st.ok()) {
        failure = st;
        break;
      }
      nodes[static_cast<size_t>(i)]->SetOutgoing(j, *out);

      Result<int> in = AcceptWithTimeout(
          listeners[static_cast<size_t>(j)], /*timeout_ms=*/5000);
      if (!in.ok()) {
        failure = in.status();
        break;
      }
      int32_t peer = -1;
      st = ReadFully(*in, reinterpret_cast<uint8_t*>(&peer), 4);
      if (!st.ok() || peer != i) {
        ::close(*in);
        failure = st.ok() ? Status::NetworkError("bad hello") : st;
        break;
      }
      nodes[static_cast<size_t>(j)]->AddIncoming(*in, i);
    }
  }

  for (int fd : listeners) {
    if (fd >= 0) ::close(fd);
  }
  if (!failure.ok()) return failure;

  std::vector<std::unique_ptr<Transport>> out;
  out.reserve(nodes.size());
  for (auto& t : nodes) out.push_back(std::move(t));
  return out;
}

}  // namespace adaptagg
