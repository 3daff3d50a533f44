#ifndef ADAPTAGG_NET_SESSION_ROUTER_H_
#define ADAPTAGG_NET_SESSION_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "net/channel.h"
#include "net/transport.h"

namespace adaptagg {

/// Demultiplexes one physical cluster mesh into per-query "exchange
/// instances" for the serving layer. Every frame carries a query id
/// (Message::query_id); the router owns one demux thread per node that
/// pops the node's physical endpoint and routes each frame into the
/// inbox channel of the (query, node) session endpoint it belongs to.
/// Concurrent repartitions therefore never cross-talk: a session's
/// endpoints only ever see frames tagged with its own query id.
///
/// Heartbeats are shared across sessions: a liveness beacon sent inside
/// one armed session also proves the sender node alive to every other
/// session on the receiving node, so the router forwards a seq=0 copy to
/// each co-resident session (NodeContext's unsequenced path refreshes
/// peer liveness and swallows the copy without touching sequence
/// validation). One session's heartbeat traffic thus keeps every
/// neighbor's failure detector fed.
///
/// A session endpoint that fail-stops closes only itself: the router
/// pushes one kPeerClosed from that node into the session's other
/// inboxes. Co-resident sessions see nothing, and the physical mesh stays
/// up.
///
/// Frames for a query with no registered session (a late page from an
/// aborted run, or traffic racing CloseSession) are dropped and counted.
///
/// Thread-safe throughout. The physical endpoints' Send must tolerate
/// concurrent callers — the router serializes sends per source node, so
/// frame-oriented transports (TCP) never interleave two frames.
class SessionRouter {
 public:
  /// Takes ownership of the physical mesh (one endpoint per node) and
  /// starts one demux thread per node.
  explicit SessionRouter(std::vector<std::unique_ptr<Transport>> mesh);
  ~SessionRouter();

  SessionRouter(const SessionRouter&) = delete;
  SessionRouter& operator=(const SessionRouter&) = delete;

  int num_nodes() const { return static_cast<int>(physical_.size()); }

  /// Registers session `query_id` and returns its namespaced endpoints,
  /// one Transport per node. `query_id` must be nonzero and not
  /// currently open. The endpoints outlive CloseSession (their channels
  /// are shared), but after it no further frames are delivered to them.
  Result<std::vector<std::unique_ptr<Transport>>> OpenSession(
      uint32_t query_id);

  /// Unregisters the session: subsequent frames tagged `query_id` are
  /// dropped and counted as late.
  void CloseSession(uint32_t query_id);

  /// Stops and joins the demux threads (idempotent). Called by the
  /// destructor; expose so a service can sequence its shutdown.
  void Stop();

  /// Demux threads currently alive (for clean-shutdown tests).
  int alive_demux_threads() const {
    return alive_demux_.load(std::memory_order_acquire);
  }

  /// Frames dropped because no session with their query id was open.
  uint64_t late_frames_dropped() const {
    return late_frames_dropped_.load(std::memory_order_relaxed);
  }

  /// Heartbeat copies forwarded to co-resident sessions.
  uint64_t heartbeats_shared() const {
    return heartbeats_shared_.load(std::memory_order_relaxed);
  }

 private:
  friend class SessionTransport;

  /// Stamps `from` and sends on the physical mesh, serialized per source
  /// node so concurrent sessions of one node never interleave frames.
  Status PhysicalSend(int from_node, int to, Message msg);

  /// Pushes kPeerClosed from `from_node` into session `query_id`'s inbox
  /// on every other node (nothing when the session is already closed).
  void NotifyPeerClosed(uint32_t query_id, int from_node);

  void DemuxLoop(int node);

  std::vector<std::unique_ptr<Transport>> physical_;
  /// One send lock per source node (deque: Mutex is not movable).
  std::deque<Mutex> send_mus_;

  mutable Mutex mu_;
  /// Per node: open sessions' inboxes by query id. std::map (not
  /// unordered) so the heartbeat fan-out below iterates in a
  /// deterministic order.
  std::vector<std::map<uint32_t, std::shared_ptr<Channel>>> inboxes_
      ADAPTAGG_GUARDED_BY(mu_);

  std::atomic<bool> stop_{false};
  std::atomic<int> alive_demux_{0};
  std::atomic<uint64_t> late_frames_dropped_{0};
  std::atomic<uint64_t> heartbeats_shared_{0};
  std::vector<std::thread> demux_threads_;
};

/// One (query, node) endpoint over a SessionRouter: Sends stamp the
/// session's query id and go out on the shared physical mesh; receives
/// pop the session's demultiplexed inbox. SimulateFailStop closes only
/// this endpoint: its later sends are swallowed and the session's other
/// endpoints get one kPeerClosed each, while the physical mesh, its
/// demux threads and every other session stay up (a crashed query must
/// not poison its neighbors).
class SessionTransport : public Transport {
 public:
  SessionTransport(SessionRouter* router, std::shared_ptr<Channel> inbox,
                   uint32_t query_id, int node_id)
      : router_(router),
        inbox_(std::move(inbox)),
        query_id_(query_id),
        node_id_(node_id) {}

  int node_id() const override { return node_id_; }
  int num_nodes() const override { return router_->num_nodes(); }

  Status Send(int to, Message msg) override;
  Result<Message> Recv() override;
  Result<Message> RecvWithDeadline(double timeout_s) override;
  std::optional<Message> TryRecv() override;

  size_t inbox_high_water() const override { return inbox_->max_depth(); }
  void SimulateFailStop() override;

 private:
  SessionRouter* router_;
  std::shared_ptr<Channel> inbox_;
  uint32_t query_id_;
  int node_id_;
  std::atomic<bool> failed_{false};
};

}  // namespace adaptagg

#endif  // ADAPTAGG_NET_SESSION_ROUTER_H_
