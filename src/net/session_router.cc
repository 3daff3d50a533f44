#include "net/session_router.h"

#include <string>
#include <utility>

namespace adaptagg {
namespace {

/// Demux poll tick: bounds how long Stop() and CloseSession() wait for a
/// demux thread to notice state changes. Wall time only — the tick never
/// charges modeled cost and never reaches algorithm code.
constexpr double kDemuxTickS = 0.05;

}  // namespace

SessionRouter::SessionRouter(std::vector<std::unique_ptr<Transport>> mesh)
    : physical_(std::move(mesh)),
      send_mus_(physical_.size()),
      inboxes_(physical_.size()) {
  demux_threads_.reserve(physical_.size());
  alive_demux_.store(static_cast<int>(physical_.size()),
                     std::memory_order_release);
  for (int i = 0; i < num_nodes(); ++i) {
    demux_threads_.emplace_back([this, i] { DemuxLoop(i); });
  }
}

SessionRouter::~SessionRouter() { Stop(); }

void SessionRouter::Stop() {
  stop_.store(true, std::memory_order_release);
  for (auto& t : demux_threads_) {
    if (t.joinable()) t.join();
  }
  demux_threads_.clear();
}

Result<std::vector<std::unique_ptr<Transport>>> SessionRouter::OpenSession(
    uint32_t query_id) {
  if (query_id == 0) {
    return Status::InvalidArgument(
        "query id 0 is reserved for one-shot runs");
  }
  std::vector<std::shared_ptr<Channel>> channels;
  channels.reserve(physical_.size());
  {
    MutexLock lock(&mu_);
    for (const auto& per_node : inboxes_) {
      if (per_node.count(query_id) != 0) {
        return Status::InvalidArgument("session " + std::to_string(query_id) +
                                       " already open");
      }
    }
    for (auto& per_node : inboxes_) {
      channels.push_back(std::make_shared<Channel>());
      per_node.emplace(query_id, channels.back());
    }
  }
  std::vector<std::unique_ptr<Transport>> endpoints;
  endpoints.reserve(physical_.size());
  for (int i = 0; i < num_nodes(); ++i) {
    endpoints.push_back(std::make_unique<SessionTransport>(
        this, channels[static_cast<size_t>(i)], query_id, i));
  }
  return endpoints;
}

void SessionRouter::CloseSession(uint32_t query_id) {
  MutexLock lock(&mu_);
  for (auto& per_node : inboxes_) per_node.erase(query_id);
}

Status SessionRouter::PhysicalSend(int from_node, int to, Message msg) {
  if (from_node < 0 || from_node >= num_nodes()) {
    return Status::InvalidArgument("send from bad node " +
                                   std::to_string(from_node));
  }
  MutexLock lock(&send_mus_[static_cast<size_t>(from_node)]);
  return physical_[static_cast<size_t>(from_node)]->Send(to, std::move(msg));
}

void SessionRouter::NotifyPeerClosed(uint32_t query_id, int from_node) {
  std::vector<std::shared_ptr<Channel>> peers;
  {
    MutexLock lock(&mu_);
    for (int i = 0; i < num_nodes(); ++i) {
      if (i == from_node) continue;
      const auto& per_node = inboxes_[static_cast<size_t>(i)];
      auto it = per_node.find(query_id);
      if (it != per_node.end()) peers.push_back(it->second);
    }
  }
  for (const auto& ch : peers) ch->Push(PeerClosedNotice(from_node));
}

void SessionRouter::DemuxLoop(int node) {
  Transport& endpoint = *physical_[static_cast<size_t>(node)];
  while (!stop_.load(std::memory_order_acquire)) {
    Result<Message> msg = endpoint.RecvWithDeadline(kDemuxTickS);
    if (!msg.ok()) continue;  // tick elapsed (or a malformed frame)
    std::shared_ptr<Channel> owner;
    std::vector<std::shared_ptr<Channel>> others;
    {
      MutexLock lock(&mu_);
      auto& per_node = inboxes_[static_cast<size_t>(node)];
      auto it = per_node.find(msg->query_id);
      if (it != per_node.end()) owner = it->second;
      if (owner != nullptr && msg->type == MessageType::kHeartbeat) {
        for (const auto& [qid, ch] : per_node) {
          if (qid != msg->query_id) others.push_back(ch);
        }
      }
    }
    if (owner == nullptr) {
      late_frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Heartbeat sharing: the owning session gets the sequenced original
    // (its detector validates the sender's sequence stream); every
    // co-resident session gets a seq=0 copy, which NodeContext's
    // unsequenced path turns into a liveness refresh and swallows.
    for (const auto& ch : others) {
      Message copy = *msg;
      copy.seq = 0;
      ch->Push(std::move(copy));
      heartbeats_shared_.fetch_add(1, std::memory_order_relaxed);
    }
    owner->Push(std::move(*msg));
  }
  alive_demux_.fetch_sub(1, std::memory_order_acq_rel);
}

Status SessionTransport::Send(int to, Message msg) {
  if (failed_.load(std::memory_order_acquire)) {
    // Fail-stop: swallow silently, exactly like a fail-stopped physical
    // endpoint.
    return Status::OK();
  }
  if (to < 0 || to >= num_nodes()) {
    return Status::InvalidArgument("send to bad node " + std::to_string(to));
  }
  msg.from = node_id_;
  msg.query_id = query_id_;
  return router_->PhysicalSend(node_id_, to, std::move(msg));
}

void SessionTransport::SimulateFailStop() {
  if (failed_.exchange(true, std::memory_order_acq_rel)) return;
  router_->NotifyPeerClosed(query_id_, node_id_);
}

Result<Message> SessionTransport::Recv() {
  return inbox_->Pop();
}

Result<Message> SessionTransport::RecvWithDeadline(double timeout_s) {
  std::optional<Message> msg = inbox_->PopFor(timeout_s);
  if (!msg.has_value()) {
    return Status::DeadlineExceeded("recv deadline (" +
                                    std::to_string(timeout_s) +
                                    "s) exceeded");
  }
  return std::move(*msg);
}

std::optional<Message> SessionTransport::TryRecv() {
  return inbox_->TryPop();
}

}  // namespace adaptagg
