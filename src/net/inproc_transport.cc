#include <memory>

#include "net/channel.h"
#include "net/transport.h"

namespace adaptagg {
namespace {

/// Shared state of an in-process mesh: one inbox channel per node.
struct InprocMesh {
  explicit InprocMesh(int n) : inboxes(static_cast<size_t>(n)) {}
  std::vector<Channel> inboxes;
};

class InprocTransport : public Transport {
 public:
  InprocTransport(std::shared_ptr<InprocMesh> mesh, int node_id)
      : mesh_(std::move(mesh)), node_id_(node_id) {}

  int node_id() const override { return node_id_; }
  int num_nodes() const override {
    return static_cast<int>(mesh_->inboxes.size());
  }

  Status Send(int to, Message msg) override {
    if (to < 0 || to >= num_nodes()) {
      return Status::InvalidArgument("send to bad node " +
                                     std::to_string(to));
    }
    msg.from = node_id_;
    mesh_->inboxes[static_cast<size_t>(to)].Push(std::move(msg));
    return Status::OK();
  }

  Result<Message> Recv() override {
    return mesh_->inboxes[static_cast<size_t>(node_id_)].Pop();
  }

  Result<Message> RecvWithDeadline(double timeout_s) override {
    std::optional<Message> msg =
        mesh_->inboxes[static_cast<size_t>(node_id_)].PopFor(timeout_s);
    if (!msg.has_value()) {
      return Status::DeadlineExceeded("recv deadline (" +
                                      std::to_string(timeout_s) +
                                      "s) exceeded");
    }
    return std::move(*msg);
  }

  std::optional<Message> TryRecv() override {
    return mesh_->inboxes[static_cast<size_t>(node_id_)].TryPop();
  }

  size_t inbox_high_water() const override {
    return mesh_->inboxes[static_cast<size_t>(node_id_)].max_depth();
  }

 private:
  std::shared_ptr<InprocMesh> mesh_;
  int node_id_;
};

}  // namespace

std::vector<std::unique_ptr<Transport>> MakeInprocMesh(int n) {
  auto mesh = std::make_shared<InprocMesh>(n);
  std::vector<std::unique_ptr<Transport>> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(std::make_unique<InprocTransport>(mesh, i));
  }
  return out;
}

}  // namespace adaptagg
