#ifndef ADAPTAGG_SIM_COST_CLOCK_H_
#define ADAPTAGG_SIM_COST_CLOCK_H_

#include <algorithm>
#include <atomic>
#include <string>

namespace adaptagg {

/// Per-node simulated clock. The engine executes aggregation for real (on
/// real tuples) but *time* is modeled: every operation charges its Table 1
/// cost onto the node's clock, mirroring the paper's "no overlap between
/// CPU, I/O and message passing" assumption. Receiving a message charges
/// only its protocol CPU: the receiver is deliberately *not* advanced to
/// the sender's departure time (NetworkModel::OnReceive, DESIGN.md §3),
/// so a node's modeled time never depends on message arrival order or
/// host thread scheduling.
///
/// Single-owner by construction: only the owning node's thread charges
/// or reads it during a run, and Cluster::Run reads the totals after
/// joining every node thread, so there is no lock and nothing to
/// ADAPTAGG_GUARDED_BY — the join is the synchronization point.
class CostClock {
 public:
  double now() const { return now_; }
  double cpu_s() const { return cpu_; }
  double io_s() const { return io_; }
  double net_s() const { return net_; }
  double idle_s() const { return idle_; }

  void AddCpu(double s) {
    cpu_ += s;
    now_ += s;
  }
  void AddIo(double s) {
    io_ += s;
    now_ += s;
  }
  void AddNet(double s) {
    net_ += s;
    now_ += s;
  }

  /// Waits (simulated) until `t`; no-op if already past it.
  void AdvanceTo(double t) {
    if (t > now_) {
      idle_ += t - now_;
      now_ = t;
    }
  }

  void Reset() { *this = CostClock(); }

  std::string ToString() const;

 private:
  double now_ = 0;
  double cpu_ = 0;
  double io_ = 0;
  double net_ = 0;
  double idle_ = 0;
};

/// The shared Ethernet medium of the limited-bandwidth network model: a
/// single sequential resource. A sender reserves `duration` seconds on the
/// medium no earlier than `earliest`; the reservation start is returned.
/// Thread-safe (nodes run on concurrent threads) without a mutex: the
/// only shared state is one atomic advanced by CAS, so there is no
/// capability to annotate.
class SharedEther {
 public:
  /// Reserves [start, start+duration) with start >= max(earliest,
  /// busy_until) and returns start.
  double Acquire(double earliest, double duration);

  /// Simulated time at which the medium becomes free.
  double busy_until() const;

  void Reset();

 private:
  std::atomic<double> busy_until_{0.0};
};

}  // namespace adaptagg

#endif  // ADAPTAGG_SIM_COST_CLOCK_H_
