#ifndef ADAPTAGG_NET_FAULT_H_
#define ADAPTAGG_NET_FAULT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/transport.h"

namespace adaptagg {

/// Kinds of injectable faults. Message faults (drop/duplicate/delay/
/// corrupt) act on a FaultyTransport's outbound traffic; node faults
/// (crash/straggle) are executed by the NodeContext runtime hooks;
/// storage faults (disk-fail/torn-write) are applied to the targeted
/// node's checkpoint disk by the recovery runtime.
enum class FaultKind {
  kDrop = 0,
  kDuplicate,
  kDelay,
  kCorrupt,
  kCrash,
  kStraggle,
  kDiskFail,
  kTornWrite,
};

/// Stable lowercase name ("drop", "crash", ...).
std::string_view FaultKindToString(FaultKind kind);

/// One injected fault. Which fields are meaningful depends on `kind`:
///
///  * drop/duplicate/delay/corrupt: `from`/`to` filter the sender and
///    destination (-1 = any), `nth` selects the n-th matching message
///    (0-based; -1 = every match), `secs` is the added latency (delay).
///  * crash: `node` crashes either when its scan reaches global tuple
///    index `tuple` (checked at batch granularity) or when it enters the
///    phase named `phase` ("scan", "merge", "emit", "sample").
///  * straggle: `node` sleeps `secs` wall-seconds at every inbox poll
///    (the scan loop polls every kPollInterval tuples, so this slows the
///    node down without changing any simulated cost).
///  * disk-fail: `node`'s checkpoint disk fails every append after `nth`
///    more successful ones (recovery degrades to an older checkpoint or
///    scratch replay; the query must still answer correctly).
///  * torn-write: `node`'s checkpoint disk persists its `nth` append
///    with the tail zeroed but reports success — the CRC on read must
///    turn this into kDataLoss, never a wrong answer.
struct FaultSpec {
  FaultKind kind = FaultKind::kDrop;
  int from = -1;
  int to = -1;
  int64_t nth = 0;
  int node = -1;
  int64_t tuple = -1;
  std::string phase;
  double secs = 0;
};

/// A deterministic, seed-driven failure scenario: every fault a run will
/// experience, declared up front, so any failure mode is a reproducible
/// unit test. Parsed from the CLI's `--fault` syntax:
///
///   drop:from=1,to=2,nth=0;crash:node=2,tuple=5000;straggle:node=3,
///   factor=4;seed=7
///
/// Clauses are ';'-separated; each is `kind:key=value,...`. `seed=N`
/// (no colon) seeds the corruption byte picker. `factor=f` on straggle
/// and delay is shorthand for secs=f/1000 (≈ f ms).
struct FaultPlan {
  uint64_t seed = 42;
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }

  /// First crash spec targeting `node`, or nullptr.
  const FaultSpec* CrashForNode(int node) const;
  /// Per-poll straggle sleep for `node` (0 when not straggling).
  double StraggleSecsForNode(int node) const;
  /// `nth` of the first disk-fail spec targeting `node`'s checkpoint
  /// disk, or -1 when absent.
  int64_t DiskFailNthForNode(int node) const;
  /// `nth` of the first torn-write spec targeting `node`'s checkpoint
  /// disk, or -1 when absent.
  int64_t TornWriteNthForNode(int node) const;
  /// True when any spec targets a checkpoint disk.
  bool HasCheckpointDiskFaults() const;

  static Result<FaultPlan> Parse(const std::string& text);
  /// Canonical `--fault` syntax; Parse(ToString()) round-trips.
  std::string ToString() const;
};

/// Run-level failure-detection knobs. Detection is "armed" when enabled
/// here or when the run carries a non-empty FaultPlan; an unarmed run
/// still bounds every blocking receive by a generous derived deadline
/// (so nothing can hang forever) but sends no heartbeats and tracks no
/// per-peer liveness, keeping fault-free runs bit-identical to builds
/// without this subsystem.
struct FailureDetection {
  bool enabled = false;
  /// Longest a node may wait without inbound progress before it aborts
  /// the run (<0: derive from the cost model's worst-case phase time).
  double recv_idle_timeout_s = -1;
  /// Heartbeat broadcast period while armed (<0: timeout / 4).
  double heartbeat_interval_s = -1;
  /// Hard cap on one blocking wait even with live peers, catching nodes
  /// that heartbeat but never progress (<0: 8x the idle timeout).
  double phase_budget_s = -1;
};

/// What a FaultyTransport reports when it fires a fault: the acting
/// node, the peer involved (-1 when not applicable), and the fault.
struct FaultEvent {
  FaultKind kind = FaultKind::kDrop;
  int node = -1;
  int peer = -1;
};

/// Observer invoked on the acting node's thread each time a fault fires
/// (fault counters and trace instants hook in here; src/net cannot
/// depend on src/obs directly).
using FaultObserver = std::function<void(const FaultEvent&)>;

/// A Transport decorator that executes a FaultPlan's message faults on
/// outbound traffic. Deterministic: each spec counts its own matching
/// messages (heartbeats and aborts are never counted or faulted, so
/// wall-clock-dependent beacon traffic cannot shift which data message
/// the n-th one is). Corruption serializes the message, flips one
/// seed-chosen byte, and re-parses: the CRC-32C rejects it, making a
/// corrupt frame behave as a detectable drop on every substrate.
/// SimulateFailStop puts the endpoint in fail-stop mode (all later sends
/// swallowed), which is what makes injected crashes realistic — a dead
/// node cannot broadcast its own abort, so peers must *detect* it.
class FaultyTransport : public Transport {
 public:
  FaultyTransport(std::unique_ptr<Transport> inner, const FaultPlan& plan,
                  FaultObserver observer = nullptr);

  /// Late-binds the observer. The cluster wires this to the owning
  /// node's obs shard once node contexts exist; must be called before
  /// the node thread starts sending.
  void set_observer(FaultObserver observer) {
    observer_ = std::move(observer);
  }

  int node_id() const override { return inner_->node_id(); }
  int num_nodes() const override { return inner_->num_nodes(); }
  Status Send(int to, Message msg) override;
  Result<Message> Recv() override { return inner_->Recv(); }
  Result<Message> RecvWithDeadline(double timeout_s) override {
    return inner_->RecvWithDeadline(timeout_s);
  }
  std::optional<Message> TryRecv() override { return inner_->TryRecv(); }
  size_t inbox_high_water() const override {
    return inner_->inbox_high_water();
  }
  uint64_t frames_rejected() const override {
    return inner_->frames_rejected();
  }
  void SimulateFailStop() override { dead_ = true; }

 private:
  struct ArmedFault {
    FaultSpec spec;
    int64_t matched = 0;
  };

  void Report(FaultKind kind, int peer);

  std::unique_ptr<Transport> inner_;
  std::vector<ArmedFault> send_faults_;
  uint64_t prng_state_;
  FaultObserver observer_;
  /// Accessed only from the owning node's thread (the Send contract).
  bool dead_ = false;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_NET_FAULT_H_
