#ifndef ADAPTAGG_NET_NETWORK_MODEL_H_
#define ADAPTAGG_NET_NETWORK_MODEL_H_

#include <atomic>

#include "net/message.h"
#include "sim/cost_clock.h"
#include "sim/params.h"

namespace adaptagg {

/// Charges the paper's messaging costs onto node clocks (§2, Table 1):
///
///  * protocol cost m_p per page, on both sender and receiver (CPU);
///  * wire time m_l per page:
///      - high-bandwidth network: charged to the sender's own clock, any
///        number of transfers proceed in parallel ("unlimited bandwidth,
///        latency-only");
///      - limited-bandwidth network: the wire is one shared sequential
///        resource (Ethernet) — "sending a fixed amount of data takes a
///        fixed amount of time independent of the number of processors".
///        Wire time accumulates on a single global counter that the
///        cluster adds to the completion time (the paper's no-overlap
///        treatment of the serialized medium). Accumulating globally —
///        rather than having sender clocks reserve wall-clock-ordered
///        time slots — keeps modeled time independent of host thread
///        scheduling.
///
/// Costs scale with actual payload bytes relative to the model's 4 KB
/// page. Empty payloads (EOS, end-of-phase) are free: the paper
/// piggybacks them on data traffic.
class NetworkModel {
 public:
  explicit NetworkModel(const SystemParams& params) : params_(params) {}

  /// Charges send-side costs and stamps `msg.depart_time`.
  void OnSend(CostClock& clock, Message& msg);

  /// Charges receive-side protocol CPU. Does not advance the receiver's
  /// clock to the departure time — per the paper's model, completion is
  /// the max over nodes of each node's own accumulated costs (see .cc).
  void OnReceive(CostClock& clock, const Message& msg);

  /// Total occupancy of the serialized medium so far (always 0 on a
  /// high-bandwidth network). Thread-safe.
  double serialized_wire_s() const {
    return serialized_wire_s_.load(std::memory_order_relaxed);
  }

  const SystemParams& params() const { return params_; }

 private:
  double PagesOf(size_t bytes) const {
    return static_cast<double>(bytes) / params_.page_bytes;
  }

  /// Bytes to charge for a message: the modeled size the sender stamped
  /// (the exchange ships wire-trimmed pages but charges the full page,
  /// keeping modeled time independent of the trim), or the real payload
  /// when unstamped.
  static size_t ChargeBasis(const Message& msg) {
    return msg.charged_bytes > 0 ? msg.charged_bytes : msg.payload.size();
  }

  SystemParams params_;
  std::atomic<double> serialized_wire_s_{0.0};
};

}  // namespace adaptagg

#endif  // ADAPTAGG_NET_NETWORK_MODEL_H_
