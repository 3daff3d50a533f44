#ifndef ADAPTAGG_CLUSTER_CLUSTER_H_
#define ADAPTAGG_CLUSTER_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agg/reference.h"
#include "cluster/node_context.h"
#include "storage/partitioned_relation.h"

namespace adaptagg {

/// A parallel aggregation algorithm, written once against NodeContext and
/// executed by every node of the cluster. Implementations must be
/// stateless across RunNode calls (one instance serves all node threads).
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  virtual std::string name() const = 0;

  /// Executes this node's share of the computation. Called concurrently
  /// on N threads, one per node.
  virtual Status RunNode(NodeContext& ctx) const = 0;
};

/// Outcome of one cluster run.
struct RunResult {
  Status status;
  /// Modeled completion time: max over nodes of the simulated clock,
  /// plus the serialized wire total on a limited-bandwidth network.
  double sim_time_s = 0;
  /// Total occupancy of the shared medium (limited-bandwidth runs only).
  double wire_time_s = 0;
  /// Real elapsed time of the run.
  double wall_time_s = 0;
  std::vector<CostClock> clocks;
  std::vector<NodeRunStats> node_stats;
  /// Gathered final rows (when options.gather_results).
  ResultSet results;
  /// Merged metric snapshot over every node's registry shard.
  MetricsSnapshot metrics;
  /// Concatenated per-node trace event logs (only when options.obs.traces
  /// is on). Export with ChromeTraceJson/WriteChromeTrace.
  std::vector<TraceEvent> trace_events;
  /// Node count of the run (the trace exporter's track count).
  int num_nodes = 0;
  /// Serving-layer session id of the run (0: one-shot Cluster::Run).
  /// Surfaces in RunSummaryLine so concurrent sessions' summary lines
  /// stay attributable.
  uint32_t query_id = 0;
  /// True when the serving layer answered from its ResultCache without
  /// touching the data plane (sim/wire/wall times are then ~0 and
  /// clocks/node_stats/metrics are empty).
  bool from_cache = false;

  int64_t total_result_rows() const {
    int64_t n = 0;
    for (const auto& s : node_stats) n += s.result_rows;
    return n;
  }
  /// Number of nodes that adaptively switched strategies.
  int nodes_switched() const {
    int n = 0;
    for (const auto& s : node_stats) n += s.switched ? 1 : 0;
    return n;
  }
  int64_t total_spilled_records() const {
    int64_t n = 0;
    for (const auto& s : node_stats) n += s.spill.overflow_records;
    return n;
  }
};

/// A simulated shared-nothing cluster: N node threads, a message mesh, a
/// network cost model, and each node's local disk (owned by the
/// PartitionedRelation). Runs one algorithm at a time.
class Cluster {
 public:
  using TransportFactory = std::function<
      Result<std::vector<std::unique_ptr<Transport>>>(int num_nodes)>;

  explicit Cluster(SystemParams params);

  const SystemParams& params() const { return params_; }

  /// Replaces the default in-process transport (e.g. with MakeTcpMesh).
  void set_transport_factory(TransportFactory factory) {
    transport_factory_ = std::move(factory);
  }

  /// Executes `algo` over `rel` (which must have params().num_nodes
  /// partitions). Each node aggregates for real; clocks report modeled
  /// time. Disk stats of `rel` are reset at the start of the run.
  RunResult Run(const Algorithm& algo, const AggregationSpec& spec,
                PartitionedRelation& rel, AlgorithmOptions options = {});

 private:
  SystemParams params_;
  TransportFactory transport_factory_;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_CLUSTER_CLUSTER_H_
