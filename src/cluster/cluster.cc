#include "cluster/cluster.h"

#include <thread>

#include "cluster/run_assembly.h"

namespace adaptagg {

Cluster::Cluster(SystemParams params) : params_(std::move(params)) {
  transport_factory_ =
      [](int n) -> Result<std::vector<std::unique_ptr<Transport>>> {
    return MakeInprocMesh(n);
  };
}

RunResult Cluster::Run(const Algorithm& algo, const AggregationSpec& spec,
                       PartitionedRelation& rel, AlgorithmOptions options) {
  RunResult result;
  result.query_id = options.query_id;
  const int n = params_.num_nodes;
  if (rel.num_nodes() != n) {
    result.status = Status::InvalidArgument(
        "relation has " + std::to_string(rel.num_nodes()) +
        " partitions but cluster has " + std::to_string(n) + " nodes");
    return result;
  }

  // Predicates are validated once, up front, against the schemas they
  // will be evaluated on.
  result.status = ValidateRunOptions(spec, options);
  if (!result.status.ok()) return result;

  // Each attempt runs over a fresh mesh from the factory and the
  // relation's own partitions and disks, one thread per node.
  std::vector<QueryExecution::NodeStorage> storage;
  storage.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    storage.push_back({&rel.partition(i), &rel.disk(i)});
  }
  const uint32_t query_id = options.query_id;
  QueryExecution exec(params_, spec, std::move(options), algo);
  do {
    Result<std::vector<std::unique_ptr<Transport>>> transports =
        transport_factory_(n);
    if (!transports.ok()) {
      result.status = transports.status();
      return result;
    }
    rel.ResetDiskStats();
    exec.BeginAttempt(std::move(*transports), storage, query_id);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([&exec, i] { exec.RunNode(i); });
    }
    for (auto& t : threads) t.join();
  } while (exec.PrepareReplay());
  return exec.Finish();
}

}  // namespace adaptagg
