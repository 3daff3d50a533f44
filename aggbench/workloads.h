#ifndef AGGBENCH_WORKLOADS_H_
#define AGGBENCH_WORKLOADS_H_

#include <cstdint>

#include "bench_common.h"
#include "sim/params.h"
#include "storage/partitioned_relation.h"

namespace aggbench {

/// Node count of every workload: one node thread per core of the 4-core
/// reference host.
inline constexpr int kNodes = 4;

/// Engine workloads: closed loop, one client, rotating algorithms over a
/// resident relation. `few_groups`, `many_groups` and `crash_recover`.
void RunEngineWorkload(const RunOptions& opts, Report& report);

/// Serving workload: a resident ClusterService under an open-loop paced
/// half-hit, half-miss submission stream. `serve_mix`.
void RunServeWorkload(const RunOptions& opts, Report& report);

/// Per-layer probes: times the benchmark's own calls into the storage,
/// aggregation and exchange layers' public functions over every partition
/// of `rel`, at hash-table bound `max_entries`, and reports the
/// per-tuple/record/group costs as per-layer metrics.
void RunLayerProbes(adaptagg::PartitionedRelation& rel,
                    const adaptagg::SystemParams& params,
                    int64_t max_entries, Report& report, SpanLog& spans);

}  // namespace aggbench

#endif  // AGGBENCH_WORKLOADS_H_
