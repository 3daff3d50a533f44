#ifndef ADAPTAGG_SERVE_CLUSTER_SERVICE_H_
#define ADAPTAGG_SERVE_CLUSTER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/run_assembly.h"
#include "common/algorithm_kind.h"
#include "net/session_router.h"
#include "obs/metric_registry.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "storage/partitioned_relation.h"
#include "storage/scoped_disk.h"

namespace adaptagg {

/// One aggregate-query submission to a ClusterService.
struct ServeQuery {
  /// The compiled aggregation (group-by columns + aggregate ops).
  AggregationSpec spec;
  /// Which parallel algorithm runs it. The default — the paper's
  /// Sampling algorithm — makes every admitted query take its own
  /// adaptive decision from a fresh sample.
  AlgorithmKind algorithm = AlgorithmKind::kSampling;
  /// Tunables, WHERE/HAVING predicates, obs switches, fault plan.
  /// `options.query_id` is overwritten with the session's id.
  AlgorithmOptions options;
  /// Test hook: run this algorithm instance instead of
  /// MakeAlgorithm(algorithm). Must outlive the query's session.
  const Algorithm* custom_algorithm = nullptr;
};

/// Handle to one submitted query: blocks until its session completes and
/// carries the final RunResult. Submit/complete wall stamps feed the
/// serving benchmark's latency percentiles.
class QueryTicket {
 public:
  uint32_t query_id() const { return query_id_; }

  /// Blocks until the query finishes (successfully, aborted, or
  /// rejected at activation); returns the final result. Idempotent.
  const RunResult& Wait() ADAPTAGG_EXCLUDES(mu_);

  bool done() const ADAPTAGG_EXCLUDES(mu_);

  /// WallSeconds() at submission / completion (0 until done).
  double submit_wall_s() const { return submit_wall_s_; }
  double complete_wall_s() const ADAPTAGG_EXCLUDES(mu_);

 private:
  friend class ClusterService;

  void Complete(RunResult result, double wall_s) ADAPTAGG_EXCLUDES(mu_);

  uint32_t query_id_ = 0;
  double submit_wall_s_ = 0;
  mutable Mutex mu_;
  CondVar cv_;
  bool done_ ADAPTAGG_GUARDED_BY(mu_) = false;
  double complete_wall_s_ ADAPTAGG_GUARDED_BY(mu_) = 0;
  RunResult result_ ADAPTAGG_GUARDED_BY(mu_);
};

using QueryTicketPtr = std::shared_ptr<QueryTicket>;

/// Configuration of a resident ClusterService.
struct ServiceConfig {
  /// Cluster shape and cost model; params.num_nodes must match the
  /// served relation's partition count.
  SystemParams params;
  /// Admission control (max in-flight, queue bound, memory budget).
  SchedulerConfig scheduler;
  /// Result-cache capacity in entries; 0 disables caching.
  size_t cache_entries = 64;
  /// Physical mesh factory (empty: in-process mesh). The mesh is built
  /// once and shared by every session through the SessionRouter.
  Cluster::TransportFactory transport_factory;
};

/// A resident multi-query serving layer over one partitioned relation:
/// owns long-lived node worker threads, a shared physical mesh
/// demultiplexed per query by a SessionRouter, an admission-control
/// Scheduler, and a ResultCache. Concurrent Submit()s each get an
/// isolated QuerySession — query-id-namespaced channels, per-session
/// ScopedDisks and obs scope, its own NetworkModel and adaptive
/// decision — while the algorithms themselves run unchanged against
/// NodeContext. See DESIGN.md §11.
class ClusterService {
 public:
  /// Builds the mesh, starts the router's demux threads and the
  /// per-node worker pools (scheduler.max_inflight workers per node,
  /// so every admitted session always finds a free worker per node).
  /// `rel` must outlive the service; concurrent queries share its
  /// partitions read-only.
  static Result<std::unique_ptr<ClusterService>> Start(
      ServiceConfig config, PartitionedRelation* rel);

  ~ClusterService();

  ClusterService(const ClusterService&) = delete;
  ClusterService& operator=(const ClusterService&) = delete;

  /// Submits one query. Returns a ticket immediately on admission (or
  /// a cache hit, which completes the ticket without touching the data
  /// plane), kResourceExhausted on backpressure or memory rejection,
  /// kFailedPrecondition after Shutdown.
  Result<QueryTicketPtr> Submit(ServeQuery query);

  /// Drains in-flight sessions, fails queued submissions, then stops
  /// and joins every resident thread. Idempotent; called by the
  /// destructor.
  void Shutdown();

  /// Elastic node join/leave: resizes the resident cluster to
  /// `new_num_nodes` between queries. Quiesces (in-flight sessions
  /// drain; new submissions park in the pending queue), builds the new
  /// mesh first (a factory failure leaves the old plane serving),
  /// retires the old workers and router, rebalances the relation's
  /// partitions round-robin across the new node count, rebuilds the
  /// data plane, and bumps the membership epoch so frames from the old
  /// plane can never fold into a post-resize query. Blocks until done;
  /// must not be called concurrently with Shutdown or another Resize.
  Status Resize(int new_num_nodes);

  /// Current cluster-membership epoch: 0 at start, +1 per completed
  /// Resize. Every session is stamped with the epoch it was activated
  /// under; stale-epoch frames are dropped on admission.
  uint32_t membership_epoch() const ADAPTAGG_EXCLUDES(mu_);

  /// Drops every cached result (explicit invalidation hook for
  /// out-of-band relation mutation; version-keyed lookups already
  /// never serve a stale entry after PartitionedRelation::BumpVersion).
  void InvalidateCache() { cache_.InvalidateAll(); }

  /// Snapshot of the service-level serve.* counters (admissions,
  /// rejections, cache traffic, in-flight high-water, latency
  /// histogram, router drop/share counters).
  MetricsSnapshot Metrics() const;

  /// Worker + demux threads currently alive (0 after Shutdown — the
  /// leaked-thread assertion of the clean-shutdown test).
  int resident_threads() const;

  const SystemParams& params() const { return config_.params; }
  const SessionRouter& router() const { return *router_; }

 private:
  struct Session;
  struct NodeTaskQueue;

  ClusterService(ServiceConfig config, PartitionedRelation* rel,
                 Cluster::TransportFactory mesh_factory,
                 std::vector<std::unique_ptr<Transport>> mesh);

  /// Admission-time setup (metrics, recovery runtime) followed by the
  /// first StartAttempt.
  void Activate(Session* session) ADAPTAGG_REQUIRES(mu_);

  /// Builds one execution attempt's per-node state (router endpoints,
  /// scoped disks, partition views, contexts, gather sink) and enqueues
  /// one task per node onto the worker pools. Called by Activate for
  /// attempt 1 and by FinishSession's replay branch after a crash.
  void StartAttempt(Session* session) ADAPTAGG_REQUIRES(mu_);

  /// Pumps queued submissions in FIFO order while capacity lasts (and
  /// the data plane is not mid-resize).
  void PumpPending() ADAPTAGG_REQUIRES(mu_);

  void WorkerLoop(int node);

  /// Last node's finisher: assembles the RunResult, feeds the cache,
  /// releases the admission reservation, pumps the pending queue, and
  /// completes the ticket.
  void FinishSession(Session* session);

  ServiceConfig config_;
  PartitionedRelation* rel_;
  /// Kept beyond Start so Resize can build a replacement mesh.
  Cluster::TransportFactory mesh_factory_;
  std::unique_ptr<SessionRouter> router_;
  ResultCache cache_;

  mutable Mutex mu_;
  Scheduler scheduler_ ADAPTAGG_GUARDED_BY(mu_);
  bool accepting_ ADAPTAGG_GUARDED_BY(mu_) = true;
  bool joined_ ADAPTAGG_GUARDED_BY(mu_) = false;
  /// True while Resize is swapping the data plane: submissions park in
  /// pending_ and the completion pump stalls until the swap finishes.
  bool resizing_ ADAPTAGG_GUARDED_BY(mu_) = false;
  uint32_t membership_epoch_ ADAPTAGG_GUARDED_BY(mu_) = 0;
  std::map<uint32_t, std::unique_ptr<Session>> active_
      ADAPTAGG_GUARDED_BY(mu_);
  std::deque<std::unique_ptr<Session>> pending_ ADAPTAGG_GUARDED_BY(mu_);
  size_t pending_high_water_ ADAPTAGG_GUARDED_BY(mu_) = 0;
  CondVar drained_cv_;

  std::atomic<uint32_t> next_query_id_{1};
  std::atomic<int> alive_workers_{0};

  std::vector<std::unique_ptr<NodeTaskQueue>> task_queues_;
  std::vector<std::thread> workers_;

  // Service-level observability: serve.* lives in its own registry,
  // separate from the per-session shards merged into each RunResult.
  MetricRegistry metrics_;
  Counter admitted_;
  Counter rejected_queue_full_;
  Counter rejected_memory_;
  Counter cache_hits_;
  Counter cache_misses_;
  Counter completed_;
  Counter aborted_;
  Counter replays_;
  Counter resizes_;
  Gauge inflight_high_water_;
  Gauge queue_depth_high_water_;
  Gauge late_frames_dropped_;
  Gauge heartbeats_shared_;
  Histogram latency_us_;
};

}  // namespace adaptagg

#endif  // ADAPTAGG_SERVE_CLUSTER_SERVICE_H_
