#include "serve/cluster_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cluster/recovery.h"
#include "core/algorithm.h"
#include "model/recovery_model.h"
#include "net/fault.h"
#include "obs/trace_recorder.h"

namespace adaptagg {

// ---------------------------------------------------------------------------
// QueryTicket

const RunResult& QueryTicket::Wait() {
  MutexLock lock(&mu_);
  while (!done_) cv_.Wait(mu_);
  return result_;
}

bool QueryTicket::done() const {
  MutexLock lock(&mu_);
  return done_;
}

double QueryTicket::complete_wall_s() const {
  MutexLock lock(&mu_);
  return complete_wall_s_;
}

void QueryTicket::Complete(RunResult result, double wall_s) {
  MutexLock lock(&mu_);
  result_ = std::move(result);
  complete_wall_s_ = wall_s;
  done_ = true;
  cv_.NotifyAll();
}

// ---------------------------------------------------------------------------
// Internal session state

/// One admitted query's execution state: its namespaced exchange
/// endpoints, per-node scoped disks and partition views, contexts, and
/// completion bookkeeping. Owned by the service's active_ map from
/// admission until the last node finishes.
struct ClusterService::Session {
  uint32_t query_id = 0;
  ServeQuery q;
  std::unique_ptr<Algorithm> owned_algo;
  const Algorithm* algo = nullptr;

  /// Relation version at submission; the result is cached only when the
  /// version is unchanged at completion (a mutation mid-run makes the
  /// rows unrepresentative of either version).
  uint64_t rel_version = 0;
  bool cacheable = false;
  std::string fingerprint;
  int64_t est_bytes = 0;

  /// Fault-recovery bookkeeping: 1-based execution attempt, the
  /// resolved checkpoint cadence, and the session-lifetime recovery
  /// runtime whose checkpoint store survives across attempts.
  int attempt = 1;
  int64_t ckpt_every = 0;
  std::unique_ptr<RecoveryRuntime> recovery;

  QueryTicketPtr ticket;

  // Per-attempt execution state: rebuilt by StartAttempt so a replay
  // runs on fresh endpoints, sinks, and contexts.
  std::vector<std::unique_ptr<Transport>> transports;
  /// Per-node Disk views: shared base data, session-private stats, so
  /// each session's modeled I/O time is byte-identical to a solo run.
  std::vector<std::unique_ptr<ScopedDisk>> disks;
  /// Read-only partition views bound to the scoped disks.
  std::vector<std::unique_ptr<HeapFile>> partitions;
  std::unique_ptr<NetworkModel> net;
  std::unique_ptr<GatherSink> gathered;
  std::vector<std::unique_ptr<NodeContext>> contexts;
  std::vector<Status> statuses;
  std::unique_ptr<FailureFanout> fanout;
  std::atomic<int> nodes_remaining{0};
  std::chrono::steady_clock::time_point wall_start;
};

/// One node's work feed: admitted sessions enqueue one task per node;
/// the node's resident workers block here between queries.
struct ClusterService::NodeTaskQueue {
  struct Task {
    Session* session = nullptr;
    int node = 0;
  };

  void Push(Task t) ADAPTAGG_EXCLUDES(mu) {
    MutexLock lock(&mu);
    tasks.push_back(t);
    cv.NotifyOne();
  }

  /// Blocks for the next task; false once closed and drained.
  bool Pop(Task* out) ADAPTAGG_EXCLUDES(mu) {
    MutexLock lock(&mu);
    while (tasks.empty() && !closed) cv.Wait(mu);
    if (tasks.empty()) return false;
    *out = tasks.front();
    tasks.pop_front();
    return true;
  }

  void Close() ADAPTAGG_EXCLUDES(mu) {
    MutexLock lock(&mu);
    closed = true;
    cv.NotifyAll();
  }

  Mutex mu;
  CondVar cv;
  std::deque<Task> tasks ADAPTAGG_GUARDED_BY(mu);
  bool closed ADAPTAGG_GUARDED_BY(mu) = false;
};

// ---------------------------------------------------------------------------
// ClusterService

Result<std::unique_ptr<ClusterService>> ClusterService::Start(
    ServiceConfig config, PartitionedRelation* rel) {
  if (rel->num_nodes() != config.params.num_nodes) {
    return Status::InvalidArgument(
        "relation has " + std::to_string(rel->num_nodes()) +
        " partitions but the service has " +
        std::to_string(config.params.num_nodes) + " nodes");
  }
  if (config.scheduler.max_inflight < 1) {
    return Status::InvalidArgument("scheduler.max_inflight must be >= 1");
  }
  Cluster::TransportFactory factory = config.transport_factory;
  if (!factory) {
    factory = [](int n) -> Result<std::vector<std::unique_ptr<Transport>>> {
      return MakeInprocMesh(n);
    };
  }
  Result<std::vector<std::unique_ptr<Transport>>> mesh =
      factory(config.params.num_nodes);
  if (!mesh.ok()) return mesh.status();
  return std::unique_ptr<ClusterService>(new ClusterService(
      std::move(config), rel, std::move(factory), std::move(*mesh)));
}

ClusterService::ClusterService(ServiceConfig config, PartitionedRelation* rel,
                               Cluster::TransportFactory mesh_factory,
                               std::vector<std::unique_ptr<Transport>> mesh)
    : config_(std::move(config)),
      rel_(rel),
      mesh_factory_(std::move(mesh_factory)),
      router_(std::make_unique<SessionRouter>(std::move(mesh))),
      cache_(config_.cache_entries),
      scheduler_(config_.scheduler) {
  admitted_ = metrics_.counter("serve.admitted");
  rejected_queue_full_ = metrics_.counter("serve.rejected.queue_full");
  rejected_memory_ = metrics_.counter("serve.rejected.memory");
  cache_hits_ = metrics_.counter("serve.cache.hits");
  cache_misses_ = metrics_.counter("serve.cache.misses");
  completed_ = metrics_.counter("serve.completed");
  aborted_ = metrics_.counter("serve.aborted");
  replays_ = metrics_.counter("serve.recovery.replays");
  resizes_ = metrics_.counter("serve.resizes");
  inflight_high_water_ = metrics_.gauge("serve.inflight_high_water");
  queue_depth_high_water_ = metrics_.gauge("serve.queue_depth_high_water");
  late_frames_dropped_ = metrics_.gauge("serve.late_frames_dropped");
  heartbeats_shared_ = metrics_.gauge("serve.heartbeats_shared");
  // 100us..~6.7s in factor-2 buckets: covers a cache-warm in-process
  // query through a heavily queued one.
  latency_us_ = metrics_.histogram("serve.latency_us",
                                   HistogramSpec::Exponential(100, 2.0, 17));

  const int n = config_.params.num_nodes;
  // max_inflight workers per node: every admitted session (at most
  // max_inflight of them) always finds a free worker on every node, so
  // admission control is the only scheduler and sessions never deadlock
  // waiting for each other's workers.
  const int pool = config_.scheduler.max_inflight;
  task_queues_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    task_queues_.push_back(std::make_unique<NodeTaskQueue>());
  }
  workers_.reserve(static_cast<size_t>(n * pool));
  alive_workers_.store(n * pool, std::memory_order_release);
  for (int i = 0; i < n; ++i) {
    for (int w = 0; w < pool; ++w) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
}

ClusterService::~ClusterService() { Shutdown(); }

Result<QueryTicketPtr> ClusterService::Submit(ServeQuery query) {
  {
    MutexLock lock(&mu_);
    if (!accepting_) {
      return Status::FailedPrecondition("ClusterService is shut down");
    }
  }

  Status valid = ValidateRunOptions(query.spec, query.options);
  if (!valid.ok()) return valid;

  auto session = std::make_unique<Session>();
  session->query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  session->q = std::move(query);
  session->q.options.query_id = session->query_id;
  if (session->q.custom_algorithm != nullptr) {
    session->algo = session->q.custom_algorithm;
  } else {
    session->owned_algo = MakeAlgorithm(session->q.algorithm);
    session->algo = session->owned_algo.get();
  }

  auto ticket = std::make_shared<QueryTicket>();
  ticket->query_id_ = session->query_id;
  ticket->submit_wall_s_ = WallSeconds();
  session->ticket = ticket;

  // Snapshot the system parameters under the lock: Resize rewrites
  // config_.params.num_nodes while the plane is swapped, and this path
  // reads params before deciding whether to park.
  SystemParams params_now;
  {
    MutexLock lock(&mu_);
    params_now = config_.params;
  }

  // Cache: only gathered, fault-free queries are answerable from (and
  // into) the cache — a fault plan changes the outcome, and without
  // gathered rows there is nothing to serve.
  session->rel_version = rel_->version();
  session->cacheable = session->q.options.gather_results &&
                       session->q.options.fault_plan.empty() &&
                       config_.cache_entries > 0;
  if (session->cacheable) {
    session->fingerprint =
        QueryFingerprint(session->q.spec, session->q.options);
    std::optional<ResultCache::Entry> hit =
        cache_.Lookup({session->rel_version, session->fingerprint});
    if (hit.has_value()) {
      cache_hits_.Increment();
      RunResult result;
      result.query_id = session->query_id;
      result.num_nodes = params_now.num_nodes;
      result.from_cache = true;
      result.results = std::move(hit->results);
      const double wall = WallSeconds();
      latency_us_.Observe(
          static_cast<int64_t>((wall - ticket->submit_wall_s_) * 1e6));
      ticket->Complete(std::move(result), wall);
      return ticket;
    }
    cache_misses_.Increment();
  }

  session->est_bytes = EstimateQueryMemoryBytes(
      session->q.spec, session->q.options, params_now);

  MutexLock lock(&mu_);
  if (!accepting_) {
    return Status::FailedPrecondition("ClusterService is shut down");
  }
  // Mid-resize the data plane is being swapped: park the submission in
  // the pending queue (still bounded) and let the post-resize pump
  // admit it against the new node count.
  if (resizing_) {
    if (static_cast<int>(pending_.size()) >=
        config_.scheduler.queue_capacity) {
      rejected_queue_full_.Increment();
      return Status::ResourceExhausted(
          "submission queue full during resize (" +
          std::to_string(pending_.size()) + " queued)");
    }
    pending_.push_back(std::move(session));
    pending_high_water_ = std::max(pending_high_water_, pending_.size());
    queue_depth_high_water_.UpdateMax(
        static_cast<int64_t>(pending_high_water_));
    return ticket;
  }
  const Scheduler::Decision decision = scheduler_.Offer(
      session->est_bytes, static_cast<int>(pending_.size()));
  switch (decision) {
    case Scheduler::Decision::kAdmit: {
      scheduler_.Admit(session->est_bytes);
      Session* raw = session.get();
      active_.emplace(raw->query_id, std::move(session));
      Activate(raw);
      return ticket;
    }
    case Scheduler::Decision::kQueue: {
      pending_.push_back(std::move(session));
      pending_high_water_ = std::max(pending_high_water_, pending_.size());
      queue_depth_high_water_.UpdateMax(
          static_cast<int64_t>(pending_high_water_));
      return ticket;
    }
    case Scheduler::Decision::kRejectQueueFull:
      rejected_queue_full_.Increment();
      return Status::ResourceExhausted(
          "submission queue full (" +
          std::to_string(config_.scheduler.queue_capacity) +
          " queued, " + std::to_string(scheduler_.inflight()) +
          " in flight)");
    case Scheduler::Decision::kRejectMemory:
      rejected_memory_.Increment();
      return Status::ResourceExhausted(
          "estimated working set " + std::to_string(session->est_bytes) +
          " bytes exceeds the service memory budget of " +
          std::to_string(config_.scheduler.memory_budget_bytes) + " bytes");
  }
  return Status::Internal("unreachable scheduler decision");
}

void ClusterService::Activate(Session* s) {
  admitted_.Increment();
  inflight_high_water_.UpdateMax(scheduler_.inflight_high_water());

  // Resolve the recovery configuration once per session, as in
  // Cluster::Run; the checkpoint store lives on the session so a replay
  // attempt reads what the crashed attempt wrote.
  if (s->q.options.recovery.enabled) {
    s->ckpt_every = s->q.options.recovery.checkpoint_every_batches;
    if (s->ckpt_every < 0) {
      const int64_t est_groups = s->q.options.max_hash_entries > 0
                                     ? s->q.options.max_hash_entries
                                     : config_.params.max_hash_entries;
      s->ckpt_every = DecideCheckpointInterval(config_.params, est_groups,
                                               s->q.spec.partial_width())
                          .every_batches;
    }
    s->recovery = std::make_unique<RecoveryRuntime>(
        config_.params.num_nodes, static_cast<int>(config_.params.page_bytes),
        s->ckpt_every,
        MakeCheckpointDiskFactory(
            s->q.options.fault_plan,
            static_cast<int>(config_.params.page_bytes)));
  }

  StartAttempt(s);
}

void ClusterService::StartAttempt(Session* s) {
  // Sessions execute at the current membership epoch; frames a retired
  // pre-resize plane might have left behind carry an older epoch and
  // are dropped on admission.
  s->q.options.epoch = membership_epoch_;
  // A replay runs under a fresh wire-level query id: the crashed
  // attempt's in-flight frames (partial pages, its abort broadcast)
  // still carry the old id through the shared mesh, and the router must
  // drop them as late instead of feeding them into the new attempt.
  // The ticket keeps the original query_id.
  if (s->attempt > 1) {
    s->q.options.query_id =
        next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }

  Result<std::vector<std::unique_ptr<Transport>>> endpoints =
      router_->OpenSession(s->q.options.query_id);
  if (!endpoints.ok()) {
    scheduler_.Release(s->est_bytes);
    RunResult result;
    result.query_id = s->query_id;
    result.status = endpoints.status();
    QueryTicketPtr ticket = std::move(s->ticket);
    active_.erase(s->query_id);
    if (active_.empty()) drained_cv_.NotifyAll();
    ticket->Complete(std::move(result), WallSeconds());
    return;
  }
  s->transports = std::move(*endpoints);

  const int n = config_.params.num_nodes;
  const bool inject_faults = !s->q.options.fault_plan.empty();
  if (inject_faults) {
    for (int i = 0; i < n; ++i) {
      s->transports[static_cast<size_t>(i)] =
          std::make_unique<FaultyTransport>(
              std::move(s->transports[static_cast<size_t>(i)]),
              s->q.options.fault_plan);
    }
  }

  s->net = std::make_unique<NetworkModel>(config_.params);
  s->gathered = std::make_unique<GatherSink>();
  s->fanout = std::make_unique<FailureFanout>();
  // One wall epoch per attempt, as in Cluster::Run, so its nodes' trace
  // wall timelines share an origin.
  const double wall_epoch_s = WallSeconds();
  s->disks.clear();
  s->partitions.clear();
  s->contexts.clear();
  s->disks.reserve(static_cast<size_t>(n));
  s->partitions.reserve(static_cast<size_t>(n));
  s->contexts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    s->disks.push_back(std::make_unique<ScopedDisk>(&rel_->disk(i)));
    s->partitions.push_back(std::make_unique<HeapFile>(
        HeapFile::View(s->disks.back().get(), rel_->partition(i))));
    s->contexts.push_back(std::make_unique<NodeContext>(
        i, config_.params, s->q.spec, s->q.options,
        s->partitions.back().get(), s->disks.back().get(),
        s->transports[static_cast<size_t>(i)].get(), s->net.get(),
        wall_epoch_s));
    s->contexts.back()->SetGather(s->gathered.get());
    if (s->recovery != nullptr) {
      s->contexts.back()->SetRecovery(&s->recovery->node(i));
    }
    if (inject_faults) {
      static_cast<FaultyTransport*>(
          s->transports[static_cast<size_t>(i)].get())
          ->set_observer(MakeFaultObserver(&s->contexts.back()->obs()));
    }
  }
  if (s->recovery != nullptr) {
    s->contexts.front()->obs().RecordDecision(
        "recovery.checkpoint_interval",
        {{"every_batches", s->ckpt_every},
         {"max_attempts",
          static_cast<int64_t>(
              std::max(1, s->q.options.recovery.max_attempts))},
         {"attempt", static_cast<int64_t>(s->attempt)}});
  }

  s->statuses.assign(static_cast<size_t>(n), Status());
  s->nodes_remaining.store(n, std::memory_order_release);
  if (s->attempt == 1) s->wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    task_queues_[static_cast<size_t>(i)]->Push({s, i});
  }
}

void ClusterService::WorkerLoop(int node) {
  NodeTaskQueue& queue = *task_queues_[static_cast<size_t>(node)];
  NodeTaskQueue::Task task;
  while (queue.Pop(&task)) {
    Session& s = *task.session;
    NodeContext& ctx = *s.contexts[static_cast<size_t>(node)];
    Status st = s.algo->RunNode(ctx);
    if (!st.ok()) s.fanout->OnNodeFailure(ctx);
    s.statuses[static_cast<size_t>(node)] = st;
    // The last node to finish assembles the session's result; the
    // acq_rel fence makes every node's writes visible to it.
    if (s.nodes_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      FinishSession(&s);
    }
  }
  alive_workers_.fetch_sub(1, std::memory_order_acq_rel);
}

void ClusterService::FinishSession(Session* s) {
  const auto wall_end = std::chrono::steady_clock::now();
  Status root = PickRootCause(s->statuses);

  // Survivor re-execution: an injected-crash failure earns a replay on
  // fresh endpoints, restoring each node from its latest checkpoint.
  // Any other error (a real abort, a timeout with no crash) keeps the
  // clean-abort path.
  if (!root.ok() && s->recovery != nullptr &&
      s->attempt < std::max(1, s->q.options.recovery.max_attempts)) {
    bool any_crashed = false;
    for (const auto& ctx : s->contexts) any_crashed |= ctx->crashed();
    if (any_crashed) {
      replays_.Increment();
      // Consume the crash specs that fired — first matching spec per
      // crashed node, mirroring CrashForNode — so the replay does not
      // re-crash and a double-crash plan terminates.
      auto& fs = s->q.options.fault_plan.faults;
      for (size_t i = 0; i < s->contexts.size(); ++i) {
        if (!s->contexts[i]->crashed()) continue;
        for (auto it = fs.begin(); it != fs.end(); ++it) {
          if (it->kind == FaultKind::kCrash &&
              it->node == static_cast<int>(i)) {
            fs.erase(it);
            break;
          }
        }
      }
      router_->CloseSession(s->q.options.query_id);
      ++s->attempt;
      MutexLock lock(&mu_);
      StartAttempt(s);
      return;
    }
  }

  RunResult result;
  result.query_id = s->query_id;
  result.wall_time_s =
      std::chrono::duration<double>(wall_end - s->wall_start).count();
  result.status = root;
  if (s->recovery != nullptr) {
    s->contexts.front()->obs().recovery_attempts.Add(s->attempt - 1);
  }
  FinalizeRunResult(s->contexts, *s->net, *s->gathered, s->q.spec, result);
  router_->CloseSession(s->q.options.query_id);

  if (result.status.ok()) {
    completed_.Increment();
    // Cache only when the relation hasn't moved under the run: a
    // version bump mid-query means these rows describe neither the old
    // nor the new contents reliably enough to replay.
    if (s->cacheable && rel_->version() == s->rel_version) {
      cache_.Insert({s->rel_version, s->fingerprint},
                    {result.results, result.sim_time_s});
    }
  } else {
    aborted_.Increment();
  }

  QueryTicketPtr ticket = std::move(s->ticket);
  std::unique_ptr<Session> self;
  {
    MutexLock lock(&mu_);
    auto it = active_.find(s->query_id);
    self = std::move(it->second);
    active_.erase(it);
    scheduler_.Release(s->est_bytes);
    PumpPending();
    if (active_.empty()) drained_cv_.NotifyAll();
  }

  const double wall = WallSeconds();
  latency_us_.Observe(
      static_cast<int64_t>((wall - ticket->submit_wall_s()) * 1e6));
  ticket->Complete(std::move(result), wall);
  // `self` (the session, including the state `result` was assembled
  // from) dies here, after the ticket no longer needs it.
}

void ClusterService::PumpPending() {
  while (!resizing_ && !pending_.empty() &&
         scheduler_.CanStart(pending_.front()->est_bytes)) {
    std::unique_ptr<Session> next = std::move(pending_.front());
    pending_.pop_front();
    scheduler_.Admit(next->est_bytes);
    Session* raw = next.get();
    active_.emplace(raw->query_id, std::move(next));
    Activate(raw);
  }
}

Status ClusterService::Resize(int new_num_nodes) {
  if (new_num_nodes <= 0) {
    return Status::InvalidArgument("num_nodes must be positive");
  }
  {
    MutexLock lock(&mu_);
    if (!accepting_) {
      return Status::FailedPrecondition("ClusterService is shut down");
    }
    if (resizing_) {
      return Status::FailedPrecondition("a resize is already in progress");
    }
    if (new_num_nodes == config_.params.num_nodes) return Status::OK();
    // Quiesce: the flag parks new submissions in pending_ and stalls the
    // completion pump; in-flight sessions drain normally.
    resizing_ = true;
    while (!active_.empty()) drained_cv_.Wait(mu_);
  }

  // Build the replacement mesh before touching the old plane, so a
  // factory failure (e.g. a TCP bind conflict) leaves the service
  // serving at the old size.
  Result<std::vector<std::unique_ptr<Transport>>> mesh =
      mesh_factory_(new_num_nodes);
  if (!mesh.ok()) {
    MutexLock lock(&mu_);
    resizing_ = false;
    PumpPending();
    return mesh.status();
  }

  // Retire the old data plane: no sessions are in flight, so closing
  // the queues and joining the workers cannot strand work.
  for (auto& queue : task_queues_) queue->Close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  task_queues_.clear();
  router_->Stop();

  // Redistribute the relation's tuples across the new node count. On
  // failure the relation may be mid-move and the old plane is gone:
  // fail hard rather than serve wrong shards.
  Status rebalanced = rel_->Rebalance(new_num_nodes);
  if (!rebalanced.ok()) {
    MutexLock lock(&mu_);
    accepting_ = false;
    joined_ = true;  // the workers above are already joined
    resizing_ = false;
    return rebalanced;
  }
  // The relation version bump above already fences the result cache;
  // dropping the entries too keeps its footprint honest.
  cache_.InvalidateAll();

  router_ = std::make_unique<SessionRouter>(std::move(*mesh));
  const int pool = config_.scheduler.max_inflight;
  task_queues_.reserve(static_cast<size_t>(new_num_nodes));
  for (int i = 0; i < new_num_nodes; ++i) {
    task_queues_.push_back(std::make_unique<NodeTaskQueue>());
  }
  workers_.reserve(static_cast<size_t>(new_num_nodes * pool));
  alive_workers_.store(new_num_nodes * pool, std::memory_order_release);
  for (int i = 0; i < new_num_nodes; ++i) {
    for (int w = 0; w < pool; ++w) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  MutexLock lock(&mu_);
  config_.params.num_nodes = new_num_nodes;
  ++membership_epoch_;
  resizes_.Increment();
  resizing_ = false;
  // Admit whatever parked while the plane was down, now at the new size.
  PumpPending();
  return Status::OK();
}

uint32_t ClusterService::membership_epoch() const {
  MutexLock lock(&mu_);
  return membership_epoch_;
}

void ClusterService::Shutdown() {
  std::vector<std::unique_ptr<Session>> rejected;
  bool do_join = false;
  {
    MutexLock lock(&mu_);
    accepting_ = false;
    while (!pending_.empty()) {
      rejected.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    while (!active_.empty()) drained_cv_.Wait(mu_);
    if (!joined_) {
      joined_ = true;
      do_join = true;
    }
  }
  for (std::unique_ptr<Session>& s : rejected) {
    RunResult result;
    result.query_id = s->query_id;
    result.status =
        Status::FailedPrecondition("service shut down before query started");
    s->ticket->Complete(std::move(result), WallSeconds());
  }
  if (do_join) {
    for (auto& queue : task_queues_) queue->Close();
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
    router_->Stop();
  }
}

MetricsSnapshot ClusterService::Metrics() const {
  // Router counters are scraped into gauges at snapshot time (handles
  // are value types, so the const copies below update the same cells).
  Gauge late = late_frames_dropped_;
  late.Set(static_cast<int64_t>(router_->late_frames_dropped()));
  Gauge shared = heartbeats_shared_;
  shared.Set(static_cast<int64_t>(router_->heartbeats_shared()));
  return metrics_.Snapshot();
}

int ClusterService::resident_threads() const {
  return alive_workers_.load(std::memory_order_acquire) +
         router_->alive_demux_threads();
}

}  // namespace adaptagg
