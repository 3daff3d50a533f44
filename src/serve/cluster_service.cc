#include "serve/cluster_service.h"

#include <algorithm>
#include <utility>

#include "core/algorithm.h"
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

/// One admitted query's execution state: its QueryExecution plus the
/// current attempt's router session id, scoped disks and partition
/// views. Owned by the service's active_ map from admission until the
/// last node finishes.
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

  QueryTicketPtr ticket;

  /// Router session id of the current attempt: the ticket's query_id
  /// first, a fresh id on each replay.
  uint32_t wire_query_id = 0;
  /// Per-node Disk views of the current attempt: shared base data,
  /// session-private stats, so each session's modeled I/O time is
  /// byte-identical to a solo run.
  std::vector<std::unique_ptr<ScopedDisk>> disks;
  /// Read-only partition views bound to the scoped disks.
  std::vector<std::unique_ptr<HeapFile>> partitions;
  /// Built on admission; owns the attempt loop and recovery runtime.
  /// Declared last: its node contexts reference the views above.
  std::unique_ptr<QueryExecution> exec;
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
  const int n = config.params.num_nodes;
  Result<std::vector<std::unique_ptr<Transport>>> mesh =
      config.transport_factory ? config.transport_factory(n)
                               : MakeInprocMesh(n);
  if (!mesh.ok()) return mesh.status();
  return std::unique_ptr<ClusterService>(
      new ClusterService(std::move(config), rel, std::move(*mesh)));
}

ClusterService::ClusterService(ServiceConfig config, PartitionedRelation* rel,
                               std::vector<std::unique_ptr<Transport>> mesh)
    : config_(std::move(config)),
      rel_(rel),
      router_(std::move(mesh)),
      cache_(config_.cache_entries),
      scheduler_(config_.scheduler) {
  admitted_ = metrics_.counter("serve.admitted");
  rejected_queue_full_ = metrics_.counter("serve.rejected.queue_full");
  cache_hits_ = metrics_.counter("serve.cache.hits");
  cache_misses_ = metrics_.counter("serve.cache.misses");
  completed_ = metrics_.counter("serve.completed");
  aborted_ = metrics_.counter("serve.aborted");
  replays_ = metrics_.counter("serve.recovery.replays");
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
      result.num_nodes = config_.params.num_nodes;
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

  MutexLock lock(&mu_);
  if (!accepting_) {
    return Status::FailedPrecondition("ClusterService is shut down");
  }
  const Scheduler::Decision decision =
      scheduler_.Offer(static_cast<int>(pending_.size()));
  switch (decision) {
    case Scheduler::Decision::kAdmit: {
      scheduler_.Admit();
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
  }
  return Status::Internal("unreachable scheduler decision");
}

void ClusterService::Activate(Session* s) {
  admitted_.Increment();
  inflight_high_water_.UpdateMax(scheduler_.inflight_high_water());
  s->exec = std::make_unique<QueryExecution>(config_.params, s->q.spec,
                                             s->q.options, *s->algo);
  s->wire_query_id = s->query_id;
  StartAttempt(s);
}

void ClusterService::StartAttempt(Session* s) {
  Result<std::vector<std::unique_ptr<Transport>>> endpoints =
      router_.OpenSession(s->wire_query_id);
  if (!endpoints.ok()) {
    scheduler_.Release();
    RunResult result;
    result.query_id = s->query_id;
    result.status = endpoints.status();
    QueryTicketPtr ticket = std::move(s->ticket);
    active_.erase(s->query_id);
    if (active_.empty()) drained_cv_.NotifyAll();
    ticket->Complete(std::move(result), WallSeconds());
    return;
  }

  const int n = config_.params.num_nodes;
  s->partitions.clear();
  s->disks.clear();
  std::vector<QueryExecution::NodeStorage> storage;
  storage.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    s->disks.push_back(std::make_unique<ScopedDisk>(&rel_->disk(i)));
    s->partitions.push_back(std::make_unique<HeapFile>(
        HeapFile::View(s->disks.back().get(), rel_->partition(i))));
    storage.push_back({s->partitions.back().get(), s->disks.back().get()});
  }
  s->exec->BeginAttempt(std::move(*endpoints), storage, s->wire_query_id);
  for (int i = 0; i < n; ++i) {
    task_queues_[static_cast<size_t>(i)]->Push({s, i});
  }
}

void ClusterService::WorkerLoop(int node) {
  NodeTaskQueue& queue = *task_queues_[static_cast<size_t>(node)];
  NodeTaskQueue::Task task;
  while (queue.Pop(&task)) {
    // The last node to finish the attempt replays or completes it.
    if (task.session->exec->RunNode(node)) FinishSession(task.session);
  }
  alive_workers_.fetch_sub(1, std::memory_order_acq_rel);
}

void ClusterService::FinishSession(Session* s) {
  router_.CloseSession(s->wire_query_id);
  // Survivor re-execution: an injected-crash failure earns a replay,
  // restoring each node from its latest checkpoint. It runs under a
  // fresh wire-level query id: the crashed attempt's in-flight frames
  // (partial pages, its abort broadcast) still carry the old id through
  // the shared mesh, and the router must drop them as late instead of
  // feeding them into the new attempt. The ticket keeps its query_id.
  if (s->exec->PrepareReplay()) {
    replays_.Increment();
    s->wire_query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(&mu_);
    StartAttempt(s);
    return;
  }

  RunResult result = s->exec->Finish();
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
    scheduler_.Release();
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
  while (!pending_.empty() && scheduler_.CanStart()) {
    std::unique_ptr<Session> next = std::move(pending_.front());
    pending_.pop_front();
    scheduler_.Admit();
    Session* raw = next.get();
    active_.emplace(raw->query_id, std::move(next));
    Activate(raw);
  }
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
    router_.Stop();
  }
}

MetricsSnapshot ClusterService::Metrics() const {
  // Router counters are scraped into gauges at snapshot time (handles
  // are value types, so the const copies below update the same cells).
  Gauge late = late_frames_dropped_;
  late.Set(static_cast<int64_t>(router_.late_frames_dropped()));
  Gauge shared = heartbeats_shared_;
  shared.Set(static_cast<int64_t>(router_.heartbeats_shared()));
  return metrics_.Snapshot();
}

int ClusterService::resident_threads() const {
  return alive_workers_.load(std::memory_order_acquire) +
         router_.alive_demux_threads();
}

}  // namespace adaptagg
