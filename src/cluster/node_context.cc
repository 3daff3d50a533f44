#include "cluster/node_context.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "model/cost_model.h"

namespace adaptagg {
namespace {

/// Derives the blocking-receive idle deadline from the cost model: the
/// worst-case full-run estimate over the highest-traffic algorithm
/// (Repartitioning at S = 0.5). Simulation runs much faster than the
/// modeled cluster, so the modeled total is a generous wall-clock bound
/// on any single phase. Armed runs get a tight bound (faults should be
/// detected quickly); unarmed runs get a very generous one — there the
/// deadline only exists to turn a would-be-infinite hang into an error.
double DeriveIdleTimeoutS(const SystemParams& params, bool armed) {
  CostModel model(CostModel::Config{params});
  const double modeled =
      model.Time(AlgorithmKind::kRepartitioning, /*selectivity=*/0.5);
  if (armed) return std::clamp(modeled, 5.0, 120.0);
  return std::clamp(60.0 + modeled, 60.0, 600.0);
}

}  // namespace

NodeContext::NodeContext(int node_id, const SystemParams& params,
                         const AggregationSpec& spec,
                         const AlgorithmOptions& options,
                         HeapFile* local_partition, Disk* disk,
                         Transport* transport, NetworkModel* net,
                         double obs_wall_epoch_s)
    : node_id_(node_id),
      params_(params),
      spec_(spec),
      options_(options),
      local_partition_(local_partition),
      disk_(disk),
      transport_(transport),
      net_(net),
      obs_(std::make_unique<NodeObs>(
          node_id, options.obs, &clock_,
          obs_wall_epoch_s >= 0 ? obs_wall_epoch_s : WallSeconds())),
      send_seq_(static_cast<size_t>(params.num_nodes), 0),
      recv_seq_(static_cast<size_t>(params.num_nodes), 0),
      page_seq_(static_cast<size_t>(params.num_nodes), 0),
      last_heard_(static_cast<size_t>(params.num_nodes), WallSeconds()),
      row_buf_(static_cast<size_t>(spec.final_schema().tuple_size())) {
  if (disk_ != nullptr) last_disk_ = disk_->stats();

  armed_ = options.failure.enabled || !options.fault_plan.empty();
  idle_timeout_s_ = options.failure.recv_idle_timeout_s > 0
                        ? options.failure.recv_idle_timeout_s
                        : DeriveIdleTimeoutS(params, armed_);
  heartbeat_interval_s_ = idle_timeout_s_ / 4;
  phase_budget_s_ = 8 * idle_timeout_s_;
  tick_s_ = std::min(idle_timeout_s_ / 4, 0.25);
  last_heartbeat_wall_ = WallSeconds();

  const FaultSpec* crash = options.fault_plan.CrashForNode(node_id);
  if (crash != nullptr) {
    crash_at_tuple_ = crash->tuple;
    crash_at_phase_ = crash->phase;
    hang_ = crash->kind == FaultKind::kHang;
  }
  straggle_secs_ = options.fault_plan.StraggleSecsForNode(node_id);
}

int64_t NodeContext::max_hash_entries() const {
  return options_.max_hash_entries > 0 ? options_.max_hash_entries
                                       : params_.max_hash_entries;
}

int64_t NodeContext::crossover_threshold() const {
  return options_.crossover_threshold > 0
             ? options_.crossover_threshold
             : 100LL * params_.num_nodes;
}

int64_t NodeContext::few_groups_threshold() const {
  return options_.few_groups_threshold > 0 ? options_.few_groups_threshold
                                           : crossover_threshold();
}

Status NodeContext::Send(int to, Message msg) {
  if (to >= 0 && to < num_nodes()) {
    msg.seq = ++send_seq_[static_cast<size_t>(to)];
  }
  net_->OnSend(clock_, msg);
  ++stats_.messages_sent;
  const int64_t bytes = static_cast<int64_t>(msg.payload.size());
  obs_->net_msgs_sent.Increment();
  obs_->net_bytes_sent.Add(bytes);
  obs_->net_pages_sent.Add(
      (bytes + params_.page_bytes - 1) / params_.page_bytes);
  obs_->net_msg_bytes.Observe(bytes);
  return transport_->Send(to, std::move(msg));
}

std::vector<uint8_t> NodeContext::AcquirePageBuffer() {
  std::vector<uint8_t> buf = page_pool_.Acquire();
  if (buf.capacity() > 0) {
    obs_->net_page_pool_hits.Increment();
  } else {
    obs_->net_page_pool_allocs.Increment();
  }
  return buf;
}

void NodeContext::ReleasePageBuffer(std::vector<uint8_t> buf) {
  page_pool_.Release(std::move(buf));
}

Result<bool> NodeContext::AdmitIncoming(const Message& msg) {
  const int from = msg.from;
  if (msg.type == MessageType::kPeerClosed) {
    // The peer's endpoint closed, so its process is gone: fail now
    // rather than wait out the idle deadline.
    obs_->fault_peer_closed.Increment();
    obs_->RecordFault("fault.peer_closed", {{"peer", from}});
    return Status::NetworkError(
        "peer node " + std::to_string(from) +
        " closed its connection in phase '" + current_phase_ +
        "' (presumed crashed)");
  }
  if (from < 0 || from >= num_nodes()) {
    return true;  // unattributed traffic (raw transport users in tests)
  }
  last_heard_[static_cast<size_t>(from)] = WallSeconds();
  if (msg.seq == 0) {
    // Unsequenced: sent around NodeContext (raw transport users).
    return msg.type != MessageType::kHeartbeat;
  }
  uint64_t& last = recv_seq_[static_cast<size_t>(from)];
  if (msg.type == MessageType::kAbort) {
    // Aborts terminate the run; a gap in front of one is irrelevant.
    last = std::max(last, msg.seq);
    return true;
  }
  if (msg.seq <= last) {
    // Already seen (duplicated in transit): silently discard, so a
    // duplicate can never double-count aggregation state.
    obs_->fault_dup_discarded.Increment();
    return false;
  }
  if (msg.seq != last + 1) {
    obs_->fault_seq_gaps.Increment();
    obs_->RecordFault("fault.seq_gap", {{"from", from},
                                        {"expected",
                                         static_cast<int64_t>(last + 1)},
                                        {"got",
                                         static_cast<int64_t>(msg.seq)}});
    return Status::NetworkError(
        "message loss detected: node " + std::to_string(from) +
        " skipped from seq " + std::to_string(last + 1) + " to " +
        std::to_string(msg.seq) + " (phase '" + current_phase_ +
        "'; a message was dropped or rejected in transit)");
  }
  last = msg.seq;
  // Heartbeats are runtime-internal: account them, then swallow them.
  return msg.type != MessageType::kHeartbeat;
}

Result<Message> NodeContext::RecvWithDeadline(double timeout_s) {
  if (!stash_.empty()) {
    Message msg = std::move(stash_.front());
    stash_.pop_front();
    return msg;  // receive costs were charged when first popped
  }
  double remaining = timeout_s;
  while (true) {
    const double t0 = WallSeconds();
    ADAPTAGG_ASSIGN_OR_RETURN(Message msg,
                              transport_->RecvWithDeadline(remaining));
    ADAPTAGG_ASSIGN_OR_RETURN(bool deliver, AdmitIncoming(msg));
    if (deliver) {
      net_->OnReceive(clock_, msg);
      return msg;
    }
    if (remaining >= 0) {
      remaining = std::max(0.0, remaining - (WallSeconds() - t0));
    }
  }
}

Result<std::optional<Message>> NodeContext::TryRecv() {
  if (!stash_.empty()) {
    Message msg = std::move(stash_.front());
    stash_.pop_front();
    return std::optional<Message>(std::move(msg));
  }
  while (std::optional<Message> msg = transport_->TryRecv()) {
    ADAPTAGG_ASSIGN_OR_RETURN(bool deliver, AdmitIncoming(*msg));
    if (!deliver) continue;
    net_->OnReceive(clock_, *msg);
    return std::optional<Message>(std::move(*msg));
  }
  return std::optional<Message>();
}

Result<Message> NodeContext::AwaitMessage(
    const std::function<bool(int)>& pending) {
  if (!armed_) {
    Result<Message> msg = RecvWithDeadline(idle_timeout_s_);
    if (!msg.ok() &&
        msg.status().code() == StatusCode::kDeadlineExceeded) {
      obs_->fault_deadline_aborts.Increment();
      return Status::DeadlineExceeded(
          "no inbound traffic for " + std::to_string(idle_timeout_s_) +
          "s in phase '" + current_phase_ +
          "' (cluster stalled: a message was lost or a peer hung)");
    }
    return msg;
  }
  const double start = WallSeconds();
  while (true) {
    MaybeHeartbeat();
    Result<Message> msg = RecvWithDeadline(tick_s_);
    if (msg.ok() ||
        msg.status().code() != StatusCode::kDeadlineExceeded) {
      return msg;
    }
    const double now = WallSeconds();
    for (int p = 0; p < num_nodes(); ++p) {
      if (p == node_id_ || !pending(p)) continue;
      const double silent = now - last_heard_[static_cast<size_t>(p)];
      if (silent > idle_timeout_s_) {
        obs_->fault_deadline_aborts.Increment();
        obs_->RecordFault("fault.peer_silent", {{"peer", p}});
        return Status::DeadlineExceeded(
            "peer node " + std::to_string(p) + " silent for " +
            std::to_string(silent) + "s in phase '" + current_phase_ +
            "' (presumed crashed; deadline " +
            std::to_string(idle_timeout_s_) + "s)");
      }
    }
    if (now - start > phase_budget_s_) {
      obs_->fault_deadline_aborts.Increment();
      return Status::DeadlineExceeded(
          "phase budget " + std::to_string(phase_budget_s_) +
          "s exceeded in phase '" + current_phase_ +
          "' (peers alive but not progressing)");
    }
  }
}

Status NodeContext::EnterPhase(const char* phase) {
  current_phase_ = phase;
  if (!crash_at_phase_.empty() && !crashed_ &&
      crash_at_phase_ == current_phase_) {
    return InjectCrash("phase boundary '" + current_phase_ + "'");
  }
  return Status::OK();
}

void NodeContext::PollRuntime() {
  if (straggle_secs_ > 0) {
    obs_->fault_straggle_sleeps.Increment();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(straggle_secs_));
  }
  MaybeHeartbeat();
}

void NodeContext::MaybeHeartbeat() {
  if (!armed_) return;
  const double now = WallSeconds();
  if (now - last_heartbeat_wall_ < heartbeat_interval_s_) return;
  last_heartbeat_wall_ = now;
  for (int p = 0; p < num_nodes(); ++p) {
    if (p == node_id_) continue;
    Message hb;
    hb.type = MessageType::kHeartbeat;
    hb.seq = ++send_seq_[static_cast<size_t>(p)];
    // Best-effort: a failed beacon just means the peer's detector fires.
    (void)transport_->Send(p, std::move(hb));
    obs_->fault_heartbeats_sent.Increment();
  }
}

Status NodeContext::CheckScanFault() {
  if (crash_at_tuple_ >= 0 && !crashed_ &&
      stats_.tuples_scanned >= crash_at_tuple_) {
    return InjectCrash("tuple " + std::to_string(stats_.tuples_scanned) +
                       " (phase '" + current_phase_ + "')");
  }
  return Status::OK();
}

Status NodeContext::InjectCrash(const std::string& where) {
  crashed_ = true;
  if (hang_) {
    transport_->SimulateHang();
    obs_->fault_hangs_injected.Increment();
    obs_->RecordFault("fault.hang", {{"node", node_id_}});
    // Peers can only time out on a hung node, so its own status says
    // so too: it ranks with their detection timeouts, never above them.
    return Status::DeadlineExceeded("injected hang at " + where +
                                    " (stopped sending, endpoint open)");
  }
  transport_->SimulateFailStop();
  obs_->fault_crashes_injected.Increment();
  obs_->RecordFault("fault.crash", {{"node", node_id_}});
  return Status::Internal("injected crash at " + where);
}

void NodeContext::SyncDiskIo() {
  if (disk_ == nullptr) return;
  const DiskStats& now = disk_->stats();
  int64_t seq = (now.pages_read_seq - last_disk_.pages_read_seq) +
                (now.pages_written - last_disk_.pages_written);
  int64_t rand = now.pages_read_rand - last_disk_.pages_read_rand;
  if (seq > 0) clock_.AddIo(static_cast<double>(seq) * params_.io_seq_s);
  if (rand > 0) clock_.AddIo(static_cast<double>(rand) * params_.io_rand_s);
  last_disk_ = now;
}

Status NodeContext::EmitFinalRow(const uint8_t* key, const uint8_t* state) {
  spec_.FinalizeRecord(key, state, row_buf_.data());
  // HAVING is evaluated after grouping (§2); rows failing it are never
  // generated or stored.
  if (options_.having != nullptr) {
    clock_.AddCpu(params_.t_r());
    TupleView row(row_buf_.data(), &spec_.final_schema());
    if (!EvalPredicate(*options_.having, row)) {
      ++stats_.rows_filtered_by_having;
      return Status::OK();
    }
  }
  clock_.AddCpu(params_.t_w());  // generating the result tuple
  ++stats_.result_rows;
  if (disk_ != nullptr) {
    if (result_file_ == nullptr) {
      // Session runs namespace the file by query id: concurrent sessions
      // store results on the same shared node disks.
      const std::string name =
          options_.query_id != 0
              ? "result_q" + std::to_string(options_.query_id) + "_n" +
                    std::to_string(node_id_)
              : "result_n" + std::to_string(node_id_);
      ADAPTAGG_ASSIGN_OR_RETURN(
          HeapFile hf,
          HeapFile::Create(disk_, &spec_.final_schema(), name));
      result_file_ = std::make_unique<HeapFile>(std::move(hf));
    }
    ADAPTAGG_RETURN_IF_ERROR(result_file_->AppendRaw(row_buf_.data()));
  }
  if (options_.gather_results) rows_.push_back(row_buf_);
  return Status::OK();
}

Status NodeContext::FinishResults() {
  if (result_file_ != nullptr) {
    ADAPTAGG_RETURN_IF_ERROR(result_file_->Flush());
  }
  SyncDiskIo();
  if (result_file_ != nullptr) {
    // Deleting charges nothing, so modeled time is unaffected; a resident
    // service's disks would otherwise grow by every query's result.
    ADAPTAGG_RETURN_IF_ERROR(result_file_->Drop());
    result_file_.reset();
  }
  return Status::OK();
}

void NodeContext::FinalizeObs() {
  NodeObs& o = *obs_;
  o.scan_tuples.Add(stats_.tuples_scanned);
  o.net_raw_records_sent.Add(stats_.raw_records_sent);
  o.net_partial_records_sent.Add(stats_.partial_records_sent);
  o.net_raw_records_received.Add(stats_.raw_records_received);
  o.net_partial_records_received.Add(stats_.partial_records_received);
  o.core_result_rows.Add(stats_.result_rows);
  o.core_rows_filtered_by_having.Add(stats_.rows_filtered_by_having);
  o.agg_spill_records.Add(stats_.spill.overflow_records);
  o.agg_spill_pages_written.Add(stats_.spill.spill_pages_written);
  o.agg_spill_pages_read.Add(stats_.spill.spill_pages_read);
  if (transport_ != nullptr) {
    o.net_channel_depth_high_water.UpdateMax(
        static_cast<int64_t>(transport_->inbox_high_water()));
    o.fault_frames_rejected.Add(
        static_cast<int64_t>(transport_->frames_rejected()));
  }
}

LocalScanner::LocalScanner(NodeContext* ctx)
    : ctx_(ctx),
      scanner_(ctx->local_partition()),
      where_(ctx->options().where.get()),
      select_cost_(ctx->params().t_r() + ctx->params().t_w()) {}

int LocalScanner::FillBatch(TupleBatch& batch) {
  batch.Clear();
  if (!status_.ok()) return 0;
  const Schema* schema = &ctx_->spec().input_schema();
  const int rec_size = schema->tuple_size();
  const uint8_t* recs[kBatchWidth] = {};
  while (!batch.full()) {
    const int got = scanner_.NextRun(recs, kBatchWidth - batch.size());
    if (got == 0) {
      status_ = scanner_.status();
      ctx_->SyncDiskIo();
      break;
    }
    // Project at gather: on a FileDisk the records only stay valid
    // until the scanner loads the next page. A run is densely packed
    // within one page, so it gathers in one call; WHERE gaps split it
    // into maximal runs of survivors.
    if (where_ == nullptr) {
      batch.GatherRun(recs[0], rec_size, got);
      continue;
    }
    ctx_->clock().AddCpu(static_cast<double>(got) * ctx_->params().t_r());
    for (int i = 0; i < got;) {
      int j = i;
      while (j < got && EvalPredicate(*where_, TupleView(recs[j], schema))) {
        ++j;
      }
      if (j > i) batch.GatherRun(recs[i], rec_size, j - i);
      i = j + 1;  // recs[j] failed the predicate (or j == got)
    }
  }
  const int n = batch.size();
  if (n > 0) {
    ctx_->clock().AddCpu(static_cast<double>(n) * select_cost_);
    ctx_->stats().tuples_scanned += n;
    batch.ComputeHashes();
    // Injected crash-at-tuple faults fire at batch granularity: the
    // first batch boundary at or past the trigger index.
    Status fault = ctx_->CheckScanFault();
    if (!fault.ok()) {
      status_ = fault;
      return 0;
    }
  }
  return n;
}

}  // namespace adaptagg
