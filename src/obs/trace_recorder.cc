#include "obs/trace_recorder.h"

#include <chrono>

namespace adaptagg {

double WallSeconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

void TraceRecorder::RecordSpan(
    std::string name, double sim_begin_s, double sim_end_s,
    double wall_begin_s, double wall_end_s,
    std::vector<std::pair<std::string, int64_t>> args) {
  if (!enabled_) return;
  TraceEvent e;
  e.kind = TraceEvent::Kind::kSpan;
  e.name = std::move(name);
  e.node_id = node_id_;
  e.sim_begin_s = sim_begin_s;
  e.sim_end_s = sim_end_s;
  e.wall_begin_s = wall_begin_s;
  e.wall_end_s = wall_end_s;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void TraceRecorder::RecordInstant(
    std::string name, double sim_at_s,
    std::vector<std::pair<std::string, int64_t>> args) {
  if (!enabled_) return;
  TraceEvent e;
  e.kind = TraceEvent::Kind::kInstant;
  e.name = std::move(name);
  e.node_id = node_id_;
  e.sim_begin_s = sim_at_s;
  e.sim_end_s = sim_at_s;
  e.wall_begin_s = WallSeconds() - wall_epoch_s_;
  e.wall_end_s = e.wall_begin_s;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

PhaseTimer::PhaseTimer(TraceRecorder* recorder, MetricRegistry* registry,
                       const CostClock* clock, std::string name)
    : recorder_(recorder),
      registry_(registry),
      clock_(clock),
      name_(std::move(name)),
      sim_begin_s_(clock != nullptr ? clock->now() : 0),
      wall_begin_s_(WallSeconds()) {}

void PhaseTimer::AddArg(const std::string& key, int64_t value) {
  if (ended_) return;
  args_.emplace_back(key, value);
}

void PhaseTimer::End() {
  if (ended_) return;
  ended_ = true;
  const double sim_end = clock_ != nullptr ? clock_->now() : 0;
  const double wall_end = WallSeconds();
  const double sim_us = (sim_end - sim_begin_s_) * 1e6;
  const double wall_us = (wall_end - wall_begin_s_) * 1e6;
  registry_->counter("phase." + name_ + ".sim_us")
      .Add(static_cast<int64_t>(sim_us + 0.5));
  registry_->counter("phase." + name_ + ".wall_us")
      .Add(static_cast<int64_t>(wall_us + 0.5));
  registry_->counter("phase." + name_ + ".count").Increment();
  if (recorder_->enabled()) {
    const double epoch = recorder_->wall_epoch_s();
    recorder_->RecordSpan(name_, sim_begin_s_, sim_end,
                          wall_begin_s_ - epoch, wall_end - epoch,
                          std::move(args_));
  }
}

}  // namespace adaptagg
