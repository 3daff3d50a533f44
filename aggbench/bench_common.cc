#include "bench_common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/simd.h"
#include "obs/metrics_export.h"
#include "obs/trace_export.h"

namespace aggbench {

using adaptagg::ResultSet;

double Samples::Rank(double q) const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Median() const {
  return values_.empty() ? std::nan("") : Rank(0.5);
}

std::optional<double> Samples::Percentile(double q) const {
  const double n = static_cast<double>(values_.size());
  if (values_.empty() || n - std::ceil(q * n) < 10) return std::nullopt;
  return Rank(q);
}

std::optional<double> Samples::WindowedPercentile(double q,
                                                  size_t windows) const {
  const size_t per = windows > 0 ? values_.size() / windows : 0;
  if (per == 0) return std::nullopt;
  Samples per_window;
  for (size_t w = 0; w < windows; ++w) {
    Samples slice;
    slice.values_.assign(values_.begin() + w * per,
                         values_.begin() + (w + 1) * per);
    const std::optional<double> p = slice.Percentile(q);
    if (!p) return std::nullopt;
    per_window.Add(*p);
  }
  return per_window.Median();
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail(name + " is not finite");
    return;
  }
  end_to_end_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail(name + " is not finite");
    return;
  }
  layer_.push_back({name, value, unit});
}

void Report::Fail(const std::string& why) {
  problems_.push_back(why);
  std::fprintf(stderr, "aggbench: %s\n", why.c_str());
}

void Report::FillUnmeasuredLayers() {
  static const Metric kWorkloadSpecific[] = {
      {"query_ms_p90", 0, "ms"},
      {"serve_ms_p50_lo", 0, "ms"},
      {"serve_ms_p50_hi", 0, "ms"},
      {"serve_ms_p95_lo", 0, "ms"},
      {"serve_ms_p95_hi", 0, "ms"},
      {"serve_max_qps", 0, "queries/s"},
      {"serve.submit_us_p50", 0, "us"},
      {"serve.queue_ms_p50", 0, "ms"},
      {"serve.queue_ms_p99", 0, "ms"},
      {"serve.exec_ms_p50", 0, "ms"},
      {"serve.cache_hit_ratio", 0, "fraction"},
      {"serve.inflight_high_water", 0, "queries"},
      {"serve.queue_depth_high_water", 0, "queries"},
      {"bench.gen_lag_ms_p99", 0, "ms"},
      {"recovery.armed_query_ms_p50", 0, "ms"},
      {"recovery.overhead_ms_p50", 0, "ms"},
  };
  for (const Metric& m : kWorkloadSpecific) {
    const bool printed = std::any_of(
        layer_.begin(), layer_.end(),
        [&](const Metric& have) { return have.name == m.name; });
    if (!printed) layer_.push_back(m);
  }
}

void Report::Print(const std::string& host_stamp_json,
                   const std::string& path) const {
  const bool correct = failed_ == 0 && problems_.empty();
  std::string metrics = "{";
  for (size_t i = 0; i < printed().size(); ++i) {
    const Metric& m = printed()[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (i > 0 ? ", \"" : "\"") + adaptagg::JsonEscape(m.name) +
               "\": {\"value\": " + value + ", \"unit\": \"" +
               adaptagg::JsonEscape(m.unit) + "\"}";
  }
  metrics += "}";
  const std::string line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_) +
      ", \"metrics\": " + metrics + "}";

  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"host\": %s,\n \"result\": %s}\n",
                 host_stamp_json.c_str(), line.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "aggbench: cannot write %s\n", path.c_str());
  }
  std::printf("host: %s\n%s\n", host_stamp_json.c_str(), line.c_str());
  std::fflush(stdout);
}

SpanLog::SpanLog(bool enabled) : recorder_(0, enabled, Now()) {}

int64_t SpanLog::Begin(const std::string& name, int64_t parent,
                       int64_t query) {
  if (!enabled()) return 0;
  const int64_t id = next_id_++;
  open_.push_back({id, name, parent, query, Now()});
  return id;
}

void SpanLog::End(int64_t id) {
  if (id == 0) return;
  const double end_s = Now();
  for (size_t i = open_.size(); i-- > 0;) {
    if (open_[i].id != id) continue;
    const Open o = open_[i];
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
    // The exporter's primary timeline is the simulated clock; the
    // benchmark's spans live on wall time, so both timelines carry the
    // wall interval.
    const double b = o.begin_s - recorder_.wall_epoch_s();
    const double e = end_s - recorder_.wall_epoch_s();
    recorder_.RecordSpan(o.name, b, e, b, e,
                         {{"span", o.id}, {"parent", o.parent},
                          {"query", o.query}});
    return;
  }
}

void SpanLog::Write(const std::string& path) const {
  if (!enabled()) return;
  adaptagg::Status st =
      adaptagg::WriteChromeTrace(recorder_.events(), 1, path);
  if (!st.ok()) {
    std::fprintf(stderr, "aggbench: trace export to %s failed: %s\n",
                 path.c_str(), st.ToString().c_str());
  }
}

ResultSet ExpectedFor(const ResultSet& oracle, int64_t min_key) {
  ResultSet filtered;
  filtered.schema = oracle.schema;
  for (int64_t i = 0; i < oracle.num_rows(); ++i) {
    if (oracle.row(i).GetInt64(0) > min_key) {
      filtered.rows.push_back(oracle.rows[static_cast<size_t>(i)]);
    }
  }
  return filtered;
}

bool RowsMatch(const ResultSet& got, const ResultSet& want) {
  return adaptagg::ResultSetsEqual(got, want);
}

void CorruptOneRow(ResultSet& rows) {
  if (!rows.rows.empty() && !rows.rows[0].empty()) {
    rows.rows[0].back() ^= 0x5a;
  }
}

bool SimTimeMatches(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

bool SetupTimes::Build() {
  const std::optional<double> s = build_();
  if (!s) return false;
  times_.Add(*s);
  return true;
}

bool SetupTimes::RebuildIfDue(double start, double seconds) {
  if (rebuilds_ == kRebuilds ||
      Now() - start < seconds * rebuilds_ / kRebuilds) {
    return true;
  }
  ++rebuilds_;
  return Rebuild();
}

ResultFileSweeper::ResultFileSweeper(adaptagg::PartitionedRelation* rel)
    : rel_(rel) {
  for (int n = 0; n < rel->num_nodes(); ++n) {
    swept_.push_back(rel->partition(n).file_id());
  }
}

void ResultFileSweeper::Sweep() {
  for (int n = 0; n < rel_->num_nodes(); ++n) {
    adaptagg::Disk& disk = rel_->disk(n);
    auto marker = disk.CreateFile("aggbench.sweep");
    if (!marker.ok()) continue;
    for (adaptagg::FileId id = swept_[static_cast<size_t>(n)] + 1;
         id <= *marker; ++id) {
      if (id != rel_->partition(n).file_id()) (void)disk.DeleteFile(id);
    }
    swept_[static_cast<size_t>(n)] = *marker;
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string HostStampJson(const RunOptions& opts) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  using adaptagg::JsonEscape;
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"llc_bytes\": " + std::to_string(llc > 0 ? llc : 0) +
         ", \"compiler\": \"" + JsonEscape(compiler) +
         "\", \"build_type\": \"" AGGBENCH_BUILD_TYPE
         "\", \"simd\": \"" +
         adaptagg::simd::DispatchName() + "\", \"git_sha\": \"" +
         JsonEscape(opts.git_sha) + "\", \"workload\": \"" +
         JsonEscape(opts.workload) +
         "\", \"seed\": " + std::to_string(opts.seed) +
         ", \"seconds\": " + std::to_string(opts.seconds) +
         ", \"trace\": " + (opts.trace ? "1" : "0") + "}";
}

void ReportEngineCounters(Report& r, const adaptagg::MetricsSnapshot& m,
                          int64_t queries) {
  const double q = static_cast<double>(std::max<int64_t>(1, queries));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  r.Layer("storage.spill_pages_written",
          Val(m, "agg.spill.pages_written") / q, "pages/query");
  r.Layer("storage.spill_pages_read", Val(m, "agg.spill.pages_read") / q,
          "pages/query");
  r.Layer("storage.checkpoint_bytes", Val(m, "recovery.checkpoint_bytes") / q,
          "bytes/query");
  r.Layer("agg.spill_records", Val(m, "agg.spill.records") / q,
          "records/query");
  r.Layer("agg.ht_hit_ratio",
          ratio(Val(m, "agg.ht.hits"), Val(m, "agg.ht.probes")), "fraction");
  r.Layer("net.bytes_sent_per_query", Val(m, "net.bytes_sent") / q,
          "bytes/query");
  r.Layer("net.pages_sent_per_query", Val(m, "net.pages_sent") / q,
          "pages/query");
  r.Layer("net.channel_depth_high_water",
          Val(m, "net.channel_depth_high_water"), "messages");
  r.Layer("net.page_pool_hit_ratio",
          ratio(Val(m, "net.page_pool_hits"),
                Val(m, "net.page_pool_hits") + Val(m, "net.page_pool_allocs")),
          "fraction");
  r.Layer("core.scan_wall_ms", Val(m, "phase.scan.wall_us") / 1e3 / q,
          "ms/query");
  r.Layer("core.merge_wall_ms", Val(m, "phase.merge.wall_us") / 1e3 / q,
          "ms/query");
  r.Layer("core.emit_wall_ms", Val(m, "phase.emit.wall_us") / 1e3 / q,
          "ms/query");
  r.Layer("core.sample_wall_ms", Val(m, "phase.sample.wall_us") / 1e3 / q,
          "ms/query");
  r.Layer("core.switches_per_query", Val(m, "core.switches") / q,
          "switches/query");
  r.Layer("recovery.attempts", Val(m, "recovery.attempts") / q,
          "attempts/query");
  r.Layer("recovery.checkpoints_written",
          Val(m, "recovery.checkpoints_written") / q, "ckpts/query");
  r.Layer("recovery.checkpoints_skipped",
          Val(m, "recovery.checkpoints_skipped") / q, "ckpts/query");
  r.Layer("recovery.pages_deduped", Val(m, "recovery.pages_deduped") / q,
          "pages/query");
}

}  // namespace aggbench
