#include "obs/metric_registry.h"

#include <algorithm>

namespace adaptagg {

std::string MetricKindToString(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

internal_obs::MetricCell* MetricRegistry::FindOrCreate(
    const std::string& name, MetricKind kind, const HistogramSpec* spec) {
  MutexLock lock(&mu_);
  for (internal_obs::MetricCell& cell : cells_) {
    if (cell.name == name) {
      if (cell.kind != kind) {
        errors_.push_back("metric '" + name + "' registered as " +
                          MetricKindToString(cell.kind) +
                          " but requested as " + MetricKindToString(kind));
        return nullptr;
      }
      return &cell;
    }
  }
  cells_.emplace_back();
  internal_obs::MetricCell& cell = cells_.back();
  cell.name = name;
  cell.kind = kind;
  if (spec != nullptr) {
    cell.hist_spec = *spec;
    for (int i = 0; i < spec->num_buckets(); ++i) {
      cell.buckets.emplace_back(0);
    }
  }
  return &cell;
}

Counter MetricRegistry::counter(const std::string& name) {
  internal_obs::MetricCell* cell =
      FindOrCreate(name, MetricKind::kCounter, nullptr);
  return cell != nullptr ? Counter(&cell->value) : Counter();
}

Gauge MetricRegistry::gauge(const std::string& name) {
  internal_obs::MetricCell* cell =
      FindOrCreate(name, MetricKind::kGauge, nullptr);
  return cell != nullptr ? Gauge(&cell->value) : Gauge();
}

Histogram MetricRegistry::histogram(const std::string& name,
                                    const HistogramSpec& spec) {
  internal_obs::MetricCell* cell =
      FindOrCreate(name, MetricKind::kHistogram, &spec);
  return cell != nullptr ? Histogram(cell) : Histogram();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    MutexLock lock(&mu_);
    snap.entries.reserve(cells_.size());
    for (const internal_obs::MetricCell& cell : cells_) {
      MetricsSnapshot::Entry e;
      e.name = cell.name;
      e.kind = cell.kind;
      e.value = cell.value.load(std::memory_order_relaxed);
      if (cell.kind == MetricKind::kHistogram) {
        e.edges = cell.hist_spec.edges;
        e.bucket_counts.reserve(cell.buckets.size());
        for (const std::atomic<int64_t>& b : cell.buckets) {
          e.bucket_counts.push_back(b.load(std::memory_order_relaxed));
        }
      }
      snap.entries.push_back(std::move(e));
    }
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const MetricsSnapshot::Entry& a,
               const MetricsSnapshot::Entry& b) { return a.name < b.name; });
  return snap;
}

std::vector<std::string> MetricRegistry::registration_errors() const {
  MutexLock lock(&mu_);
  return errors_;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const Entry& theirs : other.entries) {
    auto it = std::lower_bound(
        entries.begin(), entries.end(), theirs.name,
        [](const Entry& e, const std::string& name) {
          return e.name < name;
        });
    if (it == entries.end() || it->name != theirs.name) {
      entries.insert(it, theirs);
      continue;
    }
    Entry& mine = *it;
    switch (mine.kind) {
      case MetricKind::kCounter:
        mine.value += theirs.value;
        break;
      case MetricKind::kGauge:
        mine.value = std::max(mine.value, theirs.value);
        break;
      case MetricKind::kHistogram:
        mine.value += theirs.value;
        if (mine.edges == theirs.edges &&
            mine.bucket_counts.size() == theirs.bucket_counts.size()) {
          for (size_t i = 0; i < mine.bucket_counts.size(); ++i) {
            mine.bucket_counts[i] += theirs.bucket_counts[i];
          }
        }
        break;
    }
  }
}

int64_t MetricsSnapshot::Value(const std::string& name) const {
  const Entry* e = Find(name);
  return e != nullptr ? e->value : 0;
}

const MetricsSnapshot::Entry* MetricsSnapshot::Find(
    const std::string& name) const {
  auto it = std::lower_bound(entries.begin(), entries.end(), name,
                             [](const Entry& e, const std::string& n) {
                               return e.name < n;
                             });
  if (it == entries.end() || it->name != name) return nullptr;
  return &*it;
}

}  // namespace adaptagg
