// Per-layer probes: the benchmark times its own calls to each layer's
// public functions over every partition of the workload's relation, one
// clock read pair per call. The probes replay what a node's local phase
// does (scan a page run, project it into a batch, hash the keys, upsert)
// and what the merge side does (fold partial records, emit groups), and
// push the projected stream through an in-process exchange.

#include <memory>
#include <optional>
#include <vector>

#include "agg/batch_kernels.h"
#include "agg/spilling_aggregator.h"
#include "cluster/exchange.h"
#include "cluster/node_context.h"
#include "net/network_model.h"
#include "net/transport.h"
#include "storage/disk.h"
#include "storage/heap_file.h"
#include "workload/generator.h"
#include "workloads.h"

namespace aggbench {
namespace {

using adaptagg::AggregationSpec;
using adaptagg::SpillingAggregator;
using adaptagg::Status;
using adaptagg::TupleBatch;

/// Accumulated busy time of one probed function.
struct Busy {
  double seconds = 0;
  int64_t items = 0;

  double NsPerItem() const {
    return items > 0 ? seconds * 1e9 / static_cast<double>(items) : 0;
  }
};

/// Calls `fn` and adds its wall time to `busy`.
template <typename Fn>
auto Timed(Busy& busy, Fn&& fn) {
  const double t0 = Now();
  auto out = fn();
  busy.seconds += Now() - t0;
  return out;
}

/// Scans partition `node` through HeapFileScanner::NextRun, projecting
/// every page run into `batch` and handing each full (and the final
/// partial) batch to `on_batch`. Scan and gather calls are timed.
template <typename OnBatch>
Status ScanPartition(const adaptagg::HeapFile& file, TupleBatch& batch,
                     Busy& scan, Busy& gather, OnBatch&& on_batch) {
  adaptagg::HeapFileScanner scanner(&file);
  const int rec_size = file.schema().tuple_size();
  const uint8_t* ptrs[adaptagg::kBatchWidth];
  batch.Clear();
  for (;;) {
    const int n = Timed(scan, [&] {
      return scanner.NextRun(ptrs, adaptagg::kBatchWidth);
    });
    if (n == 0) break;
    scan.items += n;
    for (int done = 0; done < n;) {
      const int got = Timed(gather, [&] {
        return batch.GatherRun(ptrs[done], rec_size, n - done);
      });
      gather.items += got;
      done += got;
      if (batch.full()) {
        ADAPTAGG_RETURN_IF_ERROR(on_batch(batch));
        batch.Clear();
      }
    }
  }
  if (batch.size() > 0) ADAPTAGG_RETURN_IF_ERROR(on_batch(batch));
  return scanner.status();
}

}  // namespace

void RunLayerProbes(adaptagg::PartitionedRelation& rel,
                    const adaptagg::SystemParams& params,
                    int64_t max_entries, Report& report, SpanLog& spans) {
  Span probes(spans, "probes");
  auto made = adaptagg::MakeBenchQuery(&rel.schema());
  if (!made.ok()) {
    report.Fail("probe spec: " + made.status().ToString());
    return;
  }
  const AggregationSpec& spec = *made;
  const int nodes = rel.num_nodes();
  const int partial_width = spec.partial_width();
  auto fail = [&](const char* what, const Status& st) {
    report.Fail(std::string("probe ") + what + ": " + st.ToString());
  };

  // Local phase per node: scan, gather, hash, upsert at M.
  Busy scan, gather, hash, upsert;
  std::vector<std::vector<uint8_t>> partials(static_cast<size_t>(nodes));
  {
    Span span(spans, "probe.local", probes.id());
    TupleBatch batch(&spec);
    for (int node = 0; node < nodes; ++node) {
      adaptagg::SimDisk disk(rel.disk(node).page_size());
      SpillingAggregator agg(&spec, &disk, max_entries);
      Status st = ScanPartition(
          rel.partition(node), batch, scan, gather, [&](TupleBatch& b) {
            Timed(hash, [&] {
              b.ComputeHashes();
              return 0;
            });
            hash.items += b.size();
            upsert.items += b.size();
            return Timed(upsert, [&] { return agg.AddProjectedBatch(b); });
          });
      if (!st.ok()) return fail("local", st);
      std::vector<uint8_t>& out = partials[static_cast<size_t>(node)];
      st = agg.Finish([&](const uint8_t* key, const uint8_t* state) {
        out.insert(out.end(), key, key + spec.key_width());
        out.insert(out.end(), state, state + spec.state_width());
      });
      if (!st.ok()) return fail("local finish", st);
    }
  }

  // Merge side: route every node's partials to their owner, then fold
  // them with AddPartialBatch and emit with Finish (spill buckets
  // included), both at M.
  Busy merge, finish;
  {
    Span span(spans, "probe.merge", probes.id());
    std::vector<std::vector<uint8_t>> routed(static_cast<size_t>(nodes));
    TupleBatch view(&spec);
    for (const std::vector<uint8_t>& part : partials) {
      const int n = static_cast<int>(part.size() / partial_width);
      for (int off = 0; off < n; off += adaptagg::kBatchWidth) {
        const int run = std::min(n - off, adaptagg::kBatchWidth);
        view.BindView(part.data() + static_cast<size_t>(off) * partial_width,
                      partial_width, run);
        view.ComputeHashes();
        for (int i = 0; i < run; ++i) {
          std::vector<uint8_t>& dst = routed[static_cast<size_t>(
              adaptagg::DestOfKeyHash(view.hash(i), nodes))];
          dst.insert(dst.end(), view.record(i), view.record(i) + partial_width);
        }
      }
    }
    for (int node = 0; node < nodes; ++node) {
      const std::vector<uint8_t>& in = routed[static_cast<size_t>(node)];
      adaptagg::SimDisk disk(rel.disk(node).page_size());
      SpillingAggregator agg(&spec, &disk, max_entries);
      const int n = static_cast<int>(in.size() / partial_width);
      for (int off = 0; off < n; off += adaptagg::kBatchWidth) {
        const int run = std::min(n - off, adaptagg::kBatchWidth);
        view.BindView(in.data() + static_cast<size_t>(off) * partial_width,
                      partial_width, run);
        view.ComputeHashes();
        merge.items += run;
        Status st = Timed(merge, [&] { return agg.AddPartialBatch(view); });
        if (!st.ok()) return fail("merge", st);
      }
      Status st = Timed(finish, [&] {
        return agg.Finish([&](const uint8_t*, const uint8_t*) {
          ++finish.items;
        });
      });
      if (!st.ok()) return fail("finish", st);
    }
  }

  // Exchange scatter: every projected record routed by AddBatch through
  // node 0's exchange on an in-process mesh (FlushAll at the end); the
  // inboxes are drained untimed every few batches, as the engine's scan
  // loop polls.
  Busy scatter;
  {
    Span span(spans, "probe.scatter", probes.id());
    adaptagg::SystemParams p = params;
    p.num_nodes = nodes;
    std::vector<std::unique_ptr<adaptagg::Transport>> mesh =
        adaptagg::MakeInprocMesh(nodes);
    adaptagg::NetworkModel net(p);
    adaptagg::AlgorithmOptions options;
    adaptagg::NodeContext ctx(0, p, spec, options, nullptr, nullptr,
                              mesh[0].get(), &net);
    adaptagg::Exchange exchange(&ctx, adaptagg::MessageType::kRawPage,
                                spec.projected_width(), /*phase=*/1);
    auto drain = [&] {
      for (auto& endpoint : mesh) {
        while (std::optional<adaptagg::Message> msg = endpoint->TryRecv()) {
          ctx.ReleasePageBuffer(std::move(msg->payload));
        }
      }
    };
    Busy unused_scan, unused_gather;
    TupleBatch batch(&spec);
    int64_t batches = 0;
    for (int node = 0; node < nodes; ++node) {
      Status st = ScanPartition(
          rel.partition(node), batch, unused_scan, unused_gather,
          [&](TupleBatch& b) {
            b.ComputeHashes();
            scatter.items += b.size();
            Status sent = Timed(scatter, [&] { return exchange.AddBatch(b); });
            if (++batches % 8 == 0) drain();
            return sent;
          });
      if (!st.ok()) return fail("scatter", st);
    }
    Status st = Timed(scatter, [&] { return exchange.FlushAll(); });
    drain();
    if (!st.ok()) return fail("scatter flush", st);
  }

  report.Layer("storage.scan_ns_per_tuple", scan.NsPerItem(), "ns");
  report.Layer("agg.gather_ns_per_tuple", gather.NsPerItem(), "ns");
  report.Layer("agg.hash_ns_per_tuple", hash.NsPerItem(), "ns");
  report.Layer("agg.upsert_ns_per_tuple", upsert.NsPerItem(), "ns");
  report.Layer("agg.merge_ns_per_record", merge.NsPerItem(), "ns");
  report.Layer("agg.finish_ns_per_group", finish.NsPerItem(), "ns");
  report.Layer("cluster.scatter_ns_per_record", scatter.NsPerItem(), "ns");
}

}  // namespace aggbench
