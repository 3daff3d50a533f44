// Microbenchmarks of the hot building blocks (google-benchmark): the
// aggregation hash table (scalar and batched), the spilling aggregator,
// page building, key hashing, and the workload generators — plus a
// wall-clock scalar-vs-batch local-aggregation harness whose numbers are
// written to BENCH_micro_core.json (see EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>

#include "agg/batch_kernels.h"
#include "agg/spilling_aggregator.h"
#include "bench_util.h"
#include "common/random.h"
#include "storage/page.h"
#include "workload/distributions.h"

namespace adaptagg {
namespace {

void BM_HashTableUpsert(benchmark::State& state) {
  Schema schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}});
  auto spec = MakeCountSumSpec(&schema, 0, 1);
  const int64_t groups = state.range(0);
  AggHashTable table(&*spec, groups);
  uint8_t proj[16];
  int64_t v = 1;
  std::memcpy(proj + 8, &v, 8);
  int64_t g = 0;
  for (auto _ : state) {
    std::memcpy(proj, &g, 8);
    uint64_t h = spec->HashKey(proj);
    benchmark::DoNotOptimize(table.UpsertProjected(proj, h));
    g = (g + 1) % groups;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTableUpsert)->Arg(64)->Arg(4096)->Arg(262144);

// The batched counterpart: gathers kBatchWidth raw tuples, hashes all
// keys at once, and upserts through the fused COUNT+SUM kernel.
void BM_HashTableUpsertBatch(benchmark::State& state) {
  Schema schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}});
  auto spec = MakeCountSumSpec(&schema, 0, 1);
  const int64_t groups = state.range(0);
  AggHashTable table(&*spec, groups);
  std::vector<uint8_t> raw(static_cast<size_t>(kBatchWidth) * 16);
  int64_t g = 0;
  int64_t v = 1;
  for (int i = 0; i < kBatchWidth; ++i) {
    std::memcpy(raw.data() + i * 16, &g, 8);
    std::memcpy(raw.data() + i * 16 + 8, &v, 8);
    g = (g + 1) % groups;
  }
  TupleBatch batch(&*spec);
  for (auto _ : state) {
    batch.Clear();
    for (int i = 0; i < kBatchWidth; ++i) {
      TupleView t(raw.data() + i * 16, &schema);
      batch.Gather(t);
    }
    batch.ComputeHashes();
    benchmark::DoNotOptimize(table.UpsertProjectedBatch(batch, 0));
  }
  state.SetItemsProcessed(state.iterations() * kBatchWidth);
}
BENCHMARK(BM_HashTableUpsertBatch)->Arg(64)->Arg(4096)->Arg(262144);

void BM_SpillingAggregatorOverflow(benchmark::State& state) {
  Schema schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}});
  auto spec = MakeCountSumSpec(&schema, 0, 1);
  const int64_t groups = state.range(0);
  uint8_t proj[16];
  int64_t v = 1;
  std::memcpy(proj + 8, &v, 8);
  for (auto _ : state) {
    state.PauseTiming();
    SimDisk disk(4096);
    SpillingAggregator agg(&*spec, &disk, /*max_entries=*/1024);
    state.ResumeTiming();
    for (int64_t i = 0; i < 100'000; ++i) {
      int64_t g = i % groups;
      std::memcpy(proj, &g, 8);
      benchmark::DoNotOptimize(agg.AddProjected(proj));
    }
    int64_t emitted = 0;
    Status st = agg.Finish(
        [&](const uint8_t*, const uint8_t*) { ++emitted; });
    benchmark::DoNotOptimize(st.ok());
    if (emitted != groups) state.SkipWithError("wrong group count");
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_SpillingAggregatorOverflow)->Arg(512)->Arg(8192)->Arg(65536);

void BM_PageBuildAndRead(benchmark::State& state) {
  PageBuilder builder(2048, 16);
  uint8_t rec[16] = {};
  const int cap = PageBuilder::Capacity(2048, 16);
  for (auto _ : state) {
    for (int i = 0; i < cap; ++i) builder.Append(rec);
    std::vector<uint8_t> page = builder.Finish();
    PageReader reader(page.data(), 2048, 16);
    int64_t sum = 0;
    for (int i = 0; i < reader.count(); ++i) {
      sum += reader.record(i)[0];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * cap);
}
BENCHMARK(BM_PageBuildAndRead);

void BM_HashBytes(benchmark::State& state) {
  std::vector<uint8_t> key(static_cast<size_t>(state.range(0)), 0x3c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashBytes(key.data(), key.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashBytes)->Arg(8)->Arg(16)->Arg(64);

void BM_ZipfGenerator(benchmark::State& state) {
  ZipfGenerator zipf(1'000'000, 0.9, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfGenerator);

void BM_PrngNextBelow(benchmark::State& state) {
  Prng prng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prng.NextBelow(1'000'003));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrngNextBelow);

// --- scalar vs batch local-aggregation wall-clock harness ------------

double NowSeconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// One pass of the pre-batch per-tuple pipeline inner loop: project,
/// hash, upsert — exactly what the six algorithms did per tuple.
double RunScalarPass(const AggregationSpec& spec, const Schema& schema,
                     const std::vector<uint8_t>& raw, int64_t tuples,
                     AggHashTable& table) {
  std::vector<uint8_t> proj(static_cast<size_t>(spec.projected_width()));
  const double t0 = NowSeconds();
  for (int64_t i = 0; i < tuples; ++i) {
    TupleView t(raw.data() + i * schema.tuple_size(), &schema);
    spec.ProjectRaw(t, proj.data());
    uint64_t h = spec.HashKey(proj.data());
    benchmark::DoNotOptimize(table.UpsertProjected(proj.data(), h));
  }
  return NowSeconds() - t0;
}

/// One pass of the batched pipeline inner loop: gather a page worth of
/// tuples, hash all keys, run the fused batch upsert.
double RunBatchPass(const AggregationSpec& spec, const Schema& schema,
                    const std::vector<uint8_t>& raw, int64_t tuples,
                    AggHashTable& table) {
  TupleBatch batch(&spec);
  const int rec_size = schema.tuple_size();
  const double t0 = NowSeconds();
  int64_t i = 0;
  while (i < tuples) {
    batch.Clear();
    // Page records are densely packed, so gather them run-at-a-time just
    // like LocalScanner::FillBatch does.
    while (!batch.full() && i < tuples) {
      i += batch.GatherRun(raw.data() + i * rec_size, rec_size,
                           static_cast<int>(std::min<int64_t>(
                               tuples - i, kBatchWidth - batch.size())));
    }
    batch.ComputeHashes();
    benchmark::DoNotOptimize(table.UpsertProjectedBatch(batch, 0));
  }
  return NowSeconds() - t0;
}

void RunLocalAggHarness(bench::BenchJsonWriter& json) {
  const double scale = bench::BenchScale();
  const int64_t tuples =
      std::max<int64_t>(1024, static_cast<int64_t>(4'000'000 * scale));
  Schema schema({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}});
  auto spec = MakeCountSumSpec(&schema, 0, 1);
  if (!spec.ok()) return;

  std::printf("\n=== local aggregation: scalar vs batch ===\n");
  std::printf("COUNT(*), SUM(v) GROUP BY g over %lld tuples, best of 3\n\n",
              static_cast<long long>(tuples));
  bench::TablePrinter table({"groups", "scalar(s)", "batch(s)",
                             "scalar tup/s", "batch tup/s", "speedup"});

  // Low grouping selectivity is the canonical case (the hash table stays
  // in memory); 262144 adds a cache-unfriendly point where the
  // prefetched probes matter most.
  for (int64_t groups : {64LL, 4096LL, 262144LL}) {
    std::vector<uint8_t> raw(static_cast<size_t>(tuples) *
                             schema.tuple_size());
    Prng prng(42 + static_cast<uint64_t>(groups));
    for (int64_t i = 0; i < tuples; ++i) {
      int64_t g = static_cast<int64_t>(
          prng.NextBelow(static_cast<uint64_t>(groups)));
      int64_t v = static_cast<int64_t>(prng.NextBelow(1000));
      std::memcpy(raw.data() + i * 16, &g, 8);
      std::memcpy(raw.data() + i * 16 + 8, &v, 8);
    }

    double scalar_s = 1e300;
    double batch_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      AggHashTable ts(&*spec, groups);
      scalar_s =
          std::min(scalar_s, RunScalarPass(*spec, schema, raw, tuples, ts));
      AggHashTable tb(&*spec, groups);
      batch_s =
          std::min(batch_s, RunBatchPass(*spec, schema, raw, tuples, tb));
    }
    const double scalar_tps = static_cast<double>(tuples) / scalar_s;
    const double batch_tps = static_cast<double>(tuples) / batch_s;
    table.AddRow({bench::FmtInt(groups), bench::FmtSeconds(scalar_s),
                  bench::FmtSeconds(batch_s), bench::FmtSci(scalar_tps), bench::FmtSci(batch_tps),
                  bench::FmtSeconds(scalar_s / batch_s)});
    const std::string suffix = "/groups=" + std::to_string(groups);
    json.AddPoint("local_agg_scalar" + suffix, 0, scalar_s, scalar_tps);
    json.AddPoint("local_agg_batch" + suffix, 0, batch_s, batch_tps);
  }
  table.Print();
}

}  // namespace
}  // namespace adaptagg

int main(int argc, char** argv) {
  adaptagg::bench::SetBenchBinaryName(argv[0]);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  adaptagg::bench::BenchJsonWriter json(
      "micro_core",
      "COUNT+SUM GROUP BY int64, 16B tuples, scale=" +
          adaptagg::bench::FmtSeconds(adaptagg::bench::BenchScale()));
  adaptagg::RunLocalAggHarness(json);
  json.Write();
  return 0;
}
