// aggbench: the repository benchmark. One run measures one workload for
// --seconds and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The line before it
// stamps the host. See METHODOLOGY.md.
//
//   aggbench --workload few_groups --seed 1 --seconds 15 --trace 0
//            [--out-dir DIR] [--git-sha SHA] [--smoke] [--corrupt-row]
//            [--corrupt-sim]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "common/logging.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "aggbench: %s\nusage: aggbench --workload "
               "{few_groups|many_groups|serve_mix|crash_recover} --seed N "
               "--seconds S --trace {0|1} [--out-dir DIR] [--git-sha SHA] "
               "[--smoke] [--corrupt-row] [--corrupt-sim]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  aggbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--corrupt-row") {
      opts.corrupt_row = true;
    } else if (arg == "--corrupt-sim") {
      opts.corrupt_sim = true;
    } else if (const char* v = value(); v == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opts.workload = v;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--out-dir") {
      opts.out_dir = v;
    } else if (arg == "--git-sha") {
      opts.git_sha = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opts.seconds <= 0) return Usage("--seconds must be positive");

  adaptagg::SetLogLevel(adaptagg::LogLevel::kWarning);
  aggbench::Report report(opts.trace);
  if (opts.workload == "serve_mix") {
    aggbench::RunServeWorkload(opts, report);
  } else if (opts.workload == "few_groups" ||
             opts.workload == "many_groups" ||
             opts.workload == "crash_recover") {
    aggbench::RunEngineWorkload(opts, report);
  } else {
    return Usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  report.FillUnmeasuredLayers();
  const std::string stamp = aggbench::HostStampJson(opts);
  report.Print(stamp, opts.out_dir + "/result_" + opts.workload + "_" +
                          std::to_string(opts.seed) + "_" +
                          (opts.trace ? "1" : "0") + ".json");
  return 0;
}
