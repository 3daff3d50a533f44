#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace_export.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

/// Minimal recursive-descent JSON syntax checker — enough to prove the
/// exporter emits well-formed JSON without depending on a parser
/// library. Returns true iff `s` is exactly one valid JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// Golden run: 2 nodes, enough groups that A-2P switches, full tracing.
RunResult TracedRun() {
  WorkloadSpec wspec;
  wspec.num_nodes = 2;
  wspec.num_tuples = 4'000;
  wspec.num_groups = 1'500;
  wspec.distribution = GroupDistribution::kSequential;
  auto rel = GenerateRelation(wspec);
  EXPECT_TRUE(rel.ok());
  auto spec = MakeBenchQuery(&rel->schema());
  EXPECT_TRUE(spec.ok());
  Cluster cluster(SmallClusterParams(2, 4'000, /*M=*/256));
  AlgorithmOptions opts;
  opts.obs = ObsConfig::Full();
  return cluster.Run(*MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase),
                     *spec, *rel, opts);
}

#if !defined(ADAPTAGG_OBS_DISABLED)

TEST(ChromeTrace, ExportIsValidJson) {
  RunResult run = TracedRun();
  ASSERT_OK(run.status);
  ASSERT_FALSE(run.trace_events.empty());
  const std::string json = ChromeTraceJson(run.trace_events, run.num_nodes);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeTrace, OneNamedTrackPerNode) {
  RunResult run = TracedRun();
  ASSERT_OK(run.status);
  const std::string json = ChromeTraceJson(run.trace_events, run.num_nodes);
  ASSERT_EQ(run.num_nodes, 2);
  // Every node gets a thread_name metadata event naming its track.
  EXPECT_NE(json.find("\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"node 1\""), std::string::npos);
  // And every span's tid is a real node id.
  std::vector<bool> node_has_span(static_cast<size_t>(run.num_nodes));
  for (const TraceEvent& e : run.trace_events) {
    ASSERT_GE(e.node_id, 0);
    ASSERT_LT(e.node_id, run.num_nodes);
    if (e.kind == TraceEvent::Kind::kSpan) {
      node_has_span[static_cast<size_t>(e.node_id)] = true;
    }
  }
  for (int node = 0; node < run.num_nodes; ++node) {
    EXPECT_TRUE(node_has_span[static_cast<size_t>(node)])
        << "node " << node << " recorded no spans";
  }
}

TEST(ChromeTrace, PhaseSpansDoNotOverlapWithinANode) {
  RunResult run = TracedRun();
  ASSERT_OK(run.status);
  std::map<int, std::vector<const TraceEvent*>> spans_by_node;
  for (const TraceEvent& e : run.trace_events) {
    if (e.kind == TraceEvent::Kind::kSpan) {
      EXPECT_GE(e.sim_end_s, e.sim_begin_s) << e.name;
      spans_by_node[e.node_id].push_back(&e);
    }
  }
  for (auto& [node, spans] : spans_by_node) {
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->sim_begin_s < b->sim_begin_s;
              });
    for (size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i]->sim_begin_s + 1e-12, spans[i - 1]->sim_end_s)
          << "node " << node << ": " << spans[i - 1]->name
          << " overlaps " << spans[i]->name;
    }
  }
}

TEST(ChromeTrace, SpanTotalsTrackTheModeledRunTime) {
  RunResult run = TracedRun();
  ASSERT_OK(run.status);
  // Acceptance criterion: per-track span durations must sum to the
  // node's modeled clock within 1% — the spans tile the whole run.
  std::vector<double> span_total(static_cast<size_t>(run.num_nodes), 0.0);
  for (const TraceEvent& e : run.trace_events) {
    if (e.kind == TraceEvent::Kind::kSpan) {
      span_total[static_cast<size_t>(e.node_id)] += e.sim_duration_s();
    }
  }
  for (int node = 0; node < run.num_nodes; ++node) {
    const double clock = run.clocks[static_cast<size_t>(node)].now();
    const double spans = span_total[static_cast<size_t>(node)];
    ASSERT_GT(clock, 0.0);
    EXPECT_NEAR(spans, clock, 0.01 * clock)
        << "node " << node << ": spans sum to " << spans
        << " s but the node clock reads " << clock << " s";
  }
}

TEST(ChromeTrace, AdaptiveSwitchInstantCarriesDecisionInputs) {
  RunResult run = TracedRun();
  ASSERT_OK(run.status);
  // 1500 groups against M=256 forces the A-2P overflow switch on both
  // nodes; the instant must carry the observed cardinality inputs.
  int switch_instants = 0;
  for (const TraceEvent& e : run.trace_events) {
    if (e.kind != TraceEvent::Kind::kInstant) continue;
    if (e.name != "switch.overflow") continue;
    ++switch_instants;
    std::map<std::string, int64_t> args(e.args.begin(), e.args.end());
    EXPECT_GT(args["at_tuple"], 0);
    EXPECT_EQ(args["table_limit"], 256);
    EXPECT_GE(args["table_size"], args["table_limit"]);
  }
  EXPECT_EQ(switch_instants, 2);
}

TEST(ChromeTrace, PhaseCountersAgreeWithSpans) {
  RunResult run = TracedRun();
  ASSERT_OK(run.status);
  // The registry's phase.<name>.sim_us counters are derived from the
  // same spans the trace carries; totals must agree (to rounding).
  std::map<std::string, double> span_us;
  std::map<std::string, int64_t> span_count;
  for (const TraceEvent& e : run.trace_events) {
    if (e.kind != TraceEvent::Kind::kSpan) continue;
    span_us[e.name] += e.sim_duration_s() * 1e6;
    ++span_count[e.name];
  }
  ASSERT_FALSE(span_us.empty());
  for (const auto& [name, us] : span_us) {
    EXPECT_NEAR(
        static_cast<double>(run.metrics.Value("phase." + name + ".sim_us")),
        us, 1.0 * static_cast<double>(span_count[name]))
        << "phase " << name;
    EXPECT_EQ(run.metrics.Value("phase." + name + ".count"),
              span_count[name]);
  }
}

TEST(ChromeTrace, WriteChromeTraceRoundTripsThroughDisk) {
  RunResult run = TracedRun();
  ASSERT_OK(run.status);
  const std::string path =
      ::testing::TempDir() + "/adaptagg_trace_test.json";
  ASSERT_OK(WriteChromeTrace(run.trace_events, run.num_nodes, path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(JsonChecker(contents).Valid());
}

TEST(ChromeTrace, TracesOffByDefaultKeepsRunResultLean) {
  WorkloadSpec wspec;
  wspec.num_nodes = 2;
  wspec.num_tuples = 2'000;
  wspec.num_groups = 50;
  auto rel = GenerateRelation(wspec);
  ASSERT_TRUE(rel.ok());
  auto spec = MakeBenchQuery(&rel->schema());
  ASSERT_TRUE(spec.ok());
  Cluster cluster(SmallClusterParams(2, 2'000));
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                              *spec, *rel);  // default options
  ASSERT_OK(run.status);
  EXPECT_TRUE(run.trace_events.empty());
  EXPECT_FALSE(run.metrics.empty());  // metrics still on by default
}

TEST(ChromeTrace, SimdDispatchInstantRecordedOncePerRun) {
  RunResult run = TracedRun();
  ASSERT_OK(run.status);
  int dispatch_instants = 0;
  for (const TraceEvent& e : run.trace_events) {
    if (e.kind == TraceEvent::Kind::kInstant && e.name == "simd.dispatch") {
      ++dispatch_instants;
    }
  }
  EXPECT_EQ(dispatch_instants, 1);
}

#else

TEST(ChromeTrace, DisabledBuildProducesNoEvents) {
  RunResult run = TracedRun();
  ASSERT_OK(run.status);
  EXPECT_TRUE(run.trace_events.empty());
  const std::string json = ChromeTraceJson(run.trace_events, run.num_nodes);
  EXPECT_TRUE(JsonChecker(json).Valid());
}

#endif  // !defined(ADAPTAGG_OBS_DISABLED)

}  // namespace
}  // namespace adaptagg
