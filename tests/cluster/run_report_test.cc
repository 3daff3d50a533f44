#include "cluster/run_report.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

RunResult MakeRun() {
  WorkloadSpec wspec;
  wspec.num_nodes = 2;
  wspec.num_tuples = 4'000;
  wspec.num_groups = 1'500;  // > M: adaptive switch + spill counters move
  wspec.distribution = GroupDistribution::kSequential;  // exactly 1500 hit
  auto rel = GenerateRelation(wspec);
  EXPECT_TRUE(rel.ok());
  auto spec = MakeBenchQuery(&rel->schema());
  EXPECT_TRUE(spec.ok());
  Cluster cluster(SmallClusterParams(2, 4'000, /*M=*/256));
  return cluster.Run(*MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase),
                     *spec, *rel);
}

TEST(RunReport, ContainsHeadlineNumbersAndPerNodeLines) {
  RunResult run = MakeRun();
  ASSERT_OK(run.status);
  std::string report = RunReport(run);
  EXPECT_NE(report.find("status: OK"), std::string::npos);
  EXPECT_NE(report.find("modeled time:"), std::string::npos);
  EXPECT_NE(report.find("result rows: 1500"), std::string::npos);
  EXPECT_NE(report.find("node 0:"), std::string::npos);
  EXPECT_NE(report.find("node 1:"), std::string::npos);
  EXPECT_NE(report.find("[switched]"), std::string::npos);
  // The report includes network totals and phase lines derived from
  // the merged metric snapshot.
  EXPECT_NE(report.find("network:"), std::string::npos);
  EXPECT_NE(report.find("peak channel depth"), std::string::npos);
  EXPECT_NE(report.find("phase scan:"), std::string::npos);
  EXPECT_NE(report.find("phase merge:"), std::string::npos);
}

TEST(RunReport, SummaryLineParsesKeyFields) {
  RunResult run = MakeRun();
  ASSERT_OK(run.status);
  std::string line = RunSummaryLine(run);
  EXPECT_NE(line.find("sim="), std::string::npos);
  EXPECT_NE(line.find("rows=1500"), std::string::npos);
  EXPECT_NE(line.find("switched=2"), std::string::npos);
  EXPECT_NE(line.find("bytes="), std::string::npos);
  EXPECT_NE(line.find("chdepth="), std::string::npos);
  // A-2P on 2 nodes ships partials, so bytes-on-wire must be nonzero.
  EXPECT_EQ(line.find("bytes=0 "), std::string::npos);
  // One line only.
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(RunReport, ReportsErrorStatus) {
  RunResult run;
  run.status = Status::IOError("disk on fire");
  std::string report = RunReport(run);
  EXPECT_NE(report.find("IOError"), std::string::npos);
  EXPECT_NE(report.find("disk on fire"), std::string::npos);
}

}  // namespace
}  // namespace adaptagg
