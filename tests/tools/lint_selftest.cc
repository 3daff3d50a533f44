// Self-test of tools/adaptagg_lint: runs the real binary over fixture
// trees and asserts that (a) every rule fires on its dedicated
// violating file and (b) clean code — including banned tokens that
// appear only inside comments and string literals — produces no
// findings. The binary path and the fixture root are injected by CMake
// as ADAPTAGG_LINT_BIN / ADAPTAGG_LINT_FIXTURES.

#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun RunLint(const std::string& root) {
  LintRun run;
  const std::string cmd =
      std::string(ADAPTAGG_LINT_BIN) + " " + root + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.output.append(buf, n);
  }
  const int rc = pclose(pipe);
  if (WIFEXITED(rc)) run.exit_code = WEXITSTATUS(rc);
  return run;
}

// True when some finding line carries both the [rule] tag and the file.
bool HasFinding(const std::string& output, const std::string& rule,
                const std::string& file) {
  std::istringstream ss(output);
  std::string line;
  while (std::getline(ss, line)) {
    if (line.find("[" + rule + "]") != std::string::npos &&
        line.find(file) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string Fixture(const char* tree) {
  return std::string(ADAPTAGG_LINT_FIXTURES) + "/" + tree;
}

TEST(LintSelfTest, EveryRuleFiresOnItsViolationFixture) {
  const LintRun run = RunLint(Fixture("violations"));
  EXPECT_EQ(run.exit_code, 1) << run.output;

  const struct {
    const char* rule;
    const char* file;
  } kExpected[] = {
      {"G1", "src/g1_bad_guard.h"},
      {"G2", "src/badName.h"},
      {"S1", "src/s1_throw.h"},
      {"S2", "src/s2_using.h"},
      {"S3", "src/s3_long_line.h"},
      {"S4", "src/s4util/s4_pairing.cc"},
      {"S5", "src/common/status.h"},
      {"S6", "src/s6_stdout.h"},
      {"S7", "src/obs/s7_undoc.h"},
      {"S8", "src/s8_bare_recv.h"},
      {"S9", "src/s9_scalar.h"},
      {"S10", "src/s10_mutex.h"},
      {"D1", "src/d1_wall.h"},
      {"D2", "src/d2_rand.h"},
      {"D3", "src/d3_unordered.h"},
      {"S11", "src/s11_intrinsics.h"},
      {"S12", "src/s12_cluster_run.h"},
      {"S13", "src/s13_checkpoint.h"},
  };
  for (const auto& e : kExpected) {
    EXPECT_TRUE(HasFinding(run.output, e.rule, e.file))
        << "rule " << e.rule << " did not fire on " << e.file
        << "\nfull output:\n"
        << run.output;
  }
}

TEST(LintSelfTest, BothS10VariantsFire) {
  const LintRun run = RunLint(Fixture("violations"));
  // Raw std::mutex and an unannotated adaptagg::Mutex are distinct
  // findings on the same fixture.
  EXPECT_TRUE(run.output.find("std::mutex is invisible") !=
              std::string::npos)
      << run.output;
  EXPECT_TRUE(run.output.find("'unguarded_' has no ADAPTAGG_GUARDED_BY") !=
              std::string::npos)
      << run.output;
}

TEST(LintSelfTest, CleanTreeProducesNoFindings) {
  const LintRun run = RunLint(Fixture("clean"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(run.output.find("files clean") != std::string::npos)
      << run.output;
}

TEST(LintSelfTest, CommentAndStringContentsStayExempt) {
  // The clean tree's tokens_in_comments.h names nearly every banned
  // token inside comments and string literals; a zero-finding run
  // proves the stripper keeps them out of rule scope.
  const LintRun run = RunLint(Fixture("clean"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_FALSE(run.output.find("tokens_in_comments.h") !=
               std::string::npos &&
               run.output.find("[") != std::string::npos)
      << run.output;
}

}  // namespace
