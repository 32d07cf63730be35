// Replays every committed fuzzer reproducer in tests/corpus/ through the
// full differential + invariant checker. Each file is a minimized,
// self-contained scenario for a bug the fuzzer once found (see
// tools/fuzz_fannr.cc); keeping them green keeps those bugs fixed.

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/differential.h"
#include "testing/scenario.h"

namespace fannr {
namespace {

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(FANNR_CORPUS_DIR)) {
    if (entry.path().extension() == ".scenario") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CorpusReplayTest, CorpusIsNonEmpty) {
  ASSERT_TRUE(std::filesystem::exists(FANNR_CORPUS_DIR));
  EXPECT_GE(CorpusFiles().size(), 10u);
}

TEST(CorpusReplayTest, EveryReproducerIsClean) {
  for (const std::string& path : CorpusFiles()) {
    std::string error;
    const auto scenario = testing::ReadScenarioFile(path, &error);
    ASSERT_TRUE(scenario.has_value()) << path << ": " << error;
    const auto violations =
        testing::RunDifferentialChecks(*scenario, testing::DifferentialOptions{});
    EXPECT_TRUE(violations.empty())
        << path << " (" << testing::DescribeScenario(*scenario) << "):\n  "
        << (violations.empty() ? "" : violations.front());
  }
}

TEST(CorpusReplayTest, ReproducersRoundTripBitwise) {
  // A reproducer must survive write -> read -> write unchanged, or the
  // corpus silently drifts away from the bug it pins down.
  for (const std::string& path : CorpusFiles()) {
    std::string error;
    const auto scenario = testing::ReadScenarioFile(path, &error);
    ASSERT_TRUE(scenario.has_value()) << path << ": " << error;
    std::ostringstream first;
    ASSERT_TRUE(testing::WriteScenario(*scenario, first));
    const auto reparsed = testing::ReadScenario(first.str(), &error);
    ASSERT_TRUE(reparsed.has_value()) << path << ": " << error;
    std::ostringstream second;
    ASSERT_TRUE(testing::WriteScenario(*reparsed, second));
    EXPECT_EQ(first.str(), second.str()) << path;
  }
}

}  // namespace
}  // namespace fannr
