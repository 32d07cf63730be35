// Tests for the differential fuzzing harness itself (src/testing/):
// the scenario generator's coverage of adversarial shapes, the
// serialization round-trip, and a sweep of seeds through the full
// cross-solver checker — the in-suite slice of what tools/fuzz_fannr
// runs at scale.

#include "testing/differential.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "fann/gd.h"
#include "graph/builder.h"
#include "testing/scenario.h"

namespace fannr {
namespace {

using testing::AggregateMode;
using testing::DifferentialOptions;
using testing::GenerateScenario;
using testing::ReadScenario;
using testing::RunDifferentialChecks;
using testing::Scenario;
using testing::WriteScenario;

TEST(ScenarioGeneratorTest, IsDeterministic) {
  for (uint64_t seed : {1u, 17u, 58u}) {
    const Scenario a = GenerateScenario(seed);
    const Scenario b = GenerateScenario(seed);
    EXPECT_EQ(a.p, b.p) << "seed " << seed;
    EXPECT_EQ(a.q, b.q) << "seed " << seed;
    EXPECT_EQ(a.phi, b.phi) << "seed " << seed;
    EXPECT_EQ(a.k_results, b.k_results) << "seed " << seed;
    EXPECT_EQ(a.note, b.note) << "seed " << seed;
    EXPECT_EQ(a.graph->NumVertices(), b.graph->NumVertices());
    EXPECT_EQ(a.graph->NumEdges(), b.graph->NumEdges());
  }
}

TEST(ScenarioGeneratorTest, CoversTheAdversarialShapes) {
  std::set<std::string> notes;
  bool saw_phi_one = false;
  bool saw_phi_min = false;
  bool saw_k_results_above_p = false;
  bool saw_weighted = false;
  bool saw_pow2_weighted = false;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    const Scenario s = GenerateScenario(seed);
    notes.insert(s.note);
    if (s.phi == 1.0) saw_phi_one = true;
    if (s.phi <= 1.0 / static_cast<double>(s.q.size()) + 1e-12) {
      saw_phi_min = true;
    }
    if (s.k_results > s.p.size()) saw_k_results_above_p = true;
    if (!s.weights.empty()) {
      ASSERT_EQ(s.weights.size(), s.q.size()) << "seed " << seed;
      saw_weighted = true;
      const bool pow2 = std::all_of(
          s.weights.begin(), s.weights.end(), [](double w) {
            return w == 0.25 || w == 0.5 || w == 1.0 || w == 2.0 || w == 4.0;
          });
      if (pow2) saw_pow2_weighted = true;
    }
  }
  // All five graph shapes must appear in a modest seed range.
  EXPECT_TRUE(notes.count("tie-grid"));
  EXPECT_TRUE(notes.count("jittered-grid"));
  EXPECT_TRUE(notes.count("geometric"));
  EXPECT_TRUE(notes.count("disconnected-tie-grids"));
  EXPECT_TRUE(notes.count("disconnected-mixed"));
  // ... as must the phi and k_results edge cases.
  EXPECT_TRUE(saw_phi_one);
  EXPECT_TRUE(saw_phi_min);
  EXPECT_TRUE(saw_k_results_above_p);
  // ... and both weighted flavors (arbitrary and tie-preserving
  // power-of-two weights).
  EXPECT_TRUE(saw_weighted);
  EXPECT_TRUE(saw_pow2_weighted);
}

TEST(ScenarioSerializationTest, RoundTripsBitwise) {
  bool round_tripped_weights = false;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Scenario original = GenerateScenario(seed);
    std::ostringstream first;
    ASSERT_TRUE(WriteScenario(original, first));
    std::string error;
    const auto reparsed = ReadScenario(first.str(), &error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    EXPECT_EQ(reparsed->p, original.p);
    EXPECT_EQ(reparsed->q, original.q);
    EXPECT_EQ(reparsed->phi, original.phi);  // bitwise via %.17g
    EXPECT_EQ(reparsed->k_results, original.k_results);
    EXPECT_EQ(reparsed->weights, original.weights);  // bitwise via %.17g
    if (!original.weights.empty()) round_tripped_weights = true;
    std::ostringstream second;
    ASSERT_TRUE(WriteScenario(*reparsed, second));
    EXPECT_EQ(first.str(), second.str()) << "seed " << seed;
  }
  // The sweep must have exercised the weights line, not just skipped it.
  EXPECT_TRUE(round_tripped_weights);
}

TEST(ScenarioSerializationTest, RejectsMalformedWeights) {
  // Start from a valid weighted scenario and corrupt only its weights
  // line: non-positive, non-finite, count mismatched with |Q|.
  Scenario weighted;
  for (uint64_t seed = 1; weighted.weights.empty(); ++seed) {
    ASSERT_LE(seed, 200u) << "no weighted scenario in the seed range";
    weighted = GenerateScenario(seed);
  }
  ASSERT_GT(weighted.q.size(), 1u);
  std::ostringstream out;
  ASSERT_TRUE(WriteScenario(weighted, out));
  const std::string good = out.str();
  const size_t line_start = good.find("\nweights ");
  ASSERT_NE(line_start, std::string::npos);
  const size_t value_start = good.find(' ', line_start + 1);
  const size_t line_end = good.find('\n', line_start + 1);
  ASSERT_NE(line_end, std::string::npos);

  const auto parses = [](const std::string& text) {
    return ReadScenario(text).has_value();
  };
  ASSERT_TRUE(parses(good));

  std::string bad = good;
  bad.replace(value_start + 1, line_end - value_start - 1,
              std::to_string(weighted.weights.size()) + " -1.0");
  EXPECT_FALSE(parses(bad)) << "negative weight accepted";

  bad = good;
  bad.replace(value_start + 1, line_end - value_start - 1,
              std::to_string(weighted.weights.size()) + " nan");
  EXPECT_FALSE(parses(bad)) << "non-finite weight accepted";

  bad = good;
  bad.replace(value_start + 1, line_end - value_start - 1, "1 2.0");
  EXPECT_FALSE(parses(bad)) << "weight count != |Q| accepted";
}

TEST(ScenarioSerializationTest, RejectsMalformedInput) {
  for (const char* bad : {
           "",                                  // empty
           "not-a-scenario 1\nend\n",           // wrong magic
           "fannr-scenario 1\ngraph 2 1\n",     // truncated
           "fannr-scenario 1\np 1 7\nend\n",    // p before graph
       }) {
    std::string error;
    EXPECT_FALSE(ReadScenario(bad, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(DifferentialCheckTest, SeededScenariosAreClean) {
  // A miniature fuzz run inside the test suite. The CI fuzz job covers a
  // much larger range; this keeps the invariants wired into ctest.
  DifferentialOptions options;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const auto violations =
        RunDifferentialChecks(GenerateScenario(seed), options);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << ": " << violations.front();
  }
}

TEST(DifferentialCheckTest, HandcraftedTieScenarioIsClean) {
  // A 3x3 uniform grid where every P-vertex ties pairwise in g_phi: the
  // canonical (distance, vertex id) order is the only thing that makes
  // solver outputs comparable, so this would catch any tie-break drift.
  GraphBuilder builder;
  const double cell = 1000.0;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      builder.AddVertex({c * cell, r * cell});
    }
  }
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const VertexId u = static_cast<VertexId>(r * 3 + c);
      if (c + 1 < 3) builder.AddEdge(u, u + 1, cell);
      if (r + 1 < 3) builder.AddEdge(u, u + 3, cell);
    }
  }
  Scenario s;
  s.graph = std::make_shared<const Graph>(builder.Build());
  s.p = {0, 2, 6, 8};  // the four corners: symmetric, maximal ties
  s.q = {4, 1, 3, 5, 7};
  s.phi = 0.6;  // k = 3
  s.k_results = 4;
  s.note = "handcrafted corner ties";
  const auto violations = RunDifferentialChecks(s, DifferentialOptions{});
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(DifferentialCheckTest, HandcraftedWeightedScenarioIsClean) {
  // The corner-tie grid again, but weighted: power-of-two weights keep
  // every product w_i * d exact, so the harness's bitwise cross-checks
  // stay live while the weighted SelectAndFold path is exercised
  // end-to-end (oracle matrix scaling, solver filtering, permutation
  // invariance with rotated weights).
  GraphBuilder builder;
  const double cell = 1000.0;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      builder.AddVertex({c * cell, r * cell});
    }
  }
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const VertexId u = static_cast<VertexId>(r * 3 + c);
      if (c + 1 < 3) builder.AddEdge(u, u + 1, cell);
      if (r + 1 < 3) builder.AddEdge(u, u + 3, cell);
    }
  }
  Scenario s;
  s.graph = std::make_shared<const Graph>(builder.Build());
  s.p = {0, 2, 6, 8};
  s.q = {4, 1, 3, 5, 7};
  s.weights = {2.0, 0.5, 1.0, 0.5, 4.0};
  s.phi = 0.6;  // k = 3
  s.k_results = 4;
  s.note = "handcrafted weighted corner ties";
  const auto violations = RunDifferentialChecks(s, DifferentialOptions{});
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(DifferentialCheckTest, CornerTiesAreBitwiseAndWinnerIsMinId) {
  // Asserts the precondition that makes the harness's tie checks live on
  // uniform grids — the four corner data points really do tie bitwise in
  // g_phi — and that the solvers break the tie toward the smallest
  // vertex id, the canonical order every solver must share.
  GraphBuilder builder;
  const double cell = 1000.0;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      builder.AddVertex({c * cell, r * cell});
    }
  }
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const VertexId u = static_cast<VertexId>(r * 3 + c);
      if (c + 1 < 3) builder.AddEdge(u, u + 1, cell);
      if (r + 1 < 3) builder.AddEdge(u, u + 3, cell);
    }
  }
  const Graph graph = builder.Build();
  IndexedVertexSet p(graph.NumVertices(), {0, 2, 6, 8});
  IndexedVertexSet q(graph.NumVertices(), {4, 1, 3, 5, 7});
  GphiResources resources;
  resources.graph = &graph;
  auto engine = MakeGphiEngine(GphiKind::kIne, resources);
  FannQuery query{&graph, &p, &q, 0.6, Aggregate::kSum};
  const FannResult best = SolveGd(query, *engine);
  // All four corners tie bitwise; the deterministic winner is vertex 0.
  EXPECT_EQ(best.best, 0u);
  for (VertexId corner : {2u, 6u, 8u}) {
    GphiResult r = engine->Evaluate(corner, query.FlexSubsetSize(),
                                    Aggregate::kSum);
    EXPECT_EQ(r.distance, best.distance) << "corner " << corner;
  }
}

}  // namespace
}  // namespace fannr
