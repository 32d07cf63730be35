// Seeded scenario generation for differential testing of the FANN_R
// solvers (see src/testing/differential.h).
//
// A scenario is one fully materialized FANN_R instance: a road network
// plus the query ingredients (P, Q, phi, k_results). GenerateScenario
// derives everything deterministically from a single 64-bit seed and is
// biased toward the shapes that historically break aggregate-NN code:
// tie-heavy uniform grids, graphs with several connected components, Q
// overlapping P, phi at the rounding boundaries (1/|Q| and 1), and
// k_results larger than |P|.
//
// Scenarios serialize to a self-contained text format so that every
// fuzzer-found violation becomes a committed reproducer in tests/corpus/
// that replays without the generating seed or code version.

#ifndef FANNR_TESTING_SCENARIO_H_
#define FANNR_TESTING_SCENARIO_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fann/aggregate.h"
#include "graph/graph.h"

namespace fannr::testing {

/// Which aggregates a differential run should exercise.
enum class AggregateMode {
  kBoth,
  kMaxOnly,
  kSumOnly,
};

/// One differential-testing instance. Copyable (the graph is shared) so
/// the minimizer can cheaply explore shrunken variants.
struct Scenario {
  std::shared_ptr<const Graph> graph;
  std::vector<VertexId> p;  // data points, distinct
  std::vector<VertexId> q;  // query points, distinct (may overlap p)
  /// Optional per-query-point weights aligned with q (empty =
  /// unweighted): solvers select and fold w_i * d(p, q_i) instead of
  /// raw distances (the weighted FANN generalization).
  std::vector<double> weights;
  double phi = 0.5;
  size_t k_results = 1;
  AggregateMode aggregates = AggregateMode::kBoth;
  uint64_t seed = 0;  // provenance; 0 for handcrafted/loaded scenarios
  std::string note;   // human-readable description of the shape
};

/// Deterministically generates the scenario for `seed`.
Scenario GenerateScenario(uint64_t seed);

/// The second query set the batch checks run beside `scenario.q`: every
/// q shifted by |V|/2 (mod |V|). One source is then served to two
/// different Qs, so a cached row bounded by one Q is looked up for the
/// other (a narrow miss). Derived from the scenario's own fields, so
/// corpus files carry nothing new; the shift is a bijection on vertex
/// ids, so the set keeps |Q| distinct members and stays aligned with
/// `scenario.weights`.
std::vector<VertexId> ShiftedQuery(const Scenario& scenario);

/// Serializes `scenario` in the self-contained text format (bitwise
/// round-trips weights and phi). Returns false on I/O failure.
bool WriteScenario(const Scenario& scenario, std::ostream& out);
bool WriteScenarioFile(const Scenario& scenario, const std::string& path);

/// Parses a scenario written by WriteScenario. Returns nullopt (with a
/// message in `error` when non-null) on malformed input.
std::optional<Scenario> ReadScenario(const std::string& text,
                                     std::string* error = nullptr);
std::optional<Scenario> ReadScenarioFile(const std::string& path,
                                         std::string* error = nullptr);

}  // namespace fannr::testing

#endif  // FANNR_TESTING_SCENARIO_H_
