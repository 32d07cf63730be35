// Differential testing + invariant checking across the FANN_R solvers.
//
// RunDifferentialChecks executes one scenario (src/testing/scenario.h)
// through every applicable FannAlgorithm — directly via fann/dispatch.h
// and in parallel via the BatchQueryEngine — plus the k-FANN_R variants,
// and audits the results against the brute-force oracle
// (src/testing/oracle.h) and a set of metamorphic invariants:
//
//   * exact solvers return the oracle optimum, and same-engine solver
//     families (GD / R-List / IER-kNN) return bitwise-identical full
//     k-FANN result lists (deterministic (distance, vertex id) order);
//   * equal-distance ties are broken by ascending vertex id everywhere;
//   * the top-1 of every k-FANN solver equals its FANN_R counterpart;
//   * a k-FANN list is a prefix of the list for a larger k_results;
//   * d* is monotonically nondecreasing in phi;
//   * results are invariant under permutation of P and Q and under
//     re-execution (seed/run invariance);
//   * APX-sum respects the paper's approximation bound (<= 3x, and
//     <= 2x when Q is a subset of P);
//   * the batch engine returns bitwise-identical results for every
//     thread count, matching the oracle, on Q and on a second Q
//     (ShiftedQuery) so its cache serves one source to two Qs.
//
// Violations come back as human-readable strings (empty = scenario
// passed). MinimizeScenario greedily shrinks a failing scenario while
// preserving at least one violation that replays deterministically, for
// committing to tests/corpus/.

#ifndef FANNR_TESTING_DIFFERENTIAL_H_
#define FANNR_TESTING_DIFFERENTIAL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "fann/gphi.h"
#include "testing/scenario.h"

namespace fannr::testing {

struct DifferentialOptions {
  /// g_phi engines to drive the solvers with. Index-free kinds only by
  /// default (INE, A*) so scenarios need no prebuilt substrate index.
  std::vector<GphiKind> engine_kinds = {GphiKind::kIne, GphiKind::kAStar};

  /// Also run the batch through BatchQueryEngine at 1 and
  /// `batch_threads` threads and require bitwise-equal results.
  bool check_batch = true;
  size_t batch_threads = 3;

  /// Include the `batch_threads`-thread engine (on a 2-entry cache)
  /// in the batch check. Its workers share the cache in a
  /// scheduling-dependent order, so a violation only it shows may not
  /// come back on a rerun; every other check is deterministic.
  bool check_multi_thread_batch = true;

  /// Metamorphic invariants (phi-monotonicity, permutation and rerun
  /// invariance, k-prefix consistency).
  bool check_invariants = true;

  /// Skip the naive subset-enumeration oracle cross-check when
  /// C(|Q|, k) exceeds this bound (SolveNaive is for toy instances).
  size_t naive_subset_limit = 20000;

  /// Cap on emitted violation strings per scenario.
  size_t max_violations = 24;
};

/// Runs every check on `scenario`; returns the violations (empty =
/// clean).
std::vector<std::string> RunDifferentialChecks(
    const Scenario& scenario, const DifferentialOptions& options = {});

/// Greedily shrinks a failing scenario (drops P/Q members, lowers
/// k_results, narrows the aggregate mode) while RunDifferentialChecks
/// still reports a violation. A candidate counts as failing only when
/// the checks without the multi-threaded batch engine fail, so every
/// scenario it keeps fails on each replay under `options`; a scenario
/// whose violations only that engine's scheduling shows is returned
/// unchanged, as is one that does not fail. `max_evaluations` bounds
/// the number of checker runs.
Scenario MinimizeScenario(const Scenario& scenario,
                          const DifferentialOptions& options = {},
                          size_t max_evaluations = 300);

/// One-line summary for fuzzer logs ("seed=42 tie-grid |V|=25 |P|=7
/// |Q|=4 phi=0.5 k_results=3").
std::string DescribeScenario(const Scenario& scenario);

}  // namespace fannr::testing

#endif  // FANNR_TESTING_DIFFERENTIAL_H_
