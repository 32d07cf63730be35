// Differential checking of the live-update path (dynamic/update.h).
//
// RunDynamicUpdateChecks takes a seeded scenario (src/testing/scenario.h)
// and drives it through several congestion waves: each wave scales a
// random subset of edge weights in place via UpdateBatch, then every
// solver path that could possibly serve a stale answer is compared
// against a fresh brute-force oracle computed on the post-update
// weights:
//
//   * the sequential index-free path (INE-backed GD);
//   * a CachedSsspEngine kept alive across waves with its shared
//     distance cache intact — proving epoch-stamped entries are
//     reclaimed, never returned (the cache-poisoning check);
//   * BatchQueryEngines at several thread counts, also kept alive
//     across waves, answering on Q and on a second Q (ShiftedQuery),
//     whose results must additionally be bitwise identical to each
//     other;
//   * an engine configured with an index-backed oracle (PHL) whose
//     index was built before the updates — it must diagnose the stale
//     index, fall back to index-free solving, annotate the traces, and
//     still return correct answers;
//   * a freshly rebuilt index after the final wave, which must be
//     diagnosed fresh and agree with the oracle again.
//
// Update waves are derived deterministically from the scenario seed, so
// a failing (seed, wave) pair reproduces from the seed alone — no update
// trace needs to be serialized. Violations come back as human-readable
// strings (empty = clean), mirroring RunDifferentialChecks.

#ifndef FANNR_TESTING_DYNAMIC_CHECK_H_
#define FANNR_TESTING_DYNAMIC_CHECK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "testing/scenario.h"

namespace fannr::testing {

struct DynamicCheckOptions {
  /// Congestion waves applied after the initial (epoch-0) round of
  /// checks. Each wave bumps the graph epoch exactly once.
  size_t num_waves = 3;

  /// Fraction of undirected edges each wave rescales, and the factor
  /// range (values < 1 model congestion clearing, > 1 congestion).
  double update_fraction = 0.35;
  double min_factor = 0.4;
  double max_factor = 2.5;

  /// Thread counts of the persistent batch engines; results must be
  /// bitwise identical across all of them after every wave.
  std::vector<size_t> batch_thread_counts = {1, 2, 8};

  /// Build a PHL index before the first wave and require the stale-index
  /// fallback (diagnosis, trace annotation, correct answers) afterwards.
  bool check_stale_index_fallback = true;

  /// Rebuild the index after the final wave and require it to be
  /// diagnosed fresh and agree with the oracle.
  bool check_rebuilt_index = true;

  /// Cap on emitted violation strings.
  size_t max_violations = 24;
};

/// Runs the update-interleaved checks on `scenario`; returns the
/// violations (empty = clean).
std::vector<std::string> RunDynamicUpdateChecks(
    const Scenario& scenario, const DynamicCheckOptions& options = {});

}  // namespace fannr::testing

#endif  // FANNR_TESTING_DYNAMIC_CHECK_H_
