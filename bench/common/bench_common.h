// Shared driver for the paper-reproduction benchmark harnesses.
//
// Each bench binary reproduces one table or figure of the paper (see
// DESIGN.md §3 and EXPERIMENTS.md). All binaries share:
//   * the environment (dataset, query count, per-cell time budget) read
//     from env vars,
//   * an on-disk cache of mmap-opened files (graph/index_io.h) so the
//     graph and hub labels / G-tree / CH are built once per dataset,
//   * instance generation with fixed seeds so every algorithm sees the
//     same workloads,
//   * a cell timer with a budget so the slow configurations (the paper's
//     1000-second points) degrade to fewer repetitions instead of
//     stalling the harness.
//
// Environment variables:
//   FANNR_DATASET        TEST (default) | DE | ME | COL | NW
//   FANNR_QUERIES        repetitions per cell (default 5; paper uses 100)
//   FANNR_CELL_BUDGET_MS wall-clock budget per (x, algorithm) cell
//                        (default 15000)
//   FANNR_CACHE          index cache directory (default .fannr_cache)

#ifndef FANNR_BENCH_COMMON_BENCH_COMMON_H_
#define FANNR_BENCH_COMMON_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fann/fannr.h"
#include "sp/ch/contraction_hierarchy.h"
#include "sp/gtree/gtree.h"
#include "sp/label/hub_labels.h"

namespace fannr::bench {

/// Paper defaults (Section VI-A).
struct Params {
  double d = 0.001;   // density of P
  double a = 0.10;    // coverage ratio of Q
  size_t m = 128;     // |Q|
  size_t c = 1;       // clusters of Q (1 = uniform)
  double phi = 0.5;   // flexibility
};

/// Which indexes a binary needs (built or loaded from cache on demand).
struct EnvNeeds {
  bool labels = true;
  bool gtree = true;
  bool ch = false;
};

/// The benchmark environment: dataset + indexes + knobs.
class Env {
 public:
  static Env Load(const EnvNeeds& needs);

  const Graph& graph() const { return *graph_; }
  const std::string& dataset() const { return dataset_; }
  size_t num_queries() const { return num_queries_; }
  double cell_budget_ms() const { return cell_budget_ms_; }

  GphiResources Resources() const;

  /// Creates a g_phi engine backed by this environment's indexes.
  std::unique_ptr<GphiEngine> Engine(GphiKind kind) const;

  /// The G-tree leaf capacity the paper uses for this dataset scale
  /// (64 for DE, 128 ME/COL, 256 NW; 64 for TEST).
  static size_t LeafCapacityFor(const std::string& dataset);

 private:
  std::string dataset_;
  size_t num_queries_ = 5;
  double cell_budget_ms_ = 15000.0;
  std::unique_ptr<Graph> graph_;
  std::optional<HubLabels> labels_;
  std::optional<GTree> gtree_;
  mutable std::optional<ContractionHierarchy> ch_;
};

/// One benchmark instance: a generated (P, Q) pair on the environment's
/// graph.
struct Instance {
  IndexedVertexSet p;
  IndexedVertexSet q;
  std::optional<RTree> p_tree;  // present when requested
};

/// Generates `count` instances with deterministic seeds. Set
/// `build_p_tree` when any timed algorithm is IER-kNN (tree build is kept
/// out of the timed region, matching the paper's "excluding the
/// construction time of index").
std::vector<Instance> MakeInstances(const Graph& graph, const Params& params,
                                    size_t count, bool build_p_tree,
                                    uint64_t seed_base);

/// Runs `solver` once per instance (until the budget is exhausted) and
/// returns the mean wall-clock milliseconds. `solver` receives the
/// instance index.
double TimeCell(const std::function<void(size_t)>& solver,
                size_t num_instances, double budget_ms);

/// Printing helpers: a fixed-width table in the paper's
/// rows-are-x-values, columns-are-series layout.
void PrintHeader(const std::string& title, const Env& env,
                 const std::string& x_name,
                 const std::vector<std::string>& series);
void PrintRow(const std::string& x_value, const std::vector<double>& ms);

/// Formats milliseconds like the paper's plots (seconds with 3 sig figs).
std::string FormatMs(double ms);

/// Series names of the standard all-algorithms comparison used by
/// Figs. 4(a), 5(b), 6(b), 7(b) and 8(b).
std::vector<std::string> AllAlgorithmNames();

/// Times the standard suite — GD, R-List, IER-PHL (universal methods run
/// max, as in the paper), Exact-max, APX-sum (sum) — on prebuilt
/// instances. `phl` is the g_phi engine shared by the universal methods.
/// Instances must carry p_tree.
std::vector<double> TimeAllAlgorithms(const Env& env, GphiEngine& phl,
                                      const std::vector<Instance>& instances,
                                      const Params& params);

/// The seven Table I engine kinds, in the paper's legend order.
std::vector<GphiKind> TableOneKinds();

/// Times IER-kNN under each engine (max aggregate). Instances must carry
/// p_tree.
std::vector<double> TimeIerEngines(
    const Env& env, const std::vector<std::unique_ptr<GphiEngine>>& engines,
    const std::vector<Instance>& instances, const Params& params);

}  // namespace fannr::bench

#endif  // FANNR_BENCH_COMMON_BENCH_COMMON_H_
