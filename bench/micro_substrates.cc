// Google-benchmark microbenchmarks for the substrate operations: the
// point-to-point distance oracles, incremental NN expansion, R-tree
// queries, and g_phi engine evaluations. These are the per-operation
// costs underlying every figure.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/rng.h"
#include "fann/fannr.h"
#include "graph/builder.h"
#include "sp/astar.h"
#include "sp/ch/contraction_hierarchy.h"
#include "sp/dijkstra.h"
#include "sp/gtree/gtree.h"
#include "sp/gtree/gtree_knn.h"
#include "sp/incremental_nn.h"
#include "sp/label/hub_labels.h"

namespace {

using namespace fannr;

// One shared world per binary run (TEST-scale). The graph gets a stable
// heap address *before* the graph-pointer-holding indexes (G-tree) are
// built against it.
class World {
 public:
  Graph graph;
  HubLabels labels;
  GTree gtree;
  ContractionHierarchy ch;
  std::vector<VertexId> pairs;  // random vertices for (s, t) pairs

  static const World& Get() {
    static const World* world = new World();
    return *world;
  }

 private:
  World()
      : graph(BuildPreset("TEST")),
        labels(*HubLabels::Build(graph)),
        gtree([this] {
          GTree::Options options;
          options.leaf_capacity = 64;
          return GTree::Build(graph, options);
        }()),
        ch(ContractionHierarchy::Build(graph)) {
    Rng rng(20260704);
    for (int i = 0; i < 2048; ++i) {
      pairs.push_back(
          static_cast<VertexId>(rng.NextIndex(graph.NumVertices())));
    }
  }
};

void BM_DijkstraP2P(benchmark::State& state) {
  const World& w = World::Get();
  DijkstraSearch search(w.graph);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        search.Distance(w.pairs[i % 2048], w.pairs[(i + 1) % 2048]));
    ++i;
  }
}
BENCHMARK(BM_DijkstraP2P);

// Graphs for the full-row SSSP kernels, by benchmark argument. 0: TEST
// and 1: DE (road-like, weight ratio < 10, bucket queue); 2: a 100x100
// grid with log-uniform weights in [1, 1e12] (ratio beyond |V|, so
// SsspInto runs the heap); 3: the bucket queue's known worst case, a
// 20,000-vertex path with log-uniform weights in [1, 1000] (ring of
// 1,024 slots, one vertex per bucket).
const Graph& SsspGraph(int64_t which) {
  static const Graph* graphs[4] = {};
  if (graphs[which] != nullptr) return *graphs[which];
  Rng rng(20261018);
  const auto log_uniform = [&rng](double max_exponent) {
    return std::pow(10.0, rng.NextDouble(0.0, max_exponent));
  };
  Graph* graph = nullptr;
  if (which == 0) {
    graph = new Graph(BuildPreset("TEST"));
  } else if (which == 1) {
    graph = new Graph(BuildPreset("DE"));
  } else if (which == 2) {
    constexpr VertexId kSide = 100;
    GraphBuilder builder(kSide * kSide);
    for (VertexId r = 0; r < kSide; ++r) {
      for (VertexId c = 0; c < kSide; ++c) {
        const VertexId v = r * kSide + c;
        if (c + 1 < kSide) builder.AddEdge(v, v + 1, log_uniform(12.0));
        if (r + 1 < kSide) builder.AddEdge(v, v + kSide, log_uniform(12.0));
      }
    }
    graph = new Graph(builder.Build());
  } else {
    constexpr VertexId kLength = 20000;
    GraphBuilder builder(kLength);
    for (VertexId v = 0; v + 1 < kLength; ++v) {
      builder.AddEdge(v, v + 1, log_uniform(3.0));
    }
    graph = new Graph(builder.Build());
  }
  graphs[which] = graph;
  return *graph;
}

const char* SsspGraphName(int64_t which) {
  static const char* const kNames[] = {"TEST", "DE", "grid-1e12",
                                       "path-1e3"};
  return kNames[which];
}

// Full rows on DijkstraSearch::SsspInto (bucket queue, or the heap when
// the weight ratio rules the ring out), one reused search object.
void BM_SsspInto(benchmark::State& state) {
  const Graph& graph = SsspGraph(state.range(0));
  DijkstraSearch search(graph);
  std::vector<Weight> row;
  Rng rng(31);
  for (auto _ : state) {
    search.SsspInto(static_cast<VertexId>(rng.NextIndex(graph.NumVertices())),
                    row);
    benchmark::DoNotOptimize(row.data());
  }
  state.SetLabel(SsspGraphName(state.range(0)));
}
BENCHMARK(BM_SsspInto)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// Rows bounded by Q on DE, in solve-cold's shape: a random p and |Q| =
// state.range(0) points drawn from a 10%-coverage region (64 pre-drawn
// Q sets, so generation stays out of the timed loop). Compare with
// BM_SsspInto/1, the full row the cache's first miss used to build.
void BM_SsspBoundedInto(benchmark::State& state) {
  const Graph& graph = SsspGraph(1);
  Rng rng(37);
  std::vector<std::vector<VertexId>> q_sets;
  for (int i = 0; i < 64; ++i) {
    q_sets.push_back(GenerateUniformQueryPoints(
        graph, 0.1, static_cast<size_t>(state.range(0)), rng));
  }
  DijkstraSearch search(graph);
  std::vector<Weight> row;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.SsspInto(
        static_cast<VertexId>(rng.NextIndex(graph.NumVertices())),
        q_sets[i++ % q_sets.size()], row));
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("DE");
}
BENCHMARK(BM_SsspBoundedInto)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Best-bounded rows in the same shape (sum, phi = 0.5): each of 32 Q
// sets carries the bound a GD job over 16 random p ends with, the best
// g_phi among them (computed from full rows outside the timed loop),
// and each timed row from a random p stops once p cannot beat it.
void BM_SsspPrunedInto(benchmark::State& state) {
  const Graph& graph = SsspGraph(1);
  Rng rng(37);
  const size_t q_size = static_cast<size_t>(state.range(0));
  const size_t k = FlexK(0.5, q_size);
  DijkstraSearch search(graph);
  std::vector<Weight> row;
  std::vector<std::vector<VertexId>> q_sets;
  std::vector<Weight> bounds;
  for (int i = 0; i < 32; ++i) {
    q_sets.push_back(GenerateUniformQueryPoints(graph, 0.1, q_size, rng));
    Weight best = kInfWeight;
    for (int j = 0; j < 16; ++j) {
      search.SsspInto(
          static_cast<VertexId>(rng.NextIndex(graph.NumVertices())), row);
      std::vector<Weight> d;
      for (VertexId q : q_sets.back()) d.push_back(row[q]);
      std::sort(d.begin(), d.end());
      best = std::min(best, FoldSorted(d.data(), k, Aggregate::kSum));
    }
    bounds.push_back(best);
  }
  size_t i = 0;
  for (auto _ : state) {
    const size_t job = i++ % q_sets.size();
    benchmark::DoNotOptimize(search.SsspInto(
        static_cast<VertexId>(rng.NextIndex(graph.NumVertices())),
        q_sets[job], row, GphiBound{bounds[job], k, Aggregate::kSum, {}}));
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("DE");
}
BENCHMARK(BM_SsspPrunedInto)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// The heap-based reference kernel on the same graphs and sources.
void BM_DijkstraSssp(benchmark::State& state) {
  const Graph& graph = SsspGraph(state.range(0));
  Rng rng(31);
  for (auto _ : state) {
    auto row = DijkstraSssp(
        graph, static_cast<VertexId>(rng.NextIndex(graph.NumVertices())));
    benchmark::DoNotOptimize(row.data());
  }
  state.SetLabel(SsspGraphName(state.range(0)));
}
BENCHMARK(BM_DijkstraSssp)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_AStarP2P(benchmark::State& state) {
  const World& w = World::Get();
  AStarSearch search(w.graph);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        search.Distance(w.pairs[i % 2048], w.pairs[(i + 1) % 2048]));
    ++i;
  }
}
BENCHMARK(BM_AStarP2P);

void BM_HubLabelP2P(benchmark::State& state) {
  const World& w = World::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.labels.Distance(w.pairs[i % 2048], w.pairs[(i + 1) % 2048]));
    ++i;
  }
}
BENCHMARK(BM_HubLabelP2P);

void BM_GTreeP2P(benchmark::State& state) {
  const World& w = World::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.gtree.Distance(w.pairs[i % 2048], w.pairs[(i + 1) % 2048]));
    ++i;
  }
}
BENCHMARK(BM_GTreeP2P);

void BM_ChP2P(benchmark::State& state) {
  const World& w = World::Get();
  // CH query mutates scratch arrays: copy once.
  static ContractionHierarchy* ch =
      new ContractionHierarchy(World::Get().ch);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ch->Distance(w.pairs[i % 2048], w.pairs[(i + 1) % 2048]));
    ++i;
  }
}
BENCHMARK(BM_ChP2P);

void BM_IncrementalNnK(benchmark::State& state) {
  const World& w = World::Get();
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<VertexId> targets;
  for (size_t i = 0; i < 128; ++i) {
    targets.push_back(static_cast<VertexId>(
        rng.NextIndex(w.graph.NumVertices())));
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()),
                targets.end());
  IndexedVertexSet target_set(w.graph.NumVertices(), targets);
  size_t i = 0;
  for (auto _ : state) {
    IncrementalNnSearch search(w.graph, w.pairs[i % 2048], target_set);
    for (size_t hits = 0; hits < k; ++hits) {
      benchmark::DoNotOptimize(search.Next());
    }
    ++i;
  }
}
BENCHMARK(BM_IncrementalNnK)->Arg(1)->Arg(16)->Arg(64);

// BM_IncrementalNnK/64 on the SSSP kernels' fallback graphs, so both
// have a committed number: 2: grid-1e12 (the queue runs as a heap) and
// 3: path-1e3 (a ring with one vertex per bucket). 128 random targets,
// 64 hits from each of 2,048 random sources.
void BM_IncrementalNnKFallbacks(benchmark::State& state) {
  const Graph& graph = SsspGraph(state.range(0));
  Rng rng(7);
  std::vector<VertexId> sources;
  for (size_t i = 0; i < 2048; ++i) {
    sources.push_back(
        static_cast<VertexId>(rng.NextIndex(graph.NumVertices())));
  }
  std::vector<VertexId> targets;
  for (size_t v : rng.SampleWithoutReplacement(graph.NumVertices(), 128)) {
    targets.push_back(static_cast<VertexId>(v));
  }
  IndexedVertexSet target_set(graph.NumVertices(), std::move(targets));
  size_t i = 0;
  for (auto _ : state) {
    IncrementalNnSearch search(graph, sources[i++ % sources.size()],
                               target_set);
    for (size_t hits = 0; hits < 64; ++hits) {
      benchmark::DoNotOptimize(search.Next());
    }
  }
  state.SetLabel(SsspGraphName(state.range(0)));
}
BENCHMARK(BM_IncrementalNnKFallbacks)->Arg(2)->Arg(3);

// The same search with every vertex a target (density d = 1 in the
// paper's Fig. 3/4 sweeps): each settled vertex is a membership hit.
void BM_IncrementalNnAllTargets(benchmark::State& state) {
  const World& w = World::Get();
  const size_t k = static_cast<size_t>(state.range(0));
  std::vector<VertexId> all(w.graph.NumVertices());
  for (VertexId v = 0; v < all.size(); ++v) all[v] = v;
  IndexedVertexSet target_set(w.graph.NumVertices(), std::move(all));
  size_t i = 0;
  for (auto _ : state) {
    IncrementalNnSearch search(w.graph, w.pairs[i % 2048], target_set);
    for (size_t hits = 0; hits < k; ++hits) {
      benchmark::DoNotOptimize(search.Next());
    }
    ++i;
  }
}
BENCHMARK(BM_IncrementalNnAllTargets)->Arg(64);

// Solve-cold's INE jobs on DE: 32 pre-drawn (P, Q) pairs, |P| = 48
// random vertices and |Q| = state.range(0) points from a 10%-coverage
// region, the shape perfbench's solve-cold sends to Exact-max and
// APX-sum.
struct InePair {
  IndexedVertexSet p;
  IndexedVertexSet q;
};

const std::vector<InePair>& InePairs(size_t q_size) {
  static std::map<size_t, std::vector<InePair>> by_size;
  std::vector<InePair>& pairs = by_size[q_size];
  if (!pairs.empty()) return pairs;
  const Graph& graph = SsspGraph(1);
  Rng rng(41);
  for (int i = 0; i < 32; ++i) {
    std::vector<VertexId> p;
    for (size_t v : rng.SampleWithoutReplacement(graph.NumVertices(), 48)) {
      p.push_back(static_cast<VertexId>(v));
    }
    pairs.push_back(
        {IndexedVertexSet(graph.NumVertices(), std::move(p)),
         IndexedVertexSet(graph.NumVertices(),
                          GenerateUniformQueryPoints(graph, 0.1, q_size,
                                                     rng))});
  }
  return pairs;
}

// Algorithm 2's switchable expansion alone (phi = 0.5, max): |Q|
// concurrent searches over P until k counters saturate.
void BM_ExactMaxCounters(benchmark::State& state) {
  const Graph& graph = SsspGraph(1);
  const auto& pairs = InePairs(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    const InePair& pair = pairs[i++ % pairs.size()];
    FannQuery query;
    query.graph = &graph;
    query.data_points = &pair.p;
    query.query_points = &pair.q;
    query.phi = 0.5;
    query.aggregate = Aggregate::kMax;
    benchmark::DoNotOptimize(SolveExactMax(query));
  }
  state.SetLabel("DE");
}
BENCHMARK(BM_ExactMaxCounters)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// APX-sum's candidate step (Algorithm 3 lines 2-4): one 1-NN search over
// P from each member of Q.
void BM_ApxSumCandidates(benchmark::State& state) {
  const Graph& graph = SsspGraph(1);
  const auto& pairs = InePairs(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    const InePair& pair = pairs[i++ % pairs.size()];
    for (VertexId q : pair.q.members()) {
      IncrementalNnSearch nn(graph, q, pair.p);
      benchmark::DoNotOptimize(nn.Next());
    }
  }
  state.SetLabel("DE");
}
BENCHMARK(BM_ApxSumCandidates)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// IndexOf over every vertex id for a set of density d = range(0) / 100,
// the lookup pattern of a sweep such as NetworkVoronoi::CellSizes.
void BM_VertexSetIndexOfSweep(benchmark::State& state) {
  const World& w = World::Get();
  const size_t n = w.graph.NumVertices();
  std::vector<VertexId> ids(n);
  for (VertexId v = 0; v < n; ++v) ids[v] = v;
  Rng rng(13);
  for (size_t i = n; i > 1; --i) std::swap(ids[i - 1], ids[rng.NextIndex(i)]);
  ids.resize(std::max<size_t>(1, n * state.range(0) / 100));
  IndexedVertexSet set(n, std::move(ids));
  for (auto _ : state) {
    uint64_t found = 0;
    for (VertexId v = 0; v < n; ++v) {
      found += set.IndexOf(v) != IndexedVertexSet::kNotMember;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_VertexSetIndexOfSweep)->Arg(10)->Arg(100);

void BM_RTreeNearest(benchmark::State& state) {
  Rng rng(9);
  std::vector<RTree::Item> items;
  for (uint32_t i = 0; i < 4096; ++i) {
    items.push_back({Point{rng.NextDouble(0.0, 1e5),
                           rng.NextDouble(0.0, 1e5)},
                     i});
  }
  RTree tree = RTree::BulkLoad(std::move(items));
  size_t i = 0;
  for (auto _ : state) {
    auto it = tree.NearestNeighbors(
        Point{static_cast<double>((i * 131) % 100000),
              static_cast<double>((i * 197) % 100000)});
    benchmark::DoNotOptimize(it.Next());
    ++i;
  }
}
BENCHMARK(BM_RTreeNearest);

void BM_GphiEngine(benchmark::State& state) {
  const World& w = World::Get();
  const GphiKind kind = static_cast<GphiKind>(state.range(0));
  GphiResources resources;
  resources.graph = &w.graph;
  resources.labels = &w.labels;
  resources.gtree = &w.gtree;
  static ContractionHierarchy* ch =
      new ContractionHierarchy(World::Get().ch);
  resources.ch = ch;
  auto engine = MakeGphiEngine(kind, resources);
  Rng rng(11);
  std::vector<VertexId> q_vec;
  for (int i = 0; i < 128; ++i) {
    q_vec.push_back(static_cast<VertexId>(
        rng.NextIndex(w.graph.NumVertices())));
  }
  std::sort(q_vec.begin(), q_vec.end());
  q_vec.erase(std::unique(q_vec.begin(), q_vec.end()), q_vec.end());
  IndexedVertexSet q(w.graph.NumVertices(), q_vec);
  engine->Prepare(q);
  const size_t k = q_vec.size() / 2;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->Evaluate(w.pairs[i % 2048], k, Aggregate::kMax));
    ++i;
  }
  state.SetLabel(std::string(GphiKindName(kind)));
}
BENCHMARK(BM_GphiEngine)
    ->DenseRange(0, 7)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
