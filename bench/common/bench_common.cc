#include "common/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <type_traits>

#include "common/timer.h"

namespace fannr::bench {

namespace {

std::string EnvOr(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

double EnvOrDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtod(value, nullptr) : fallback;
}

std::string CachePath(const std::string& cache_dir,
                      const std::string& dataset, const std::string& kind) {
  return cache_dir + "/" + dataset + "." + kind + ".bin";
}

}  // namespace

size_t Env::LeafCapacityFor(const std::string& dataset) {
  if (dataset == "NW") return 256;
  if (dataset == "E") return 256;
  if (dataset == "ME" || dataset == "COL") return 128;
  return 64;  // TEST, DE
}

Env Env::Load(const EnvNeeds& needs) {
  Env env;
  env.dataset_ = EnvOr("FANNR_DATASET", "TEST");
  FANNR_CHECK(IsPresetName(env.dataset_));
  env.num_queries_ = static_cast<size_t>(
      EnvOrDouble("FANNR_QUERIES", 5));
  env.cell_budget_ms_ = EnvOrDouble("FANNR_CELL_BUDGET_MS", 15000.0);
  const std::string cache_dir = EnvOr("FANNR_CACHE", ".fannr_cache");
  std::filesystem::create_directories(cache_dir);

  // Every cache file is opened by mmap and never copied; a file from
  // another format version, another graph, or a corrupt one fails
  // LoadMmap and is rebuilt and saved over in place.
  Timer t;
  const std::string graph_cache =
      CachePath(cache_dir, env.dataset_, "graph");
  const char* graph_source = "loaded from cache";
  if (auto loaded = Graph::LoadMmap(graph_cache)) {
    env.graph_ = std::make_unique<Graph>(std::move(*loaded));
  } else {
    env.graph_ = std::make_unique<Graph>(BuildPreset(env.dataset_));
    graph_source = env.graph_->Save(graph_cache) ? "built and cached"
                                                 : "built";
  }
  std::fprintf(stderr,
               "[env] dataset %s: %zu vertices, %zu edges, %s (%.1fs)\n",
               env.dataset_.c_str(), env.graph_->NumVertices(),
               env.graph_->NumEdges(), graph_source, t.Seconds());

  const Graph& graph = *env.graph_;
  auto load_or_build = [&](const std::string& kind, auto build_fn,
                           auto& slot) {
    using Index = typename std::remove_reference_t<decltype(slot)>::value_type;
    const std::string path = CachePath(cache_dir, env.dataset_, kind);
    slot = Index::LoadMmap(graph, path);
    if (slot.has_value()) {
      std::fprintf(stderr, "[env] %s loaded from cache\n", kind.c_str());
      return;
    }
    Timer build_timer;
    slot = build_fn();
    std::fprintf(stderr, "[env] %s built in %.1fs\n", kind.c_str(),
                 build_timer.Seconds());
    if (slot.has_value() && slot->Save(path)) {
      std::fprintf(stderr, "[env] %s cached to %s\n", kind.c_str(),
                   path.c_str());
    }
  };

  if (needs.labels) {
    load_or_build(
        "phl", [&] { return HubLabels::Build(graph); }, env.labels_);
    FANNR_CHECK(env.labels_.has_value());
  }
  if (needs.gtree) {
    GTree::Options options;
    options.leaf_capacity = LeafCapacityFor(env.dataset_);
    load_or_build(
        "gtree",
        [&] { return std::optional<GTree>(GTree::Build(graph, options)); },
        env.gtree_);
    FANNR_CHECK(env.gtree_.has_value());
  }
  if (needs.ch) {
    load_or_build(
        "ch",
        [&] {
          return std::optional<ContractionHierarchy>(
              ContractionHierarchy::Build(graph));
        },
        env.ch_);
    FANNR_CHECK(env.ch_.has_value());
  }
  return env;
}

GphiResources Env::Resources() const {
  GphiResources r;
  r.graph = graph_.get();
  if (labels_.has_value()) r.labels = &*labels_;
  if (gtree_.has_value()) r.gtree = &*gtree_;
  if (ch_.has_value()) r.ch = &*ch_;
  return r;
}

std::unique_ptr<GphiEngine> Env::Engine(GphiKind kind) const {
  return MakeGphiEngine(kind, Resources());
}

std::vector<Instance> MakeInstances(const Graph& graph, const Params& params,
                                    size_t count, bool build_p_tree,
                                    uint64_t seed_base) {
  std::vector<Instance> instances;
  instances.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Rng rng(seed_base * 1'000'003ULL + i);
    std::vector<VertexId> p_vec = GenerateDataPoints(graph, params.d, rng);
    std::vector<VertexId> q_vec =
        params.c <= 1
            ? GenerateUniformQueryPoints(graph, params.a, params.m, rng)
            : GenerateClusteredQueryPoints(graph, params.a, params.m,
                                           params.c, rng);
    Instance inst{IndexedVertexSet(graph.NumVertices(), std::move(p_vec)),
                  IndexedVertexSet(graph.NumVertices(), std::move(q_vec)),
                  std::nullopt};
    if (build_p_tree) {
      inst.p_tree = BuildDataPointRTree(graph, inst.p);
    }
    instances.push_back(std::move(inst));
  }
  return instances;
}

double TimeCell(const std::function<void(size_t)>& solver,
                size_t num_instances, double budget_ms) {
  Timer total;
  size_t completed = 0;
  for (size_t i = 0; i < num_instances; ++i) {
    solver(i);
    ++completed;
    if (total.Millis() > budget_ms) break;
  }
  return total.Millis() / static_cast<double>(completed);
}

void PrintHeader(const std::string& title, const Env& env,
                 const std::string& x_name,
                 const std::vector<std::string>& series) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("dataset=%s  |V|=%zu  queries/cell<=%zu  budget=%.0fms\n",
              env.dataset().c_str(), env.graph().NumVertices(),
              env.num_queries(), env.cell_budget_ms());
  std::printf("%-10s", x_name.c_str());
  for (const std::string& s : series) std::printf(" %12s", s.c_str());
  std::printf("\n");
}

void PrintRow(const std::string& x_value, const std::vector<double>& ms) {
  std::printf("%-10s", x_value.c_str());
  for (double v : ms) std::printf(" %12s", FormatMs(v).c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::vector<std::string> AllAlgorithmNames() {
  return {"GD", "R-List", "IER-PHL", "Exact-max", "APX-sum"};
}

std::vector<double> TimeAllAlgorithms(const Env& env, GphiEngine& phl,
                                      const std::vector<Instance>& instances,
                                      const Params& params) {
  const Graph& graph = env.graph();
  auto max_query = [&](size_t i) {
    return FannQuery{&graph, &instances[i].p, &instances[i].q, params.phi,
                     Aggregate::kMax};
  };
  auto sum_query = [&](size_t i) {
    return FannQuery{&graph, &instances[i].p, &instances[i].q, params.phi,
                     Aggregate::kSum};
  };
  std::vector<double> row;
  row.push_back(TimeCell([&](size_t i) { SolveGd(max_query(i), phl); },
                         instances.size(), env.cell_budget_ms()));
  row.push_back(TimeCell([&](size_t i) { SolveRList(max_query(i), phl); },
                         instances.size(), env.cell_budget_ms()));
  row.push_back(TimeCell(
      [&](size_t i) { SolveIer(max_query(i), phl, *instances[i].p_tree); },
      instances.size(), env.cell_budget_ms()));
  row.push_back(TimeCell([&](size_t i) { SolveExactMax(max_query(i)); },
                         instances.size(), env.cell_budget_ms()));
  row.push_back(TimeCell([&](size_t i) { SolveApxSum(sum_query(i), phl); },
                         instances.size(), env.cell_budget_ms()));
  return row;
}

std::vector<GphiKind> TableOneKinds() {
  return {GphiKind::kAStar,  GphiKind::kIerAStar, GphiKind::kIne,
          GphiKind::kPhl,    GphiKind::kIerPhl,   GphiKind::kGTree,
          GphiKind::kIerGTree};
}

std::vector<double> TimeIerEngines(
    const Env& env, const std::vector<std::unique_ptr<GphiEngine>>& engines,
    const std::vector<Instance>& instances, const Params& params) {
  const Graph& graph = env.graph();
  std::vector<double> row;
  for (const auto& engine : engines) {
    row.push_back(TimeCell(
        [&](size_t i) {
          FannQuery query{&graph, &instances[i].p, &instances[i].q,
                          params.phi, Aggregate::kMax};
          SolveIer(query, *engine, *instances[i].p_tree);
        },
        instances.size(), env.cell_budget_ms()));
  }
  return row;
}

std::string FormatMs(double ms) {
  char buffer[32];
  if (ms < 0) {
    return "-";
  }
  if (ms >= 1000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2fs", ms / 1000.0);
  } else if (ms >= 1.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1fms", ms);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.3fms", ms);
  }
  return buffer;
}

}  // namespace fannr::bench
