// Continent-scale suite: how build, index, load, and query costs scale
// with |V|, and whether the mmap load path actually delivers its reason
// for existing — opening a prebuilt index in time proportional to a
// structural scan instead of a read of every byte.
//
// For every |V| on the ladder the bench measures
//   * synthetic network generation time (the stand-in for "build"),
//   * DIMACS parse time, sequential vs chunk-parallel, with a
//     fingerprint check proving the two parses agree,
//   * graph cache write/load: Save, then LoadMmap under kFull (reads and
//     checksums every payload byte — the reference) and under the
//     default kHeaderOnly, with the file size and the full/header-only
//     load-time ratio (mmap_speedup),
//   * G-tree build (leaf capacity scaled with |V|, as in the paper) +
//     the same save/load pair on the sizes below the index gate (the
//     10^6 index build is the nightly/local job, not a CI smoke; the CI
//     default covers 10^4 and 10^5), and
//   * GD query latency through the batch engine at 1 and 8 threads, run
//     twice — on the in-memory substrate and on the mmap-loaded one —
//     with a bitwise comparison of every answer. The differential runs
//     once on the raw graph and, where the index was built, again with
//     the G-tree as the distance substrate, so the mmap-loaded *index*
//     is what gets diffed. A mismatch is a hard failure (exit 1), not a
//     JSON field somebody has to notice.
//
// Output: a table on stdout plus BENCH_scale.json (FANNR_OUT_DIR or cwd)
// for scripts/check_scale_json.py.
//
// Environment:
//   FANNR_SCALE_SIZES        comma-separated |V| targets
//                            (default "10000,100000"; the committed
//                            artifact adds 1000000)
//   FANNR_SCALE_INDEX_MAX_V  build the G-tree only for sizes <= this
//                            (default 150000; the committed artifact run
//                            raises it to 1000000)
//   FANNR_SCALE_QUERIES      GD queries per latency cell (default 4)
//   FANNR_OUT_DIR            where BENCH_scale.json goes

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "common/timer.h"
#include "engine/batch_engine.h"
#include "graph/generator.h"
#include "graph/io.h"
#include "sp/gtree/gtree.h"

namespace fannr::bench {
namespace {

struct GtreeCell {
  bool built = false;
  size_t leaf_capacity = 0;
  double build_ms = 0.0;
  uint64_t v3_bytes = 0;
  double v3_save_ms = 0.0;
  double v3_full_load_ms = 0.0;
  double v3_mmap_load_ms = 0.0;
  double mmap_speedup = 0.0;
  // GD-over-G-tree latency and the mmap-index differential at T=1/T=8.
  double query_mean_ms_t1 = 0.0;
  double query_mean_ms_t8 = 0.0;
  bool query_identical = false;
};

struct ScaleCell {
  size_t target_vertices = 0;
  size_t num_vertices = 0;
  size_t num_edges = 0;
  double gen_ms = 0.0;
  // DIMACS parse, sequential vs chunk-parallel.
  double parse_seq_ms = 0.0;
  double parse_par_ms = 0.0;
  double parse_speedup = 0.0;
  bool parallel_load_identical = false;
  // Graph cache file.
  uint64_t v3_bytes = 0;
  double v3_save_ms = 0.0;
  double v3_full_load_ms = 0.0;
  double v3_mmap_load_ms = 0.0;
  double mmap_speedup = 0.0;
  GtreeCell gtree;
  // GD query latency (batch engine, shared cache) on the mmap graph.
  double query_mean_ms_t1 = 0.0;
  double query_mean_ms_t8 = 0.0;
  // Bitwise equality of every answer, mmap vs in-memory, at T=1 and T=8.
  bool query_identical = false;
};

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr
             ? static_cast<size_t>(std::strtoull(value, nullptr, 10))
             : fallback;
}

std::vector<size_t> LadderSizes() {
  const char* value = std::getenv("FANNR_SCALE_SIZES");
  const std::string spec = value != nullptr ? value : "10000,100000";
  std::vector<size_t> sizes;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const size_t n = static_cast<size_t>(std::strtoull(token.c_str(),
                                                       nullptr, 10));
    if (n >= 4) sizes.push_back(n);
  }
  return sizes;
}

// The paper's tau: 64 for town-sized graphs up to 512 at continent
// scale. Bigger leaves keep the tree shallow (and the 1-core build
// tractable) without inflating the per-leaf distance matrices past the
// border counts a grid network produces.
size_t LeafCapacityForSize(size_t num_vertices) {
  if (num_vertices < 50'000) return 64;
  if (num_vertices < 500'000) return 128;
  return 512;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

// GD batch on `graph` with the given substrate; returns (mean solve ms,
// results) so the caller can compare answers bitwise across substrates.
struct QueryRun {
  double mean_ms = 0.0;
  std::vector<FannResult> results;
};

QueryRun RunQueries(const Graph& graph, const IndexedVertexSet& p,
                    const IndexedVertexSet& q, size_t num_queries,
                    size_t threads, const GTree* tree = nullptr) {
  std::vector<FannrQuery> jobs;
  for (size_t i = 0; i < num_queries; ++i) {
    FannrQuery job;
    job.query = FannQuery{&graph, &p, &q, 0.5, Aggregate::kSum};
    job.algorithm = FannAlgorithm::kGd;
    jobs.push_back(job);
  }
  GphiResources resources;
  resources.graph = &graph;
  BatchOptions options;
  options.num_threads = threads;
  if (tree != nullptr) {
    resources.gtree = tree;
    options.gphi_kind = GphiKind::kGTree;
  }
  BatchQueryEngine engine(resources, options);
  Timer t;
  QueryRun run;
  run.results = engine.Run(jobs);
  run.mean_ms = t.Millis() / static_cast<double>(num_queries);
  return run;
}

bool SameAnswers(const std::vector<FannResult>& a,
                 const std::vector<FannResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].best != b[i].best || a[i].subset != b[i].subset ||
        std::bit_cast<uint64_t>(a[i].distance) !=
            std::bit_cast<uint64_t>(b[i].distance)) {
      return false;
    }
  }
  return true;
}

ScaleCell RunCell(size_t target, size_t index_max_v, size_t num_queries,
                  ThreadPool& pool, const std::string& tmp_dir) {
  ScaleCell cell;
  cell.target_vertices = target;

  // 1. Generate (the "build" leg of the curve).
  GridNetworkOptions gen;
  gen.rows = gen.cols =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(target))));
  Rng rng(0x5CA1Eu + target);
  Timer gen_timer;
  Graph graph = GenerateGridNetwork(gen, rng);
  cell.gen_ms = gen_timer.Millis();
  cell.num_vertices = graph.NumVertices();
  cell.num_edges = graph.NumEdges();

  // 2. DIMACS parse, sequential vs parallel, on the same bytes.
  const std::string gr = tmp_dir + "/scale_" + std::to_string(target) + ".gr";
  const std::string co = tmp_dir + "/scale_" + std::to_string(target) + ".co";
  FANNR_CHECK(SaveDimacs(graph, gr, co, /*coord_scale=*/1000.0));
  Timer seq_timer;
  LoadResult seq = LoadDimacs(gr, co);
  cell.parse_seq_ms = seq_timer.Millis();
  FANNR_CHECK(seq.ok());
  Timer par_timer;
  LoadResult par = LoadDimacs(gr, co, &pool);
  cell.parse_par_ms = par_timer.Millis();
  FANNR_CHECK(par.ok());
  cell.parse_speedup = cell.parse_seq_ms / cell.parse_par_ms;
  cell.parallel_load_identical =
      par.graph->Fingerprint() == seq.graph->Fingerprint();
  std::remove(gr.c_str());
  std::remove(co.c_str());

  // 3. Graph cache: a kFull load (every payload byte read) against the
  // default header-only mmap load of the same file. What matters is the
  // ratio.
  const std::string v3_path =
      tmp_dir + "/scale_" + std::to_string(target) + ".v3";
  {
    Timer t;
    FANNR_CHECK(graph.Save(v3_path));
    cell.v3_save_ms = t.Millis();
  }
  cell.v3_bytes = FileBytes(v3_path);
  {
    Timer t;
    auto full = Graph::LoadMmap(v3_path, ArenaValidation::kFull);
    cell.v3_full_load_ms = t.Millis();
    FANNR_CHECK(full.has_value());
    FANNR_CHECK(full->Fingerprint() == graph.Fingerprint());
  }
  std::optional<Graph> mapped;
  {
    Timer t;
    mapped = Graph::LoadMmap(v3_path);
    cell.v3_mmap_load_ms = t.Millis();
    FANNR_CHECK(mapped.has_value());
    FANNR_CHECK(mapped->Fingerprint() == graph.Fingerprint());
  }
  cell.mmap_speedup = cell.v3_full_load_ms / cell.v3_mmap_load_ms;

  // 4. Query workload, shared by the graph and index differentials.
  Rng qrng(0xD15Cu + target);
  const IndexedVertexSet p(graph.NumVertices(),
                           GenerateDataPoints(graph, 16.0 / static_cast<double>(
                                                         graph.NumVertices()),
                                              qrng));
  const IndexedVertexSet q(
      graph.NumVertices(),
      GenerateUniformQueryPoints(graph, /*coverage=*/0.10, /*m=*/8, qrng));

  // 5. Graph-substrate latency + the mmap differential at T=1 and T=8.
  const QueryRun mem1 = RunQueries(graph, p, q, num_queries, 1);
  const QueryRun mem8 = RunQueries(graph, p, q, num_queries, 8);
  const QueryRun map1 = RunQueries(*mapped, p, q, num_queries, 1);
  const QueryRun map8 = RunQueries(*mapped, p, q, num_queries, 8);
  cell.query_mean_ms_t1 = map1.mean_ms;
  cell.query_mean_ms_t8 = map8.mean_ms;
  cell.query_identical = SameAnswers(mem1.results, map1.results) &&
                         SameAnswers(mem8.results, map8.results) &&
                         SameAnswers(mem1.results, mem8.results);
  std::remove(v3_path.c_str());

  // 6. G-tree index: build, full-vs-mmap load, and the differential the
  // acceptance bar is actually about — answers through the mmap-loaded
  // *index* against the built-in-memory one. Sizes above the gate leave
  // this to the nightly run (FANNR_SCALE_INDEX_MAX_V=1000000 there).
  if (graph.NumVertices() <= index_max_v) {
    cell.gtree.built = true;
    GTree::Options options;
    options.leaf_capacity = LeafCapacityForSize(graph.NumVertices());
    cell.gtree.leaf_capacity = options.leaf_capacity;
    Timer build_timer;
    GTree tree = GTree::Build(graph, options, &pool);
    cell.gtree.build_ms = build_timer.Millis();

    const std::string g3 = tmp_dir + "/scale_gtree.v3";
    {
      Timer t;
      FANNR_CHECK(tree.Save(g3));
      cell.gtree.v3_save_ms = t.Millis();
    }
    cell.gtree.v3_bytes = FileBytes(g3);
    {
      Timer t;
      FANNR_CHECK(
          GTree::LoadMmap(graph, g3, ArenaValidation::kFull).has_value());
      cell.gtree.v3_full_load_ms = t.Millis();
    }
    std::optional<GTree> mapped_tree;
    {
      Timer t;
      mapped_tree = GTree::LoadMmap(graph, g3);
      cell.gtree.v3_mmap_load_ms = t.Millis();
      FANNR_CHECK(mapped_tree.has_value());
    }
    cell.gtree.mmap_speedup =
        cell.gtree.v3_full_load_ms / cell.gtree.v3_mmap_load_ms;

    const QueryRun tmem1 = RunQueries(graph, p, q, num_queries, 1, &tree);
    const QueryRun tmem8 = RunQueries(graph, p, q, num_queries, 8, &tree);
    const QueryRun tmap1 =
        RunQueries(graph, p, q, num_queries, 1, &*mapped_tree);
    const QueryRun tmap8 =
        RunQueries(graph, p, q, num_queries, 8, &*mapped_tree);
    cell.gtree.query_mean_ms_t1 = tmap1.mean_ms;
    cell.gtree.query_mean_ms_t8 = tmap8.mean_ms;
    cell.gtree.query_identical = SameAnswers(tmem1.results, tmap1.results) &&
                                 SameAnswers(tmem8.results, tmap8.results) &&
                                 SameAnswers(tmem1.results, tmem8.results);
    mapped_tree.reset();
    std::remove(g3.c_str());
  }
  return cell;
}

std::string JsonGtree(const GtreeCell& g) {
  std::ostringstream out;
  out << "{\"built\": " << (g.built ? "true" : "false");
  if (g.built) {
    out << ", \"leaf_capacity\": " << g.leaf_capacity
        << ", \"build_ms\": " << g.build_ms
        << ", \"v3_bytes\": " << g.v3_bytes
        << ", \"v3_save_ms\": " << g.v3_save_ms
        << ", \"v3_full_load_ms\": " << g.v3_full_load_ms
        << ", \"v3_mmap_load_ms\": " << g.v3_mmap_load_ms
        << ", \"mmap_speedup\": " << g.mmap_speedup
        << ", \"query_mean_ms_t1\": " << g.query_mean_ms_t1
        << ", \"query_mean_ms_t8\": " << g.query_mean_ms_t8
        << ", \"query_identical\": " << (g.query_identical ? "true" : "false");
  }
  out << "}";
  return out.str();
}

int Main() {
  const std::vector<size_t> sizes = LadderSizes();
  if (sizes.empty()) {
    std::fprintf(stderr, "FANNR_SCALE_SIZES parsed to an empty ladder\n");
    return 1;
  }
  const size_t index_max_v = EnvSize("FANNR_SCALE_INDEX_MAX_V", 150000);
  const size_t num_queries = std::max<size_t>(1,
                                              EnvSize("FANNR_SCALE_QUERIES",
                                                      4));
  const std::string out_dir = [] {
    const char* dir = std::getenv("FANNR_OUT_DIR");
    return std::string(dir != nullptr ? dir : ".");
  }();
  ThreadPool pool(0);  // hardware concurrency

  std::printf("Scale ladder — sizes:");
  for (size_t n : sizes) std::printf(" %zu", n);
  std::printf(", %zu pool workers, %zu queries/cell\n", pool.num_workers(),
              num_queries);
  std::printf("%10s %10s %10s %10s %9s %10s %10s %9s %11s %8s\n", "|V|",
              "gen ms", "parse seq", "parse par", "par=seq", "full load",
              "mmap load", "speedup", "idx speedup", "queries");

  std::vector<ScaleCell> cells;
  bool all_identical = true;
  for (size_t target : sizes) {
    ScaleCell cell = RunCell(target, index_max_v, num_queries, pool, out_dir);
    char idx[24] = "-";
    if (cell.gtree.built) {
      std::snprintf(idx, sizeof(idx), "%.1fx", cell.gtree.mmap_speedup);
    }
    std::printf("%10zu %10.1f %10.1f %10.1f %9s %10.2f %10.2f %8.1fx %11s %7s\n",
                cell.num_vertices, cell.gen_ms, cell.parse_seq_ms,
                cell.parse_par_ms, cell.parallel_load_identical ? "yes" : "NO",
                cell.v3_full_load_ms, cell.v3_mmap_load_ms, cell.mmap_speedup,
                idx,
                cell.query_identical ? "same" : "DIFFER");
    all_identical &= cell.parallel_load_identical && cell.query_identical &&
                     (!cell.gtree.built || cell.gtree.query_identical);
    cells.push_back(std::move(cell));
  }

  const std::string out_path = out_dir + "/BENCH_scale.json";
  std::ofstream out(out_path);
  out << "{\n  \"index_max_v\": " << index_max_v
      << ",\n  \"queries_per_cell\": " << num_queries << ",\n  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const ScaleCell& c = cells[i];
    out << "    {\"target_vertices\": " << c.target_vertices
        << ", \"num_vertices\": " << c.num_vertices
        << ", \"num_edges\": " << c.num_edges << ", \"gen_ms\": " << c.gen_ms
        << ",\n     \"parse_seq_ms\": " << c.parse_seq_ms
        << ", \"parse_par_ms\": " << c.parse_par_ms
        << ", \"parse_speedup\": " << c.parse_speedup
        << ", \"parallel_load_identical\": "
        << (c.parallel_load_identical ? "true" : "false")
        << ",\n     \"graph\": {\"v3_bytes\": " << c.v3_bytes
        << ", \"v3_save_ms\": " << c.v3_save_ms
        << ", \"v3_full_load_ms\": " << c.v3_full_load_ms
        << ", \"v3_mmap_load_ms\": " << c.v3_mmap_load_ms
        << ", \"mmap_speedup\": " << c.mmap_speedup << "}"
        << ",\n     \"gtree\": " << JsonGtree(c.gtree)
        << ",\n     \"query_mean_ms_t1\": " << c.query_mean_ms_t1
        << ", \"query_mean_ms_t8\": " << c.query_mean_ms_t8
        << ", \"query_identical\": "
        << (c.query_identical ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel parse or mmap query differential diverged "
                 "(see table above)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fannr::bench

int main() { return fannr::bench::Main(); }
