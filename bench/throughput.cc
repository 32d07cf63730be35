// Batch throughput benchmark: queries/sec of the BatchQueryEngine vs the
// sequential per-query execution model it replaces, across thread counts
// and cache configurations, on the Table III-scale synthetic presets.
//
// Three effects are measured separately so the scaling story is honest:
//   * "seq-uncached"  — one thread, no shared cache: the pre-engine
//     execution model (every candidate SSSP recomputed per query).
//   * "engine-nocache T=k" — k threads, cache disabled: pure thread
//     scaling (flat on single-core hosts; near-linear on real multicore).
//   * "engine-cached T=k" — k threads sharing the source-distance cache:
//     the production configuration. Cross-query candidate reuse makes
//     this dominate regardless of core count.
//
// Output: a table on stdout plus BENCH_throughput.json (written to
// FANNR_OUT_DIR or the working directory) with every cell, so CI and the
// paper-reproduction harness can track regressions.
//
// Environment: FANNR_DATASET (default TEST), FANNR_THROUGHPUT_BATCH
// (queries per batch, default 64), FANNR_THROUGHPUT_REPS (timed
// repetitions per cell, default 3; the engine-nocache ladder always
// runs kLadderRounds rounds and the observability overhead always runs
// kObsOverheadPairs pairs).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "common/flat_heap.h"
#include "common/timer.h"
#include "engine/batch_engine.h"

namespace fannr::bench {
namespace {

struct Cell {
  std::string label;
  size_t threads = 1;
  bool cached = false;
  bool observed = false;
  double qps = 0.0;
  double mean_ms = 0.0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  // FlatHeap regrowths across ALL timed repetitions of the cell, split
  // by phase. Construction (engine + prewarm) is where all growth is
  // allowed to happen; the solve phase must never regrow a heap —
  // workers reserve their worst case at engine construction, so
  // heap_grows_solve is exactly 0 for every thread count, which the CI gate
  // asserts. heap_grows keeps the legacy total for trend tracking.
  uint64_t heap_grows = 0;
  uint64_t heap_grows_construct = 0;
  uint64_t heap_grows_solve = 0;
  std::string report_json;  // last run's BatchReport (observed cells only)
};

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? static_cast<size_t>(std::strtoull(value, nullptr, 10))
                          : fallback;
}

// A batch of GD-over-shared-P queries: the canonical heavy-traffic shape
// (one POI set, many user groups). Data-point density is raised above
// the paper default so every query does meaningful work on TEST.
struct BatchWorkload {
  std::unique_ptr<IndexedVertexSet> p;
  std::vector<std::unique_ptr<IndexedVertexSet>> qs;
  std::vector<FannrQuery> jobs;
};

BatchWorkload MakeBatch(const Graph& graph, size_t batch_size) {
  BatchWorkload w;
  Rng rng(0x7410u);
  // Density 0.01 (10x the paper default) so |P| is large enough that a
  // batch does meaningful candidate work even on the TEST preset.
  w.p = std::make_unique<IndexedVertexSet>(
      graph.NumVertices(), GenerateDataPoints(graph, /*density=*/0.01, rng));
  for (size_t i = 0; i < batch_size; ++i) {
    w.qs.push_back(std::make_unique<IndexedVertexSet>(
        graph.NumVertices(),
        GenerateUniformQueryPoints(graph, /*coverage=*/0.10, /*m=*/32, rng)));
    FannrQuery job;
    job.query =
        FannQuery{&graph, w.p.get(), w.qs.back().get(), 0.5, Aggregate::kSum};
    job.algorithm = FannAlgorithm::kGd;
    w.jobs.push_back(job);
  }
  return w;
}

// Observability overhead, measured pairwise: each pair times a plain
// sample and an observed sample under the same ambient load, alternating
// which goes first, and the medians of the two series are compared. One
// sample is the median Run time of runs_per_sample fresh engines (cold
// caches, same jobs; construction untimed), the two sides' runs
// interleaved one by one, with runs_per_sample set so that a sample
// spans at least kObsSampleMinMs. A single 64-job Run at T=8 lasts
// about 2 ms, and host steal on a 4-vCPU box moves one such run by far
// more than the 3% bar the CI gate holds the overhead to; a 50 ms
// sample's median run does not move with one preempted run. The pair
// count and sample length are fixed rather than taken from
// FANNR_THROUGHPUT_REPS.
constexpr size_t kObsOverheadPairs = 9;
constexpr double kObsSampleMinMs = 50.0;

struct ObsOverhead {
  double plain_median_ms = 0.0;
  double obs_median_ms = 0.0;
  double percent = 0.0;
  size_t runs_per_sample = 0;
};

double Median(std::vector<double> values) {
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

ObsOverhead MeasureObsOverhead(const GphiResources& resources,
                               const std::vector<FannrQuery>& jobs,
                               size_t threads) {
  BatchOptions options;
  options.num_threads = threads;
  options.share_distance_cache = true;
  options.cache_capacity = 4096;
  // Times one Run on a fresh engine.
  auto timed_run = [&](bool observed) {
    options.enable_metrics = observed;
    BatchQueryEngine engine(resources, options);
    Timer t;
    engine.Run(jobs);
    return t.Millis();
  };
  // Size the samples from three plain runs that count toward neither side.
  double calibrate_ms = 0.0;
  for (int i = 0; i < 3; ++i) calibrate_ms += timed_run(false);
  ObsOverhead overhead;
  overhead.runs_per_sample = std::max<size_t>(
      2, static_cast<size_t>(kObsSampleMinMs / (calibrate_ms / 3.0)) + 1);

  std::vector<double> plain_ms, obs_ms;
  plain_ms.reserve(kObsOverheadPairs);
  obs_ms.reserve(kObsOverheadPairs);
  for (size_t pair = 0; pair < kObsOverheadPairs; ++pair) {
    const bool observed_first = pair % 2 == 1;
    std::vector<double> plain_runs, obs_runs;
    for (size_t run = 0; run < overhead.runs_per_sample; ++run) {
      const bool first = run % 2 == 0 ? observed_first : !observed_first;
      for (const bool observed : {first, !first}) {
        (observed ? obs_runs : plain_runs).push_back(timed_run(observed));
      }
    }
    plain_ms.push_back(Median(std::move(plain_runs)));
    obs_ms.push_back(Median(std::move(obs_runs)));
  }
  overhead.plain_median_ms = Median(std::move(plain_ms));
  overhead.obs_median_ms = Median(std::move(obs_ms));
  overhead.percent = 100.0 *
                     (overhead.obs_median_ms - overhead.plain_median_ms) /
                     overhead.plain_median_ms;
  return overhead;
}

Cell MakeCell(const std::string& label, size_t threads, bool cached,
              bool observed = false) {
  Cell cell;
  cell.label = label;
  cell.threads = threads;
  cell.cached = cached;
  cell.observed = observed;
  return cell;
}

// One timed run into `cell`; returns its wall time. Fresh engine per
// run: each timed run starts with a cold cache, so cached cells measure
// within-batch reuse, not leftover state from a previous repetition.
double TimeRun(Cell& cell, const GphiResources& resources,
               const std::vector<FannrQuery>& jobs) {
  BatchOptions options;
  options.num_threads = cell.threads;
  options.share_distance_cache = cell.cached;
  options.cache_capacity = 4096;
  options.enable_metrics = cell.observed;

  const uint64_t grows_start = FlatHeapAllocStats().grows;
  BatchQueryEngine engine(resources, options);
  const uint64_t grows_constructed = FlatHeapAllocStats().grows;
  Timer t;
  engine.Run(jobs);
  const double ms = t.Millis();
  cell.heap_grows_construct += grows_constructed - grows_start;
  cell.heap_grows_solve += FlatHeapAllocStats().grows - grows_constructed;
  cell.heap_grows = cell.heap_grows_construct + cell.heap_grows_solve;
  const auto stats = engine.cache_stats();
  cell.cache_hits = stats.hits;
  cell.cache_misses = stats.misses;
  if (cell.observed) cell.report_json = engine.last_report().ToJson(2);
  return ms;
}

Cell TimeConfig(const std::string& label, const GphiResources& resources,
                const std::vector<FannrQuery>& jobs, size_t threads,
                bool cached, size_t reps, bool observed = false) {
  Cell cell = MakeCell(label, threads, cached, observed);
  double total_ms = 0.0;
  for (size_t rep = 0; rep < reps; ++rep) {
    total_ms += TimeRun(cell, resources, jobs);
  }
  cell.mean_ms = total_ms / static_cast<double>(reps);
  cell.qps = 1000.0 * static_cast<double>(jobs.size()) / cell.mean_ms;
  return cell;
}

// The engine-nocache ladder, timed in fixed interleaved rounds: each
// round visits every thread count once, in ascending order on even
// rounds and descending on odd ones, so every step of the ladder sees
// the same ambient load and no thread count always runs first. Each
// cell reports its median run as qps (mean_ms stays the mean). The
// round count is fixed rather than taken from FANNR_THROUGHPUT_REPS: a
// cell is one 64-query batch of 30-300 ms, and on a shared 4-vCPU host
// a single run moves a step by more than the gate's 10%.
constexpr size_t kLadderRounds = 9;

std::vector<Cell> TimeNocacheLadder(const GphiResources& resources,
                                    const std::vector<FannrQuery>& jobs,
                                    const std::vector<size_t>& threads) {
  std::vector<Cell> cells;
  for (size_t t : threads) {
    cells.push_back(MakeCell("engine-nocache", t, /*cached=*/false));
  }
  std::vector<std::vector<double>> run_ms(cells.size());
  for (size_t round = 0; round < kLadderRounds; ++round) {
    for (size_t step = 0; step < cells.size(); ++step) {
      const size_t i = round % 2 == 0 ? step : cells.size() - 1 - step;
      run_ms[i].push_back(TimeRun(cells[i], resources, jobs));
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    double total_ms = 0.0;
    for (double ms : run_ms[i]) total_ms += ms;
    cells[i].mean_ms = total_ms / static_cast<double>(kLadderRounds);
    cells[i].qps = 1000.0 * static_cast<double>(jobs.size()) /
                   Median(std::move(run_ms[i]));
  }
  return cells;
}

int Main() {
  Env env = Env::Load({.labels = false, .gtree = false, .ch = false});
  // Clamp both knobs to >= 1: an empty batch would make every rate a 0/0
  // and emit "nan" into the JSON, and strtoull turns junk values into 0.
  const size_t batch_size =
      std::max<size_t>(1, EnvSize("FANNR_THROUGHPUT_BATCH", 64));
  const size_t reps = std::max<size_t>(1, EnvSize("FANNR_THROUGHPUT_REPS", 3));
  const BatchWorkload workload = MakeBatch(env.graph(), batch_size);

  GphiResources resources;
  resources.graph = &env.graph();

  std::printf("Batch throughput — dataset %s, batch %zu x GD(sum), |P|=%zu, "
              "|Q|=32, reps %zu\n",
              env.dataset().c_str(), batch_size, workload.p->size(), reps);
  std::printf("%-24s %8s %10s %12s %10s %11s %11s\n", "config", "threads",
              "mean ms", "queries/s", "hit rate", "grows:build",
              "grows:solve");

  std::vector<Cell> cells;
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};

  cells.push_back(TimeConfig("seq-uncached", resources, workload.jobs, 1,
                             /*cached=*/false, reps));
  // The full engine-nocache ladder (T=1 included) is the thread-scaling
  // gate: scripts/check_throughput_json.py requires each step's qps to
  // stay >= 0.9x the previous step's, so a scaling collapse (lock or
  // allocator contention, false sharing) fails CI instead of shipping.
  for (Cell& cell :
       TimeNocacheLadder(resources, workload.jobs, thread_counts)) {
    cells.push_back(std::move(cell));
  }
  for (size_t threads : thread_counts) {
    cells.push_back(TimeConfig("engine-cached", resources, workload.jobs,
                               threads, /*cached=*/true, reps));
  }
  // The production configuration with full observation (metrics, traces,
  // slow-query log) enabled. The overhead number itself comes from the
  // paired-median measurement below (capped at 3% by CI); this cell is
  // kept for the table and for embedding a real BatchReport in the JSON.
  cells.push_back(TimeConfig("engine-cached+obs", resources, workload.jobs, 8,
                             /*cached=*/true, reps, /*observed=*/true));

  for (const Cell& cell : cells) {
    const size_t lookups = cell.cache_hits + cell.cache_misses;
    std::printf("%-24s %8zu %10.2f %12.1f %9.1f%% %11llu %11llu\n",
                cell.label.c_str(), cell.threads, cell.mean_ms, cell.qps,
                lookups == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(cell.cache_hits) /
                          static_cast<double>(lookups),
                static_cast<unsigned long long>(cell.heap_grows_construct),
                static_cast<unsigned long long>(cell.heap_grows_solve));
  }

  const Cell& baseline = cells.front();
  const Cell* engine8 = nullptr;
  const Cell* engine8_obs = nullptr;
  for (const Cell& cell : cells) {
    if (cell.cached && cell.threads == 8) {
      (cell.observed ? engine8_obs : engine8) = &cell;
    }
  }
  FANNR_CHECK(engine8 != nullptr && engine8_obs != nullptr);
  const double speedup = engine8->qps / baseline.qps;
  std::printf("\nengine (8 threads, shared cache) vs sequential uncached "
              "baseline: %.2fx\n",
              speedup);
  const ObsOverhead obs = MeasureObsOverhead(resources, workload.jobs,
                                             /*threads=*/8);
  const double obs_overhead_percent = obs.percent;
  std::printf("observability overhead (paired medians, T=8, %zu runs per "
              "sample): %.2f%% (%.3f ms -> %.3f ms per run)\n",
              obs.runs_per_sample, obs_overhead_percent, obs.plain_median_ms,
              obs.obs_median_ms);

  const std::string out_dir = [] {
    const char* dir = std::getenv("FANNR_OUT_DIR");
    return std::string(dir != nullptr ? dir : ".");
  }();
  const std::string out_path = out_dir + "/BENCH_throughput.json";
  std::ofstream out(out_path);
  out << "{\n"
      << "  \"dataset\": \"" << env.dataset() << "\",\n"
      << "  \"batch_size\": " << batch_size << ",\n"
      << "  \"p_size\": " << workload.p->size() << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"speedup_engine8_cached_vs_seq_uncached\": " << speedup << ",\n"
      << "  \"obs_overhead_percent\": " << obs_overhead_percent << ",\n"
      << "  \"obs_overhead_plain_median_ms\": " << obs.plain_median_ms
      << ",\n"
      << "  \"obs_overhead_obs_median_ms\": " << obs.obs_median_ms << ",\n"
      << "  \"obs_overhead_runs_per_sample\": " << obs.runs_per_sample
      << ",\n"
      << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    out << "    {\"config\": \"" << cell.label << "\", \"threads\": "
        << cell.threads << ", \"cached\": " << (cell.cached ? "true" : "false")
        << ", \"observed\": " << (cell.observed ? "true" : "false")
        << ", \"mean_ms\": " << cell.mean_ms << ", \"qps\": " << cell.qps
        << ", \"cache_hits\": " << cell.cache_hits
        << ", \"cache_misses\": " << cell.cache_misses
        << ", \"heap_grows\": " << cell.heap_grows
        << ", \"heap_grows_construct\": " << cell.heap_grows_construct
        << ", \"heap_grows_solve\": " << cell.heap_grows_solve << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  // Full BatchReport of the observed cell's last run: the solve-latency
  // histogram with exact-rank percentiles, cache totals (the CI checker
  // cross-verifies hits + misses == lookups), and the registry snapshot.
  out << "  ],\n"
      << "  \"report\": " << engine8_obs->report_json << "\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace fannr::bench

int main() { return fannr::bench::Main(); }
