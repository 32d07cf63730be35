#include "workload.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "engine/batch_engine.h"
#include "fann/dispatch.h"
#include "graph/presets.h"
#include "sp/dijkstra.h"

namespace perfbench {

using fannr::Aggregate;
using fannr::FannAlgorithm;
using fannr::Graph;
using fannr::Rng;
using fannr::VertexId;
using fannr::Weight;

namespace {

/// Hot workloads query a few fixed P sets; every SSSP source they can
/// touch is one of these vertices, far below the cache capacity.
constexpr size_t kHotPSets = 4;
constexpr size_t kHotPSize = 16;
constexpr size_t kHotJobs = 2048;
/// Q is drawn, as in the paper, uniformly inside an area covering this
/// share of the network; a pool of such areas is built once per run.
constexpr double kCoverage = 0.10;
constexpr size_t kRegions = 24;
/// Cold jobs: GD is exhaustive over P, so its P is small; the other
/// solvers prune and get a larger P.
constexpr size_t kColdGdP = 16;
constexpr size_t kColdP = 48;
/// Waves pre-generated per run (fresh and re-sent alternate).
constexpr size_t kWaves = 48;
constexpr double kWaveFraction = 0.02;

uint8_t Alg(FannAlgorithm a) { return static_cast<uint8_t>(a); }
uint8_t Agg(Aggregate a) { return static_cast<uint8_t>(a); }

/// Vertices within kCoverage of the farthest reachable distance from a
/// random seed — the area one query's Q is drawn from.
std::vector<std::vector<uint32_t>> MakeRegions(const Graph& graph, Rng& rng) {
  std::vector<std::vector<uint32_t>> regions;
  for (size_t r = 0; r < kRegions; ++r) {
    const VertexId seed =
        static_cast<VertexId>(rng.NextIndex(graph.NumVertices()));
    const std::vector<Weight> dist = fannr::DijkstraSssp(graph, seed);
    Weight radius = 0.0;
    for (Weight d : dist) {
      if (d != fannr::kInfWeight) radius = std::max(radius, d);
    }
    std::vector<uint32_t> region;
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      if (dist[v] <= kCoverage * radius) region.push_back(v);
    }
    if (region.size() >= 16) regions.push_back(std::move(region));
  }
  return regions;
}

std::vector<uint32_t> Pick(const std::vector<uint32_t>& from, size_t k,
                           Rng& rng) {
  std::vector<uint32_t> out;
  for (size_t i : rng.SampleWithoutReplacement(from.size(), k)) {
    out.push_back(from[i]);
  }
  return out;
}

std::vector<uint32_t> RandomVertices(const Graph& graph, size_t k, Rng& rng) {
  std::vector<uint32_t> out;
  for (size_t v : rng.SampleWithoutReplacement(graph.NumVertices(), k)) {
    out.push_back(static_cast<uint32_t>(v));
  }
  return out;
}

net::WireQuery HotJob(const std::vector<uint32_t>& p,
                      const std::vector<std::vector<uint32_t>>& regions,
                      Rng& rng) {
  net::WireQuery job;
  job.algorithm = Alg(FannAlgorithm::kGd);
  job.aggregate = Agg(Aggregate::kSum);
  job.phi = 0.5;
  job.p = p;
  job.q = Pick(regions[rng.NextIndex(regions.size())], 4, rng);
  return job;
}

/// One fresh cold job. Solver, aggregate, |Q| and phi follow fixed
/// rotations of the job index, so every seed sends the same mix of
/// shapes in the same order; only the vertices of P and Q are drawn.
net::WireQuery ColdJob(size_t index, const Graph& graph,
                       const std::vector<std::vector<uint32_t>>& regions,
                       Rng& rng) {
  static constexpr FannAlgorithm kRotation[] = {
      FannAlgorithm::kGd, FannAlgorithm::kRList, FannAlgorithm::kIer,
      FannAlgorithm::kExactMax, FannAlgorithm::kApxSum};
  static constexpr size_t kQSizes[] = {4, 8, 16};
  static constexpr double kPhis[] = {0.25, 0.5, 1.0};
  const FannAlgorithm algorithm = kRotation[index % 5];
  net::WireQuery job;
  job.algorithm = Alg(algorithm);
  Aggregate aggregate =
      (index / 45) % 2 == 0 ? Aggregate::kSum : Aggregate::kMax;
  if (algorithm == FannAlgorithm::kExactMax) aggregate = Aggregate::kMax;
  if (algorithm == FannAlgorithm::kApxSum) aggregate = Aggregate::kSum;
  job.aggregate = Agg(aggregate);
  job.phi = kPhis[(index / 15) % 3];
  job.p = RandomVertices(
      graph, algorithm == FannAlgorithm::kGd ? kColdGdP : kColdP, rng);
  job.q = Pick(regions[rng.NextIndex(regions.size())],
               kQSizes[(index / 5) % 3], rng);
  return job;
}

}  // namespace

std::optional<Spec> SpecFor(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "pipelined-hot") {
    s.kind = Kind::kPipelinedHot;
    s.engine_threads = 1;
    s.paced_rate = 500.0;
  } else if (name == "solve-cold") {
    s.kind = Kind::kSolveCold;
    s.engine_threads = 2;
    s.window = 4;
    s.paced_rate = 8.0;
    s.qps_slice_s = 1e9;  // few, slow answers: use whole phases
    s.tail_slice_s = 1e9;
  } else if (name == "updates-subs") {
    s.kind = Kind::kUpdatesSubs;
    s.engine_threads = 1;
    s.paced_rate = 500.0;
    s.wave_period_s = 3.0;
    s.tail_slice_s = 1e9;  // every wave's stall belongs in the tail
    s.subscriptions = 16;
    s.subscriber_conns = 2;
  } else if (name == "routed-hot") {
    s.kind = Kind::kRoutedHot;
    s.engine_threads = 1;
    s.shards = 2;
    s.paced_rate = 500.0;
  } else {
    return std::nullopt;
  }
  return s;
}

size_t DefaultCacheCapacity(const Graph& graph) {
  const fannr::BatchOptions defaults;
  const size_t entry_bytes =
      std::max<size_t>(1, graph.NumVertices()) * sizeof(Weight);
  return std::max<size_t>(1, defaults.cache_memory_budget_bytes / entry_bytes);
}

Inputs Generate(const Spec& spec, const Graph& graph, uint64_t seed,
                double seconds) {
  Inputs in;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xBE7C4ULL);
  in.cache_capacity_entries = DefaultCacheCapacity(graph);
  const std::vector<std::vector<uint32_t>> regions = MakeRegions(graph, rng);
  const double sat_s = seconds * kSatShare;
  const double paced_s = seconds - sat_s;
  const size_t sends =
      static_cast<size_t>(std::llround(spec.paced_rate * paced_s));
  const size_t paced_waves =
      spec.wave_period_s > 0.0
          ? static_cast<size_t>(std::llround(paced_s / spec.wave_period_s))
          : 0;
  in.paced = MakeSchedule(seed, sends, paced_s, paced_waves);

  auto add = [&in](net::WireQuery job, bool slow) {
    in.jobs.push_back(std::move(job));
    in.slow.push_back(slow ? 1 : 0);
  };

  if (spec.kind == Kind::kSolveCold) {
    // Sat needs at most ~120 fresh jobs a second on this shape.
    in.sat_jobs = static_cast<size_t>(std::ceil(sat_s * 120.0)) + 64;
    in.paced_jobs = sends;
    for (size_t i = 0; i < in.sat_jobs + in.paced_jobs; ++i) {
      net::WireQuery job = ColdJob(i, graph, regions, rng);
      const bool slow = job.algorithm == Alg(FannAlgorithm::kGd);
      in.working_set_sources += job.p.size();
      add(std::move(job), slow);
    }
    // Warm-up: GD over disjoint P sets that together exceed the cache
    // capacity, so timing starts with the cache full and evicting.
    const size_t fill = in.cache_capacity_entries +
                        in.cache_capacity_entries / 10 + 8;
    std::vector<uint32_t> all = RandomVertices(
        graph, std::min<size_t>(fill, graph.NumVertices()), rng);
    const size_t parts = 2 * kQueryConnections * spec.window;
    for (size_t k = 0; k < parts; ++k) {
      net::WireQuery job;
      job.algorithm = Alg(FannAlgorithm::kGd);
      job.aggregate = Agg(Aggregate::kSum);
      job.phi = 0.5;
      for (size_t i = k; i < all.size(); i += parts) job.p.push_back(all[i]);
      job.q = Pick(regions[rng.NextIndex(regions.size())], 4, rng);
      add(std::move(job), true);
    }
    return in;
  }

  std::vector<std::vector<uint32_t>> p_sets;
  for (size_t s = 0; s < kHotPSets; ++s) {
    p_sets.push_back(RandomVertices(graph, kHotPSize, rng));
    in.working_set_sources += kHotPSize;
  }
  in.sat_jobs = kHotJobs;
  in.paced_jobs = sends;
  for (size_t i = 0; i < in.sat_jobs + in.paced_jobs; ++i) {
    add(HotJob(p_sets[i % kHotPSets], regions, rng), false);
  }
  // Warm-up: GD evaluates all of P, so one job per P set makes every
  // hot source resident.
  for (size_t s = 0; s < kHotPSets; ++s) {
    add(HotJob(p_sets[s], regions, rng), false);
  }

  if (spec.kind == Kind::kUpdatesSubs) {
    const size_t per_conn = spec.subscriptions / spec.subscriber_conns;
    for (size_t i = 0; i < spec.subscriptions; ++i) {
      net::WireQuery sub = HotJob(p_sets[i % kHotPSets], regions, rng);
      // GD subscriptions cover every hot P set, so each wave's
      // re-evaluation recomputes every hot source and one-shot queries
      // after the barrier hit a warm cache again.
      sub.algorithm = Alg((i / kHotPSets) % 2 == 0 ? FannAlgorithm::kGd
                                                   : FannAlgorithm::kRList);
      sub.aggregate = Agg((i / 2) % 2 == 0 ? Aggregate::kSum : Aggregate::kMax);
      sub.phi = i % 2 == 0 ? 0.5 : 0.3;
      if (i % 3 == 2) sub.weights = {0.5, 2.0, 1.0, 4.0};
      in.subs.push_back(std::move(sub));
      in.force_push.push_back(i % per_conn == per_conn - 1 ? 1 : 0);
    }
    Graph evolving = fannr::BuildPreset(kPreset);
    for (size_t w = 0; w < kWaves; ++w) {
      if (w % 2 == 0) {
        in.wave_batches.push_back(fannr::dynamic::MakeCongestionWave(
            evolving, kWaveFraction, 0.5, 3.0, rng));
      } else {
        in.wave_batches.push_back(in.wave_batches.back());
      }
      in.wave_batches.back().Apply(evolving);
      net::UpdateWeightsRequest request;
      for (const fannr::EdgeWeightUpdate& u : in.wave_batches.back().updates()) {
        request.entries.push_back({u.u, u.v, u.new_weight});
      }
      in.waves.push_back(std::move(request));
    }
  }
  return in;
}

}  // namespace perfbench
