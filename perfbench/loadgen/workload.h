// The four workloads: their fixed shapes (thread counts, windows, rates)
// and the generator that turns a seed into every input a run sends.
// Generation happens before any serving process starts, so neither the
// set-up time nor a timed window ever pays for it.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dynamic/update.h"
#include "graph/graph.h"
#include "helpers.h"
#include "net/protocol.h"

namespace perfbench {

namespace net = fannr::net;

/// Every workload runs on the Delaware-scale synthetic preset: the
/// smallest whose distance-cache capacity a cold workload can exceed.
inline constexpr const char* kPreset = "DE";

/// Query connections every workload drives from the one client thread.
inline constexpr size_t kQueryConnections = 2;
/// Share of --seconds spent in sat: most of it, since the bounded
/// cpu_ms_per_query comes from sat alone.
inline constexpr double kSatShare = 0.7;

enum class Kind { kPipelinedHot, kSolveCold, kUpdatesSubs, kRoutedHot };

struct Spec {
  Kind kind = Kind::kPipelinedHot;
  std::string name;
  size_t engine_threads = 1;   ///< Engine workers per serving process.
  size_t window = 8;           ///< In-flight queries per connection in sat.
  double paced_rate = 0.0;     ///< Sends per second in paced.
  /// Paced wave spacing (updates-subs). Waves run in paced only: sat
  /// measures the read path with the subscriptions standing.
  double wave_period_s = 0.0;
  size_t subscriptions = 0;
  size_t subscriber_conns = 0;
  size_t shards = 0;           ///< 0 = one server, no router.
  /// Sat throughput is the median of per-slice rates over slices this
  /// long, and the paced tail the median of per-slice tails; a slice
  /// longer than the phase means one slice of everything.
  double qps_slice_s = 1.0;
  double tail_slice_s = 1.0;
};

/// The spec named `name`, or nullopt for an unknown workload.
std::optional<Spec> SpecFor(const std::string& name);

/// Every input of one run, generated from the seed.
struct Inputs {
  /// Query jobs: [0, sat_jobs) feed the sat window (cycled when the
  /// workload is hot), the next paced_jobs feed the paced sends one per
  /// send, and the rest are warm-up jobs sent before timing starts.
  std::vector<net::WireQuery> jobs;
  size_t sat_jobs = 0;
  size_t paced_jobs = 0;
  /// Per job: belongs to the slow class by construction (cold GD).
  std::vector<uint8_t> slow;
  /// Standing queries (updates-subs), registration order; the last one
  /// per subscriber connection is force_push and is the wave barrier.
  std::vector<net::WireQuery> subs;
  std::vector<uint8_t> force_push;
  /// Waves alternate fresh congestion waves with exact re-sends.
  std::vector<net::UpdateWeightsRequest> waves;
  std::vector<fannr::dynamic::UpdateBatch> wave_batches;
  Schedule paced;
  /// Distinct SSSP sources the timed jobs can touch (hot: the fixed P
  /// sets; cold: every fresh P), against the server's cache capacity.
  size_t working_set_sources = 0;
  size_t cache_capacity_entries = 0;
};

/// Distance-cache capacity, in entries, a default-configured server
/// derives for `graph` (the engine's memory-budget rule).
size_t DefaultCacheCapacity(const fannr::Graph& graph);

Inputs Generate(const Spec& spec, const fannr::Graph& graph, uint64_t seed,
                double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
