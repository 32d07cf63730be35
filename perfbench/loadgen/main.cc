// fannbench — the repository's end-to-end benchmark load generator.
//
//   fannbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR [--source-id ID]
//
// Spawns the serving fleet a workload names (fannr_server, or
// fannr_shardplan + two shard servers + fannr_router) from the binaries
// in DIR, drives it from this one process, checks every answer and push
// bitwise against an in-process BatchQueryEngine at the answer's
// stamped epoch, and prints a report line followed by the result line
// (the last line of stdout):
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, measured from outside the program: spans around
// fannbench's own calls into the program's public functions, STATS
// counter deltas, and in-process replays. See perfbench/README.md.

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dynamic/update.h"
#include "engine/batch_engine.h"
#include "engine/cached_sssp.h"
#include "fann/dispatch.h"
#include "fann/ier.h"
#include "graph/presets.h"
#include "helpers.h"
#include "loop.h"
#include "net/client.h"
#include "net/router.h"
#include "net/shard_plan.h"
#include "proc.h"
#include "trace.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using fannr::Aggregate;
using fannr::FannAlgorithm;
using fannr::FannResult;
using fannr::Graph;

constexpr uint8_t kPhaseWarm = 0;
constexpr uint8_t kPhaseSat = 1;
constexpr uint8_t kPhasePaced = 2;
constexpr uint8_t kPhaseSatRef = 3;  // traced run: untraced sat baseline
/// Threads the in-process answer check may use once the fleet is down.
constexpr size_t kCheckThreads = 4;
/// Cache entries of the in-process engines (the hot working set fits;
/// cold jobs miss as they do on the server).
constexpr size_t kCheckCacheEntries = 160;
/// Admission queue bound given to every server: above what a wave's
/// stall can queue at the paced rates, so no workload sheds load.
constexpr const char* kQueueDepth = "4096";
/// Cold starts per run; setup_s is their median. One short start is one
/// sample that a burst on a shared box either hits whole or misses.
constexpr size_t kColdStarts = 7;
/// Allocator setting of the serving processes (see Bench::Run).
constexpr const char* kMallocTunables = "glibc.malloc.mmap_threshold=67108864";
/// A paced run is invalid when the generator's p99 lateness exceeds this.
constexpr double kMaxLateMs = 5.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
  std::string source_id = "unknown";
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

bool SameBits(const net::WireResult& a, const net::WireResult& b) {
  return a.status == b.status && a.best == b.best &&
         Bits(a.distance) == Bits(b.distance) &&
         a.gphi_evaluations == b.gphi_evaluations && a.subset == b.subset &&
         a.error == b.error;
}

/// Owns the vertex sets behind a batch of in-process jobs.
struct JobBatch {
  std::vector<std::unique_ptr<fannr::IndexedVertexSet>> sets;
  std::vector<fannr::FannrQuery> jobs;

  void Add(const Graph& graph, const net::WireQuery& wire) {
    auto p = std::make_unique<fannr::IndexedVertexSet>(
        graph.NumVertices(), std::vector<fannr::VertexId>(wire.p.begin(), wire.p.end()));
    auto q = std::make_unique<fannr::IndexedVertexSet>(
        graph.NumVertices(), std::vector<fannr::VertexId>(wire.q.begin(), wire.q.end()));
    fannr::FannrQuery job;
    job.query.graph = &graph;
    job.query.data_points = p.get();
    job.query.query_points = q.get();
    job.query.phi = wire.phi;
    job.query.aggregate = static_cast<Aggregate>(wire.aggregate);
    if (!wire.weights.empty()) job.query.weights = &wire.weights;
    job.algorithm = static_cast<FannAlgorithm>(wire.algorithm);
    sets.push_back(std::move(p));
    sets.push_back(std::move(q));
    jobs.push_back(job);
  }
};

std::vector<net::WireResult> ToWire(const std::vector<FannResult>& results) {
  std::vector<net::WireResult> out;
  out.reserve(results.size());
  for (const FannResult& r : results) out.push_back(net::ToWire(r));
  return out;
}

// ---------------------------------------------------------------------------
// Fleet: the serving processes of one set-up.

struct Fleet {
  std::vector<std::unique_ptr<Child>> shards;  // shard servers (routed)
  std::unique_ptr<Child> front;                // server, or the router
  uint16_t port = 0;
  std::vector<uint16_t> shard_ports;
  std::string plan_path;
  double setup_s = 0.0;
  double plan_s = 0.0;
  double ready_s = 0.0;
  double subscribe_s = 0.0;

  /// Stops the router first, then every server; returns the summed peak
  /// RSS in KiB and whether every process exited cleanly.
  long Stop(bool* clean) {
    long rss = 0;
    *clean = true;
    if (front) {
      *clean &= front->Stop(30.0) == 0;
      rss += front->max_rss_kib();
    }
    for (auto& s : shards) {
      *clean &= s->Stop(30.0) == 0;
      rss += s->max_rss_kib();
    }
    return rss;
  }
};

/// One registered standing query.
struct SubRecord {
  uint64_t server_id = 0;
  uint64_t epoch = 0;
  net::WireResult initial;
};

class Bench {
 public:
  Bench(Options opts, Spec spec)
      : opts_(std::move(opts)), spec_(std::move(spec)), tracer_(opts_.trace) {}

  int Run();

 private:
  std::string Bin(const char* name) const { return opts_.bin_dir + "/" + name; }
  /// CPUs [first, first + count) when pinning, else none (any CPU).
  std::vector<int> Cpus(size_t first, size_t count) const {
    std::vector<int> cpus;
    for (size_t c = first; pin_ && c < first + count; ++c) {
      cpus.push_back(static_cast<int>(c));
    }
    return cpus;
  }
  bool StartFleet(Fleet* fleet, Loop* loop, std::vector<SubRecord>* subs,
                  std::string* error);
  bool Ping(uint16_t port);
  bool Stats(uint16_t port, std::string* json);
  std::string FleetStats(const Fleet& fleet, std::string* router_json);

  uint32_t NextSatJob();
  double RunSat(Loop& loop, uint8_t phase, double seconds);
  double ServingCpuSeconds() const {
    double total = 0.0;
    for (const Child* c : serving_) total += c->CpuSeconds();
    return total;
  }
  void SendWaveNow(Loop& loop);
  bool RunPaced(Loop& loop);
  bool WarmUp(Loop& loop, const Fleet& fleet);

  void OnPush(const Push& push);

  // Trace-only side measurements against the live fleet.
  void MeasureClientSend(const Fleet& fleet);
  void MeasureRouterHop(const Fleet& fleet);

  // In-process checks and replays once the fleet is down.
  bool CheckAnswers(Loop& loop, const std::vector<SubRecord>& subs);
  void MeasureSolvers(const Graph& graph);

  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  Options opts_;
  Spec spec_;
  /// Whether roles get CPUs of their own (see PinSelf).
  bool pin_ = false;
  Tracer tracer_;
  Inputs in_;
  std::optional<Graph> graph_;  // client-side copy: generation, replays
  size_t sat_cursor_ = 0;
  std::vector<uint16_t> query_conns_;  // loop indices of query connections

  // Wave bookkeeping (updates-subs).
  size_t waves_sent_ = 0;
  std::map<uint64_t, size_t> barrier_subs_;  // server id -> conn index
  std::vector<SubRecord> subs_;
  std::map<uint64_t, size_t> sub_index_;     // server id -> subs_ index
  std::vector<int64_t> barrier_done_ns_;     // per wave, last barrier push
  std::vector<size_t> barrier_count_;        // per wave, barrier pushes seen
  bool waves_quiet_ = true;  // no wave awaiting its barrier pushes

  // Results.
  std::vector<const Child*> serving_;  // kept fleet, for CPU readings
  double sat_cpu_ms_per_query_ = 0.0;
  double sat_qps_ = 0.0;
  double sat_ref_qps_ = 0.0;
  size_t sat_answers_ = 0;
  std::vector<double> late_ms_;
  size_t mismatches_ = 0;
  size_t checked_ = 0;
  size_t push_mismatches_ = 0;
  bool push_set_ok_ = true;
  std::vector<double> wire_ms_, run_ms_, apply_ms_;
  std::vector<double> send_us_, hop_ms_, split_us_, merge_us_;
  struct Named {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Named> metrics_;
  std::string report_;  // extra report fields, JSON fragments
};

bool Bench::Ping(uint16_t port) {
  net::FannClient client;
  return client.Connect("127.0.0.1", port) && client.Ping();
}

bool Bench::Stats(uint16_t port, std::string* json) {
  net::FannClient client;
  return client.Connect("127.0.0.1", port) && client.Stats(*json);
}

bool Bench::StartFleet(Fleet* fleet, Loop* loop, std::vector<SubRecord>* subs,
                       std::string* error) {
  const int64_t t0 = NowNs();
  const std::string preset = kPreset;
  if (spec_.shards > 0) {
    fleet->plan_path = opts_.work_dir + "/shards-" + std::to_string(::getpid()) + ".plan";
    Child plan;
    if (!plan.Spawn({Bin("fannr_shardplan"), "--preset", preset, "--shards",
                     std::to_string(spec_.shards), "--out", fleet->plan_path},
                    Cpus(1, spec_.shards), error)) {
      return false;
    }
    if (plan.WaitExit(60.0) != 0) {
      *error = "fannr_shardplan failed";
      return false;
    }
    fleet->plan_s = Ms(NowNs() - t0) / 1e3;
    for (size_t s = 0; s < spec_.shards; ++s) {
      fleet->shards.push_back(std::make_unique<Child>());
      if (!fleet->shards.back()->Spawn(
              {Bin("fannr_server"), "--preset", preset, "--threads",
               std::to_string(spec_.engine_threads), "--max-queue-depth",
               kQueueDepth, "--shard-plan", fleet->plan_path},
              Cpus(1 + s, 1), error)) {
        return false;
      }
    }
    for (auto& shard : fleet->shards) {
      uint16_t port = 0;
      if (!shard->AwaitListening(60.0, &port, error)) return false;
      fleet->shard_ports.push_back(port);
    }
    std::vector<std::string> argv = {Bin("fannr_router"), "--plan",
                                     fleet->plan_path};
    for (uint16_t port : fleet->shard_ports) {
      argv.push_back("--shard");
      argv.push_back("127.0.0.1:" + std::to_string(port));
    }
    fleet->front = std::make_unique<Child>();
    if (!fleet->front->Spawn(argv, Cpus(1 + spec_.shards, 1), error)) {
      return false;
    }
  } else {
    std::vector<std::string> argv = {
        Bin("fannr_server"), "--preset", preset, "--threads",
        std::to_string(spec_.engine_threads), "--max-queue-depth", kQueueDepth};
    if (spec_.subscriptions > 0) {
      argv.push_back("--max-subscriptions-per-connection");
      argv.push_back(std::to_string(spec_.subscriptions));
    }
    fleet->front = std::make_unique<Child>();
    if (!fleet->front->Spawn(argv, Cpus(1, spec_.engine_threads), error)) {
      return false;
    }
  }
  if (!fleet->front->AwaitListening(60.0, &fleet->port, error)) return false;
  if (!Ping(fleet->port)) {
    *error = "first PING failed";
    return false;
  }
  const int64_t ready = NowNs();
  fleet->ready_s = Ms(ready - t0) / 1e3 - fleet->plan_s;

  if (spec_.subscriptions > 0) {
    const size_t per_conn = spec_.subscriptions / spec_.subscriber_conns;
    std::vector<int> conns;
    for (size_t c = 0; c < spec_.subscriber_conns; ++c) {
      conns.push_back(loop->Connect(fleet->port, Role::kSubscriber, error));
      if (conns.back() < 0) return false;
    }
    for (size_t i = 0; i < in_.subs.size(); ++i) {
      net::SubscribeRequest request;
      request.query = in_.subs[i];
      request.force_push = in_.force_push[i];
      std::vector<uint8_t> payload;
      SubRecord record;
      const int64_t span = tracer_.Begin("cont.subscribe");
      if (!loop->RoundTrip(static_cast<uint16_t>(conns[i / per_conn]),
                           net::Opcode::kSubscribe,
                           net::EncodeSubscribeRequest(request),
                           net::Opcode::kSubscribeResult, &payload,
                           &record.server_id)) {
        *error = "SUBSCRIBE failed: " + loop->failure();
        return false;
      }
      tracer_.End(span);
      net::SubscribeResponse response;
      if (!net::DecodeSubscribeResponse(payload, response) ||
          response.result.status != 0) {
        *error = "SUBSCRIBE was not registered";
        return false;
      }
      record.epoch = response.graph_epoch;
      record.initial = response.result;
      subs->push_back(record);
    }
    fleet->subscribe_s = Ms(NowNs() - ready) / 1e3;
  }
  fleet->setup_s = Ms(NowNs() - t0) / 1e3;
  return true;
}

std::string Bench::FleetStats(const Fleet& fleet, std::string* router_json) {
  // Servers' STATS are summed by the delta code below; concatenating the
  // snapshots keeps one string per shard.
  std::string all;
  if (fleet.shards.empty()) {
    Stats(fleet.port, &all);
    return all;
  }
  if (router_json != nullptr) Stats(fleet.port, router_json);
  for (uint16_t port : fleet.shard_ports) {
    std::string json;
    Stats(port, &json);
    all += json;
    all += '\x1e';  // record separator between shard snapshots
  }
  return all;
}

/// Sums `key` (optionally inside `within`) over every snapshot in a
/// FleetStats string.
double SumStat(const std::string& all, const std::string& key,
               const std::string& within = {}) {
  double total = 0.0;
  size_t begin = 0;
  while (begin < all.size()) {
    size_t end = all.find('\x1e', begin);
    if (end == std::string::npos) end = all.size();
    const std::string_view one(all.data() + begin, end - begin);
    total += JsonNumber(one, key, within).value_or(0.0);
    begin = end + 1;
  }
  return total;
}

HistogramTotals SumHistogram(const std::string& all, const std::string& name) {
  HistogramTotals total;
  size_t begin = 0;
  while (begin < all.size()) {
    size_t end = all.find('\x1e', begin);
    if (end == std::string::npos) end = all.size();
    const HistogramTotals one =
        JsonHistogram(std::string_view(all.data() + begin, end - begin), name);
    total.count += one.count;
    total.sum += one.sum;
    begin = end + 1;
  }
  return total;
}

uint32_t Bench::NextSatJob() {
  if (spec_.kind == Kind::kSolveCold) {
    // Cold jobs never repeat; the list is sized well past what a sat
    // window can consume.
    return static_cast<uint32_t>(std::min(sat_cursor_++, in_.sat_jobs - 1));
  }
  return static_cast<uint32_t>(sat_cursor_++ % in_.sat_jobs);
}

void Bench::SendWaveNow(Loop& loop) {
  const size_t w = waves_sent_++ % in_.waves.size();
  barrier_done_ns_.push_back(0);
  barrier_count_.push_back(0);
  waves_quiet_ = false;
  loop.SendWave(static_cast<uint32_t>(w), in_.waves[w]);
}

void Bench::OnPush(const Push& push) {
  auto it = barrier_subs_.find(push.subscription);
  if (it == barrier_subs_.end() || push.epoch == 0) return;
  const size_t wave = push.epoch - 1;
  if (wave >= barrier_count_.size()) return;
  if (++barrier_count_[wave] == barrier_subs_.size()) {
    barrier_done_ns_[wave] = push.at_ns;
    if (wave + 1 == barrier_count_.size()) waves_quiet_ = true;
  }
}

double Bench::RunSat(Loop& loop, uint8_t phase, double seconds) {
  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  const double cpu0_s = ServingCpuSeconds();
  size_t answered = 0;
  std::vector<int64_t> done;
  bool issuing = true;
  loop.on_done = [&](uint32_t index) {
    const Request& r = loop.requests()[index];
    if (r.phase != phase) return;
    const uint16_t conn = r.conn;
    if (r.ok && r.done_ns <= end) {
      ++answered;
      done.push_back(r.done_ns);
    }
    if (!issuing || NowNs() >= end) return;
    loop.SendQuery(conn, NextSatJob(), phase, NowNs(), /*flush=*/false);
  };
  for (uint16_t conn : query_conns_) {
    for (size_t w = 0; w < spec_.window; ++w) {
      loop.SendQuery(conn, NextSatJob(), phase, NowNs());
    }
  }
  while (NowNs() < end && !loop.failed()) loop.PollOnce(end - NowNs());
  const double cpu_s = ServingCpuSeconds() - cpu0_s;
  issuing = false;
  loop.Drain(120.0);
  loop.on_done = nullptr;
  if (phase == kPhaseSat) {
    sat_answers_ = answered;
    sat_cpu_ms_per_query_ =
        answered > 0 ? cpu_s * 1e3 / static_cast<double>(answered) : 0.0;
  }
  const size_t slices = std::max<size_t>(
      1, static_cast<size_t>(seconds / spec_.qps_slice_s));
  return MedianSliceRate(done, t0, (end - t0) / static_cast<int64_t>(slices),
                         slices);
}

bool Bench::RunPaced(Loop& loop) {
  const Schedule& s = in_.paced;
  const int64_t t0 = NowNs() + 2'000'000;
  size_t i = 0, k = 0;
  const size_t first_job = in_.sat_jobs;
  while ((i < s.send_s.size() || k < s.wave_s.size()) && !loop.failed()) {
    const int64_t now = NowNs();
    while (i < s.send_s.size() &&
           t0 + static_cast<int64_t>(s.send_s[i] * 1e9) <= now) {
      const int64_t due = t0 + static_cast<int64_t>(s.send_s[i] * 1e9);
      const uint32_t r = loop.SendQuery(
          query_conns_[i % query_conns_.size()],
          static_cast<uint32_t>(first_job + i), kPhasePaced, due);
      late_ms_.push_back(Ms(loop.requests()[r].sent_ns - due));
      ++i;
    }
    while (k < s.wave_s.size() &&
           t0 + static_cast<int64_t>(s.wave_s[k] * 1e9) <= now) {
      SendWaveNow(loop);
      ++k;
    }
    int64_t next = INT64_MAX;
    if (i < s.send_s.size()) next = t0 + static_cast<int64_t>(s.send_s[i] * 1e9);
    if (k < s.wave_s.size()) {
      next = std::min(next, t0 + static_cast<int64_t>(s.wave_s[k] * 1e9));
    }
    if (next == INT64_MAX) break;
    loop.PollOnce(next - NowNs());
  }
  if (!loop.Drain(120.0)) return false;
  const int64_t quiet_by = NowNs() + 60'000'000'000LL;
  while (!waves_quiet_ && !loop.failed() && NowNs() < quiet_by) {
    loop.PollOnce(quiet_by - NowNs());
  }
  return !loop.failed() && waves_quiet_;
}

bool Bench::WarmUp(Loop& loop, const Fleet& fleet) {
  // Warm-up jobs first (hot: every hot source becomes resident; cold:
  // the cache fills past capacity), then a short closed loop.
  const size_t first = in_.sat_jobs + in_.paced_jobs;
  for (size_t j = first; j < in_.jobs.size(); ++j) {
    loop.SendQuery(query_conns_[j % query_conns_.size()],
                   static_cast<uint32_t>(j), kPhaseWarm, NowNs());
  }
  if (!loop.Drain(300.0)) return false;
  if (spec_.kind == Kind::kSolveCold) {
    std::string json = FleetStats(fleet, nullptr);
    const double evictions = SumStat(json, "evictions", "cache");
    report_ += ",\n  \"warm_cache_evictions\": " + std::to_string(evictions);
    if (!(evictions > 0.0)) {
      std::fprintf(stderr, "fannbench: warm-up left the cache unfilled\n");
      return false;
    }
    return true;
  }
  const size_t saved = sat_cursor_;
  RunSat(loop, kPhaseWarm, 0.3);
  sat_cursor_ = saved;
  return !loop.failed();
}

void Bench::MeasureClientSend(const Fleet& fleet) {
  net::FannClient client;
  if (!client.Connect("127.0.0.1", fleet.port)) return;
  const size_t n = spec_.kind == Kind::kSolveCold ? 16 : 512;
  for (size_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    const int64_t span = tracer_.Begin("client.send_query");
    const int64_t t = NowNs();
    if (!client.SendQuery(in_.jobs[i % in_.sat_jobs], &id)) return;
    send_us_.push_back(static_cast<double>(NowNs() - t) / 1e3);
    tracer_.End(span);
  }
  net::FrameHeader header;
  std::vector<uint8_t> payload;
  for (size_t i = 0; i < n; ++i) {
    if (!client.ReadAny(header, payload)) return;
  }
}

void Bench::MeasureRouterHop(const Fleet& fleet) {
  std::string error;
  const std::optional<net::ShardPlan> plan =
      net::ShardPlan::Load(fleet.plan_path, &error);
  if (!plan) return;
  net::FannClient router;
  std::vector<std::unique_ptr<net::FannClient>> shards;
  if (!router.Connect("127.0.0.1", fleet.port)) return;
  for (uint16_t port : fleet.shard_ports) {
    shards.push_back(std::make_unique<net::FannClient>());
    if (!shards.back()->Connect("127.0.0.1", port)) return;
  }
  const size_t n = std::min<size_t>(400, in_.paced_jobs);
  for (size_t i = 0; i < n; ++i) {
    const net::WireQuery& job = in_.jobs[in_.sat_jobs + i];
    const int64_t span = tracer_.Begin("router.hop", -1, i);
    int64_t t = NowNs();
    net::QueryResponse routed;
    if (!router.Query(job, routed)) return;
    const double routed_ms = Ms(NowNs() - t);

    t = NowNs();
    const std::vector<std::vector<uint32_t>> split = plan->SplitByShard(job.p);
    split_us_.push_back(static_cast<double>(NowNs() - t) / 1e3);

    t = NowNs();
    std::vector<size_t> sent;
    for (size_t s = 0; s < split.size(); ++s) {
      if (split[s].empty()) continue;
      net::BatchRequest batch;
      batch.jobs.push_back(job);
      batch.jobs.back().p = split[s];
      uint64_t id = 0;
      if (!shards[s]->SendBatch(batch, &id)) return;
      sent.push_back(s);
    }
    std::vector<net::ShardAnswer> answers;
    for (size_t s : sent) {
      net::FrameHeader header;
      std::vector<uint8_t> payload;
      if (!shards[s]->ReadAny(header, payload)) return;
      net::BatchResponse response;
      net::ShardAnswer answer;
      answer.shard = static_cast<uint32_t>(s);
      answer.transport_ok = net::DecodeBatchResponse(payload, response) &&
                            response.results.size() == 1;
      if (!answer.transport_ok) return;
      answer.graph_epoch = response.graph_epoch;
      answer.result = response.results[0];
      answers.push_back(std::move(answer));
    }
    const double direct_ms = Ms(NowNs() - t);
    hop_ms_.push_back(Remainder(routed_ms, direct_ms));

    t = NowNs();
    const net::MergedAnswer merged = net::MergeShardAnswers(answers);
    merge_us_.push_back(static_cast<double>(NowNs() - t) / 1e3);
    tracer_.End(span);
    if (!SameBits(merged.result, routed.result)) ++mismatches_;
    ++checked_;
  }
}

/// Checks every answer and push bitwise against in-process solves at
/// its stamped epoch, walking the graph copy through the same waves.
/// In traced runs it doubles as the replay: sat answers are re-run in
/// window-sized bursts (engine.run_ms), paced ones one by one against
/// their round trip (server.wire_ms).
bool Bench::CheckAnswers(Loop& loop, const std::vector<SubRecord>& subs) {
  fannr::GphiResources resources;
  resources.graph = &*graph_;
  fannr::BatchOptions options;
  options.num_threads = opts_.trace ? spec_.engine_threads : kCheckThreads;
  options.cache_capacity = kCheckCacheEntries;
  options.enable_metrics = opts_.trace;
  fannr::BatchQueryEngine engine(resources, options);
  // Traced runs keep subscription re-solves out of the replay engine's
  // registry; untraced runs share one engine and its per-epoch cache.
  std::optional<fannr::BatchQueryEngine> traced_sub_engine;
  if (opts_.trace) {
    fannr::BatchOptions sub_options;
    sub_options.num_threads = kCheckThreads;
    sub_options.cache_capacity = kCheckCacheEntries;
    traced_sub_engine.emplace(resources, sub_options);
  }
  fannr::BatchQueryEngine& sub_engine = opts_.trace ? *traced_sub_engine : engine;

  std::vector<Request>& reqs = loop.requests();
  std::map<uint64_t, std::vector<uint32_t>> by_epoch;
  for (uint32_t i = 0; i < reqs.size(); ++i) {
    // Warm-up answers are not timed; the cold warm-up alone would cost
    // more to re-solve than the whole timed window.
    if (reqs[i].ok && reqs[i].phase != kPhaseWarm) {
      by_epoch[reqs[i].epoch].push_back(i);
    }
  }
  std::map<std::pair<size_t, uint64_t>, const Push*> pushes;
  for (const Push& p : loop.pushes()) {
    auto it = sub_index_.find(p.subscription);
    if (it == sub_index_.end()) {
      push_set_ok_ = false;
      continue;
    }
    pushes[{it->second, p.epoch}] = &p;
  }
  const uint64_t last_epoch = waves_sent_;
  std::vector<net::WireResult> delivered;
  for (const SubRecord& s : subs) delivered.push_back(s.initial);

  for (uint64_t epoch = 0; epoch <= last_epoch; ++epoch) {
    if (epoch > 0) {
      const fannr::dynamic::UpdateBatch& batch =
          in_.wave_batches[(epoch - 1) % in_.wave_batches.size()];
      const int64_t span = tracer_.Begin("dynamic.apply");
      const int64_t t = NowNs();
      batch.Apply(*graph_);
      apply_ms_.push_back(Ms(NowNs() - t));
      tracer_.End(span);
      if (graph_->epoch() != epoch) return false;
    }
    const std::vector<uint32_t>& at = by_epoch[epoch];
    if (opts_.trace) {
      std::vector<uint32_t> sat, paced;
      for (uint32_t i : at) {
        (reqs[i].phase == kPhasePaced ? paced : sat).push_back(i);
      }
      const size_t burst = kQueryConnections * spec_.window;
      for (size_t b = 0; b < sat.size(); b += burst) {
        JobBatch batch;
        const size_t e = std::min(sat.size(), b + burst);
        for (size_t j = b; j < e; ++j) batch.Add(*graph_, in_.jobs[reqs[sat[j]].job]);
        const int64_t span = tracer_.Begin("engine.run");
        const int64_t t = NowNs();
        const std::vector<net::WireResult> got = ToWire(engine.Run(batch.jobs));
        run_ms_.push_back(Ms(NowNs() - t));
        tracer_.End(span);
        for (size_t j = b; j < e; ++j) {
          ++checked_;
          if (!SameBits(got[j - b], reqs[sat[j]].result)) ++mismatches_;
        }
      }
      for (uint32_t i : paced) {
        JobBatch batch;
        batch.Add(*graph_, in_.jobs[reqs[i].job]);
        const int64_t span = tracer_.Begin("engine.run_single", -1, i);
        const int64_t t = NowNs();
        const std::vector<net::WireResult> got = ToWire(engine.Run(batch.jobs));
        const double run = Ms(NowNs() - t);
        tracer_.End(span);
        wire_ms_.push_back(Remainder(Ms(reqs[i].done_ns - reqs[i].sent_ns), run));
        ++checked_;
        if (!SameBits(got[0], reqs[i].result)) ++mismatches_;
      }
    } else if (!at.empty()) {
      // One answer per distinct job is enough: equal jobs at one epoch
      // must get bitwise-equal answers.
      std::map<uint32_t, size_t> slot;
      JobBatch batch;
      for (uint32_t i : at) {
        if (slot.emplace(reqs[i].job, batch.jobs.size()).second) {
          batch.Add(*graph_, in_.jobs[reqs[i].job]);
        }
      }
      const std::vector<net::WireResult> got = ToWire(engine.Run(batch.jobs));
      for (uint32_t i : at) {
        ++checked_;
        if (!SameBits(got[slot[reqs[i].job]], reqs[i].result)) ++mismatches_;
      }
    }

    if (subs.empty()) continue;
    JobBatch batch;
    for (const net::WireQuery& q : in_.subs) batch.Add(*graph_, q);
    const std::vector<net::WireResult> now = ToWire(sub_engine.Run(batch.jobs));
    for (size_t s = 0; s < subs.size(); ++s) {
      if (epoch == subs[s].epoch) {
        ++checked_;
        if (!SameBits(now[s], subs[s].initial)) ++push_mismatches_;
      }
      if (epoch == 0) continue;
      const bool predicted =
          in_.force_push[s] != 0 || !net::SameVisibleAnswer(now[s], delivered[s]);
      auto it = pushes.find({s, epoch});
      const bool received = it != pushes.end();
      if (predicted != received) push_set_ok_ = false;
      if (received) {
        ++checked_;
        if (!SameBits(now[s], it->second->result)) ++push_mismatches_;
        delivered[s] = now[s];
      }
    }
  }
  if (opts_.trace && engine.metrics() != nullptr) {
    const fannr::obs::MetricsSnapshot snap = engine.metrics()->Snapshot();
    auto mean = [&snap](const char* name) {
      const fannr::obs::HistogramSnapshot* h = snap.histogram(name);
      return h != nullptr ? h->Mean() : 0.0;
    };
    Metric("engine.dispatch_wait_ms.mean", mean("engine.dispatch_wait_ms"), "ms");
    Metric("engine.solve_ms.mean", mean("engine.solve_ms"), "ms");
    Metric("engine.sssp_ms.mean", mean("cache.sssp_compute_ms"), "ms");
  }
  return true;
}

void Bench::MeasureSolvers(const Graph& graph) {
  struct Alg {
    FannAlgorithm algorithm;
    const char* key;
  };
  static constexpr Alg kAlgs[] = {{FannAlgorithm::kGd, "gd"},
                                  {FannAlgorithm::kRList, "rlist"},
                                  {FannAlgorithm::kIer, "ier"},
                                  {FannAlgorithm::kExactMax, "exact_max"},
                                  {FannAlgorithm::kApxSum, "apx_sum"}};
  constexpr size_t kPerAlgorithm = 10;
  for (const Alg& a : kAlgs) {
    // The workload's own jobs: cold ones of this solver as drawn, hot
    // ones re-targeted to it (with the aggregate it supports).
    std::vector<net::WireQuery> jobs;
    for (size_t j = 0; j < in_.sat_jobs && jobs.size() < kPerAlgorithm; ++j) {
      net::WireQuery job = in_.jobs[j];
      if (spec_.kind == Kind::kSolveCold) {
        if (job.algorithm != static_cast<uint8_t>(a.algorithm)) continue;
      } else {
        job.algorithm = static_cast<uint8_t>(a.algorithm);
        if (a.algorithm == FannAlgorithm::kExactMax) {
          job.aggregate = static_cast<uint8_t>(Aggregate::kMax);
        }
      }
      jobs.push_back(std::move(job));
    }
    auto cache = std::make_shared<fannr::SourceDistanceCache>(kCheckCacheEntries);
    fannr::CachedSsspEngine engine(graph, cache);
    std::vector<double> ms, evals;
    const int passes = spec_.kind == Kind::kSolveCold ? 1 : 2;  // hot: warm first
    for (int pass = 0; pass < passes; ++pass) {
      ms.clear();
      evals.clear();
      for (const net::WireQuery& job : jobs) {
        JobBatch batch;
        batch.Add(graph, job);
        const fannr::FannQuery& q = batch.jobs[0].query;
        std::optional<fannr::RTree> tree;
        if (a.algorithm == FannAlgorithm::kIer) {
          tree = fannr::BuildDataPointRTree(graph, *q.data_points);
        }
        const int64_t span = tracer_.Begin("fann.solve");
        const int64_t t = NowNs();
        const FannResult r = fannr::SolveWith(a.algorithm, q, engine,
                                              tree ? &*tree : nullptr);
        ms.push_back(Ms(NowNs() - t));
        tracer_.End(span);
        evals.push_back(static_cast<double>(r.gphi_evaluations));
      }
    }
    Metric(std::string("fann.solve_ms.") + a.key, Mean(ms), "ms");
    Metric(std::string("fann.gphi_evals.") + a.key, Mean(evals), "count");
  }
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Confines the calling thread (and threads it creates later) to `cpus`,
/// or lets it run anywhere when `cpus` is empty.
void PinSelf(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus.empty()) {
    for (long c = 0; c < n; ++c) CPU_SET(c, &set);
  } else {
    for (int c : cpus) CPU_SET(c, &set);
  }
  ::sched_setaffinity(0, sizeof(set), &set);
}

int Bench::Run() {
  ::mkdir(opts_.work_dir.c_str(), 0755);
  // With enough CPUs every role gets CPUs of its own: this process's
  // thread CPU 0, each serving process the next ones. Left to the
  // scheduler, the same server lands in fast or slow thread placements
  // from run to run and its throughput is bimodal.
  const size_t needed = 1 + (spec_.shards > 0 ? spec_.shards + 1
                                               : spec_.engine_threads);
  pin_ = ::sysconf(_SC_NPROCESSORS_ONLN) >= static_cast<long>(needed);
  if (pin_) PinSelf({0});
  // Every query makes the server allocate two dense |V|-sized vertex-set
  // indexes (~190 KiB each on DE). Under glibc's adaptive mmap threshold
  // those land either on the heap or in fresh mmaps, decided by the
  // allocation history, and throughput moved by 2x between runs and
  // within one. A fixed threshold above that size keeps every run on
  // the heap path. Serving processes inherit it.
  ::setenv("GLIBC_TUNABLES", kMallocTunables, 1);
  const int64_t gen_t0 = NowNs();
  {
    std::vector<double> graph_s;
    for (int i = 0; i < 3; ++i) {
      const int64_t span = tracer_.Begin("setup.graph");
      const int64_t t = NowNs();
      graph_.emplace(fannr::BuildPreset(kPreset));
      graph_s.push_back(Ms(NowNs() - t) / 1e3);
      tracer_.End(span);
    }
    Metric("setup.graph_s", Median(graph_s), "s");
  }
  in_ = Generate(spec_, *graph_, opts_.seed, opts_.seconds);
  const double gen_s = Ms(NowNs() - gen_t0) / 1e3;

  // --- set-up: several cold starts, the last one kept ------------------
  std::string error;
  std::vector<double> setup_s, plan_s, ready_s, subscribe_s;
  Loop loop(in_.jobs, tracer_);
  Fleet fleet;
  for (size_t start = 0; start < kColdStarts; ++start) {
    const bool keep = start + 1 == kColdStarts;
    std::vector<SubRecord> subs;
    Fleet trial;
    Loop scratch(in_.jobs, tracer_);
    if (!StartFleet(&trial, keep ? &loop : &scratch, &subs, &error)) {
      std::fprintf(stderr, "fannbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(trial.setup_s);
    plan_s.push_back(trial.plan_s);
    ready_s.push_back(trial.ready_s);
    subscribe_s.push_back(trial.subscribe_s);
    if (keep) {
      fleet = std::move(trial);
      for (const auto& s : fleet.shards) serving_.push_back(s.get());
      serving_.push_back(fleet.front.get());
      subs_ = std::move(subs);
    } else {
      bool clean = true;
      trial.Stop(&clean);
    }
  }
  for (size_t s = 0; s < subs_.size(); ++s) {
    sub_index_[subs_[s].server_id] = s;
    if (in_.force_push[s] != 0) barrier_subs_[subs_[s].server_id] = s;
  }

  // --- query connections, warm-up, timed windows -----------------------
  // The kept loop already holds the subscriber connections.
  for (size_t c = 0; c < kQueryConnections; ++c) {
    const int index = loop.Connect(fleet.port, Role::kQuery, &error);
    if (index < 0) {
      std::fprintf(stderr, "fannbench: %s\n", error.c_str());
      return 1;
    }
    query_conns_.push_back(static_cast<uint16_t>(index));
  }
  if (spec_.subscriptions > 0 &&
      loop.Connect(fleet.port, Role::kUpdate, &error) < 0) {
    std::fprintf(stderr, "fannbench: %s\n", error.c_str());
    return 1;
  }
  loop.on_push = [this](const Push& p) { OnPush(p); };

  if (!WarmUp(loop, fleet)) {
    std::fprintf(stderr, "fannbench: warm-up failed: %s\n", loop.failure().c_str());
    return 1;
  }
  std::string router_before, router_after;
  const std::string before = FleetStats(fleet, &router_before);
  const double sat_s = opts_.seconds * kSatShare;
  if (opts_.trace) {
    tracer_.set_enabled(false);
    sat_ref_qps_ = RunSat(loop, kPhaseSatRef, sat_s);
    tracer_.set_enabled(true);
  }
  sat_qps_ = RunSat(loop, kPhaseSat, sat_s);
  const bool paced_ok = !loop.failed() && RunPaced(loop);
  const std::string after = FleetStats(fleet, &router_after);
  if (!paced_ok) {
    std::fprintf(stderr, "fannbench: timed window failed: %s\n",
                 loop.failure().c_str());
    return 1;
  }
  if (opts_.trace) {
    MeasureClientSend(fleet);
    if (spec_.shards > 0) MeasureRouterHop(fleet);
  }
  bool clean = true;
  const long rss_kib = fleet.Stop(&clean);
  PinSelf({});  // the in-process check may use every CPU
  if (!fleet.plan_path.empty()) ::unlink(fleet.plan_path.c_str());
  if (!clean) std::fprintf(stderr, "fannbench: a serving process exited uncleanly\n");

  // --- per-request results ----------------------------------------------
  std::vector<double> latency_ms;
  size_t paced_slow = 0, paced_total = 0;
  for (const Request& r : loop.requests()) {
    if (r.phase != kPhasePaced) continue;
    ++paced_total;
    if (r.ok) latency_ms.push_back(Ms(r.done_ns - r.due_ns));
    bool slow = in_.slow[r.job] != 0;
    for (size_t w = 0; w < loop.waves().size() && !slow; ++w) {
      const WaveRecord& wave = loop.waves()[w];
      const int64_t until = w < barrier_done_ns_.size() ? barrier_done_ns_[w] : 0;
      slow = r.due_ns >= wave.sent_ns && r.due_ns <= until;
    }
    if (slow) ++paced_slow;
  }
  const Summary lat = Summarize(latency_ms);
  const ChunkedTail tail = ChunkedTailOf(
      latency_ms,
      static_cast<size_t>(std::llround(spec_.paced_rate * spec_.tail_slice_s)));
  const double slow_share =
      paced_total > 0 ? static_cast<double>(paced_slow) / paced_total : 0.0;
  const bool slow_clear = SlowShareClear(slow_share, tail.percentile);
  if (!slow_clear) {
    std::fprintf(stderr,
                 "fannbench: slow-class share %.3f sits near the p%.2f tail cut\n",
                 slow_share, tail.percentile);
  }
  std::vector<double> late_sorted = late_ms_;
  const Summary late = Summarize(late_sorted);
  std::sort(late_sorted.begin(), late_sorted.end());
  const double late_p99 =
      late_sorted.empty() ? 0.0
                          : late_sorted[static_cast<size_t>(0.99 * (late_sorted.size() - 1))];
  const bool valid = late_p99 <= kMaxLateMs;
  if (!valid) {
    std::fprintf(stderr, "fannbench: generator fell behind (p99 lateness %.3f ms)\n",
                 late_p99);
  }

  // --- answer check (and, traced, the replays) --------------------------
  const int64_t check_t0 = NowNs();
  // Solvers first: IER-kNN needs the unmodified (Euclidean-consistent)
  // weights, which the epoch walk below changes.
  if (opts_.trace) MeasureSolvers(*graph_);
  if (!CheckAnswers(loop, subs_)) {
    std::fprintf(stderr, "fannbench: epoch walk diverged from the server\n");
    return 1;
  }
  const double check_s = Ms(NowNs() - check_t0) / 1e3;
  // STATS cross-check of the push counters against the client's view.
  const double pushes_sent = SumStat(after, "server.pushes.sent") -
                             SumStat(before, "server.pushes.sent");
  const double pushes_suppressed = SumStat(after, "server.pushes.suppressed") -
                                   SumStat(before, "server.pushes.suppressed");
  const double pushes_dropped =
      SumStat(after, "server.pushes.dropped_backpressure") -
      SumStat(before, "server.pushes.dropped_backpressure");
  size_t pushes_in_window = 0;
  for (const Push& p : loop.pushes()) pushes_in_window += p.epoch > 0 ? 1 : 0;
  if (pushes_dropped == 0.0 &&
      static_cast<size_t>(pushes_sent) != pushes_in_window) {
    push_set_ok_ = false;
  }
  if (pushes_dropped > 0.0) push_set_ok_ = true;  // delta rule no longer predictable

  const FailureCounts& f = loop.failures();
  size_t attempted = 0;
  for (const Request& r : loop.requests()) {
    if (r.phase == kPhaseSat || r.phase == kPhasePaced || r.phase == kPhaseSatRef) {
      ++attempted;
    }
  }
  attempted += loop.waves().size() + subs_.size();
  size_t failed_ops = 0;
  for (const Request& r : loop.requests()) {
    if ((r.phase == kPhaseSat || r.phase == kPhasePaced || r.phase == kPhaseSatRef) &&
        !r.ok) {
      ++failed_ops;
    }
  }
  failed_ops += mismatches_ + push_mismatches_;
  const bool correct = mismatches_ == 0 && push_mismatches_ == 0 &&
                       push_set_ok_ && checked_ > 0;

  const double peak_rss_mb = static_cast<double>(rss_kib) / 1024.0;
  std::vector<double> push_ms, reeval_ms, update_ms;
  {
    const std::vector<WaveRecord>& waves = loop.waves();
    for (const Push& p : loop.pushes()) {
      if (p.epoch == 0 || p.epoch > waves.size()) continue;
      push_ms.push_back(Ms(p.at_ns - waves[p.epoch - 1].sent_ns));
    }
    for (size_t w = 0; w < waves.size(); ++w) {
      update_ms.push_back(Ms(waves[w].ack_ns - waves[w].sent_ns));
      if (w < barrier_done_ns_.size() && barrier_done_ns_[w] > 0) {
        reeval_ms.push_back(Remainder(Ms(barrier_done_ns_[w] - waves[w].sent_ns),
                                      Ms(waves[w].ack_ns - waves[w].sent_ns)));
      }
    }
  }

  if (!opts_.trace) {
    metrics_.clear();
    Metric("cpu_ms_per_query", sat_cpu_ms_per_query_, "ms");
    Metric("setup_s", Median(setup_s), "s");
    Metric("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    // Wall-clock throughput and latency are reported with the per-layer
    // figures (and in every report line): on a box whose host steals
    // CPU in bursts they did not repeat within any allowed bound.
    Metric("qps", sat_qps_, "1/s");
    Metric("query_p50_ms", lat.p50, "ms");
    Metric("query_tail_ms", tail.tail, "ms");
    Metric("setup.plan_s", Median(plan_s), "s");
    Metric("setup.ready_s", Median(ready_s), "s");
    Metric("setup.subscribe_s", Median(subscribe_s), "s");
    Metric("client.send_us", Mean(send_us_), "us");
    const Summary wire = Summarize(wire_ms_);
    Metric("server.wire_ms.p50", wire.p50, "ms");
    Metric("server.wire_ms.tail", wire.tail, "ms");
    Metric("server.queue_wait_ms.mean",
           DeltaMean(SumHistogram(before, "server.queue_wait_ms"),
                     SumHistogram(after, "server.queue_wait_ms")),
           "ms");
    Metric("server.overloaded",
           SumStat(after, "server.overloaded") - SumStat(before, "server.overloaded"),
           "count");
    Metric("server.stale_rejections",
           SumStat(after, "server.rejected_stale_admission") -
               SumStat(before, "server.rejected_stale_admission"),
           "count");
    const Summary run = Summarize(run_ms_);
    Metric("engine.run_ms.p50", run.p50, "ms");
    Metric("engine.run_ms.tail", run.tail, "ms");
    const double hits = SumStat(after, "hits", "cache") - SumStat(before, "hits", "cache");
    const double misses =
        SumStat(after, "misses", "cache") - SumStat(before, "misses", "cache");
    Metric("engine.cache_lookups", hits + misses, "count");
    Metric("engine.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
           "ratio");
    Metric("engine.cache_epoch_evictions",
           SumStat(after, "epoch_evictions", "cache") -
               SumStat(before, "epoch_evictions", "cache"),
           "count");
    const Summary reeval = Summarize(reeval_ms);
    Metric("cont.reeval_ms.p50", reeval.p50, "ms");
    Metric("cont.reeval_ms.tail", reeval.tail, "ms");
    const Summary push = Summarize(push_ms);
    Metric("push_p50_ms", push.p50, "ms");
    Metric("push_tail_ms", push.tail, "ms");
    Metric("update_p50_ms", Summarize(update_ms).p50, "ms");
    Metric("cont.pushes_sent", pushes_sent, "count");
    Metric("cont.pushes_suppressed", pushes_suppressed, "count");
    Metric("cont.suppressed_ratio",
           pushes_sent + pushes_suppressed > 0
               ? pushes_suppressed / (pushes_sent + pushes_suppressed)
               : 0.0,
           "ratio");
    Metric("cont.pushes_dropped", pushes_dropped, "count");
    Metric("dynamic.apply_ms", Mean(apply_ms_), "ms");
    const Summary hop = Summarize(hop_ms_);
    Metric("router.hop_ms.p50", hop.p50, "ms");
    Metric("router.hop_ms.tail", hop.tail, "ms");
    Metric("router.split_us", Mean(split_us_), "us");
    Metric("router.merge_us", Mean(merge_us_), "us");
    Metric("router.sub_batches",
           JsonNumber(router_after, "router.fanout.sub_batches").value_or(0.0) -
               JsonNumber(router_before, "router.fanout.sub_batches").value_or(0.0),
           "count");
    Metric("router.epoch_retries",
           JsonNumber(router_after, "router.fanout.epoch_retries").value_or(0.0) -
               JsonNumber(router_before, "router.fanout.epoch_retries").value_or(0.0),
           "count");
    Metric("trace.overhead_frac",
           sat_ref_qps_ > 0.0 ? 1.0 - sat_qps_ / sat_ref_qps_ : 0.0, "ratio");
    Metric("gen.late_ms", late_p99, "ms");
    Metric("slow.share", slow_share, "ratio");
    const std::string trace_path = opts_.work_dir + "/trace-" + spec_.name + "-" +
                                   std::to_string(opts_.seed) + ".jsonl";
    if (!tracer_.Write(trace_path)) {
      std::fprintf(stderr, "fannbench: cannot write %s\n", trace_path.c_str());
    }
  }

  // --- report line, then the result line ---------------------------------
  std::string report = "{\"report\": {\n  \"workload\": \"" + spec_.name +
                       "\", \"seed\": " + std::to_string(opts_.seed) +
                       ", \"seconds\": " + Num(opts_.seconds) +
                       ", \"trace\": " + (opts_.trace ? "true" : "false");
  report += ",\n  \"env\": {\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
            ", \"compiler\": \"" + std::string(__VERSION__) +
            "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"source_id\": \"" +
            opts_.source_id + "\", \"graph\": \"" + kPreset + "\", \"vertices\": " +
            std::to_string(graph_->NumVertices()) + "}";
  report += ",\n  \"threads\": {\"client\": 1, \"server_io\": 1, \"server_executor\": 1, "
            "\"engine_workers\": " + std::to_string(spec_.engine_threads) +
            ", \"servers\": " + std::to_string(spec_.shards > 0 ? spec_.shards : 1) +
            ", \"router_conn_threads\": " +
            std::to_string(spec_.shards > 0 ? kQueryConnections : 0) +
            ", \"pinned\": " + (pin_ ? "true" : "false") +
            ", \"cpus_used\": " + std::to_string(needed) + "}";
  report += ",\n  \"sizes\": {\"cache_capacity_entries\": " +
            std::to_string(in_.cache_capacity_entries) +
            ", \"working_set_sources\": " + std::to_string(in_.working_set_sources) +
            ", \"connections\": " + std::to_string(kQueryConnections) +
            ", \"sat_window\": " + std::to_string(kQueryConnections * spec_.window) +
            ", \"paced_rate\": " + Num(spec_.paced_rate) +
            ", \"paced_sends\": " + std::to_string(in_.paced.send_s.size()) +
            ", \"paced_waves\": " + std::to_string(in_.paced.wave_s.size()) +
            ", \"subscriptions\": " + std::to_string(spec_.subscriptions) + "}";
  report += ",\n  \"figures\": {\"qps\": " + Num(sat_qps_) +
            ", \"query_p50_ms\": " + Num(lat.p50) +
            ", \"query_tail_ms\": " + Num(tail.tail) + "}";
  report += ",\n  \"tail\": {\"percentile\": " + Num(tail.percentile) +
            ", \"samples_per_slice\": " + std::to_string(tail.chunk) +
            ", \"slices\": " + std::to_string(tail.chunks) +
            ", \"beyond_per_slice\": " + std::to_string(kTailBeyond) +
            ", \"paced_samples\": " + std::to_string(lat.n) + "}";
  report += ",\n  \"slow_class\": {\"share\": " + Num(slow_share) +
            ", \"clear_of_cuts\": " + (slow_clear ? "true" : "false") + "}";
  report += ",\n  \"generator\": {\"late_p99_ms\": " + Num(late_p99) +
            ", \"late_max_ms\": " + Num(late.n ? *std::max_element(late_ms_.begin(), late_ms_.end()) : 0.0) +
            ", \"valid\": " + (valid ? "true" : "false") + ", \"gen_s\": " + Num(gen_s) + "}";
  report += ",\n  \"ops\": {\"attempted\": " + std::to_string(attempted) +
            ", \"ok\": " + std::to_string(attempted - failed_ops) +
            ", \"failed\": " + std::to_string(failed_ops) +
            ", \"overloaded\": " + std::to_string(f.overloaded) +
            ", \"stale_twice\": " + std::to_string(f.stale_twice) +
            ", \"stale_resubmits\": " + std::to_string(loop.stale_resubmits()) +
            ", \"timed_out\": " + std::to_string(f.timed_out) +
            ", \"rejected\": " + std::to_string(f.rejected) +
            ", \"transport\": " + std::to_string(f.transport) +
            ", \"mismatches\": " + std::to_string(mismatches_ + push_mismatches_) +
            ", \"checked\": " + std::to_string(checked_) +
            ", \"push_set_ok\": " + (push_set_ok_ ? "true" : "false") +
            ", \"sat_answers\": " + std::to_string(sat_answers_) +
            ", \"waves\": " + std::to_string(loop.waves().size()) +
            ", \"pushes\": " + std::to_string(loop.pushes().size()) + "}";
  report += ",\n  \"setup_samples_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) report += (i ? ", " : "") + Num(setup_s[i]);
  report += "], \"check_s\": " + Num(check_s) + report_ + "\n}}";
  std::printf("%s\n", report.c_str());

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed_ops) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    line += (i ? ", " : "") + std::string("\"") + metrics_[i].name +
            "\": {\"value\": " + Num(metrics_[i].value) + ", \"unit\": \"" +
            metrics_[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

int Usage(const char* why) {
  std::fprintf(stderr, "fannbench: %s\n", why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--bin-dir") {
      opts.bin_dir = value;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--source-id") {
      opts.source_id = value;
    } else {
      return perfbench::Usage("unknown flag");
    }
  }
  const std::optional<perfbench::Spec> spec = perfbench::SpecFor(opts.workload);
  if (!spec) return perfbench::Usage("unknown --workload");
  if (!(opts.seconds > 0.0)) return perfbench::Usage("--seconds must be positive");
  if (opts.bin_dir.empty() || opts.work_dir.empty()) {
    return perfbench::Usage("--bin-dir and --work-dir are required");
  }
  perfbench::Bench bench(opts, *spec);
  return bench.Run();
}
