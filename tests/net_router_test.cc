// FannRouter: sharded serving must be observationally identical to a
// single node. The merge is a pure function of the per-shard answer
// set (never of arrival order); a 2-shard deployment answers bitwise
// what one server answers, before and after a replicated weight wave,
// at every engine thread count; a shard updated behind the router's
// back is detected and the query rejected with the engine's canonical
// mid-batch epoch reason; and a killed-and-restarted replica rejoins
// the fleet epoch by WAL replay plus router catch-up instead of a
// rebuild.

#include "net/router.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/update.h"
#include "dynamic/wal.h"
#include "engine/batch_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard_plan.h"
#include "test_util.h"

namespace fannr::net {
namespace {

constexpr uint64_t kGraphSeed = 4242;
constexpr size_t kGraphVertices = 300;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "fannr_router_" + name;
}

// --- MergeShardAnswers: a pure function of the answer set ----------------

ShardAnswer OkAnswer(uint32_t shard, uint32_t best, double distance,
                     uint64_t gphi, uint64_t epoch = 7) {
  ShardAnswer a;
  a.shard = shard;
  a.transport_ok = true;
  a.graph_epoch = epoch;
  a.result.status = static_cast<uint8_t>(QueryStatus::kOk);
  a.result.best = best;
  a.result.distance = distance;
  a.result.gphi_evaluations = gphi;
  a.result.subset = {best, best + 1};
  return a;
}

/// Runs the merge over every rotation and the reverse of `answers`;
/// all outcomes must be identical to merging the original order.
void ExpectOrderIndependent(std::vector<ShardAnswer> answers) {
  const MergedAnswer expected = MergeShardAnswers(answers);
  auto expect_same = [&](const std::vector<ShardAnswer>& permuted,
                         const std::string& label) {
    const MergedAnswer merged = MergeShardAnswers(permuted);
    EXPECT_EQ(merged.is_error, expected.is_error) << label;
    EXPECT_EQ(merged.error_code, expected.error_code) << label;
    EXPECT_EQ(merged.error_message, expected.error_message) << label;
    EXPECT_EQ(merged.epochs_disagree, expected.epochs_disagree) << label;
    EXPECT_EQ(merged.graph_epoch, expected.graph_epoch) << label;
    EXPECT_EQ(merged.result.status, expected.result.status) << label;
    EXPECT_EQ(merged.result.best, expected.result.best) << label;
    EXPECT_EQ(merged.result.distance, expected.result.distance) << label;
    EXPECT_EQ(merged.result.gphi_evaluations,
              expected.result.gphi_evaluations)
        << label;
    EXPECT_EQ(merged.result.subset, expected.result.subset) << label;
    EXPECT_EQ(merged.result.error, expected.result.error) << label;
  };
  std::vector<ShardAnswer> rotated = answers;
  for (size_t r = 0; r < answers.size(); ++r) {
    std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    expect_same(rotated, "rotation " + std::to_string(r));
  }
  std::reverse(rotated.begin(), rotated.end());
  expect_same(rotated, "reversed");
}

TEST(MergeShardAnswers, CanonicalMinimumWithTiesSummedWork) {
  // Shards 2 and 0 tie on distance; the canonical (distance, id) order
  // picks the smaller vertex id no matter who answered first.
  std::vector<ShardAnswer> answers = {
      OkAnswer(0, 50, 3.25, 11),
      OkAnswer(1, 90, 4.00, 7),
      OkAnswer(2, 12, 3.25, 5),
      OkAnswer(3, 0xFFFFFFFFu, 0.0, 2),  // infeasible in its P-subset
  };
  const MergedAnswer merged = MergeShardAnswers(answers);
  EXPECT_FALSE(merged.is_error);
  EXPECT_FALSE(merged.epochs_disagree);
  EXPECT_EQ(merged.result.best, 12u);
  EXPECT_EQ(merged.result.distance, 3.25);
  EXPECT_EQ(merged.result.gphi_evaluations, 11u + 7u + 5u + 2u);
  EXPECT_EQ(merged.result.subset, (std::vector<uint32_t>{12, 13}));
  ExpectOrderIndependent(answers);
}

TEST(MergeShardAnswers, AllInfeasibleStaysInfeasible) {
  std::vector<ShardAnswer> answers = {
      OkAnswer(0, 0xFFFFFFFFu, 0.0, 3),
      OkAnswer(1, 0xFFFFFFFFu, 0.0, 4),
  };
  const MergedAnswer merged = MergeShardAnswers(answers);
  EXPECT_FALSE(merged.is_error);
  EXPECT_EQ(merged.result.best, 0xFFFFFFFFu);
  EXPECT_EQ(merged.result.gphi_evaluations, 7u);
  ExpectOrderIndependent(answers);
}

TEST(MergeShardAnswers, SeverityPriorityAndLowestShardSelection) {
  ShardAnswer dead;
  dead.shard = 2;
  dead.transport_ok = false;
  dead.error_message = "connection reset";

  ShardAnswer overloaded;
  overloaded.shard = 3;
  overloaded.transport_ok = true;
  overloaded.is_error = true;
  overloaded.error_code = ErrorCode::kOverloaded;
  overloaded.error_message = "queue full";

  ShardAnswer draining;
  draining.shard = 1;
  draining.transport_ok = true;
  draining.is_error = true;
  draining.error_code = ErrorCode::kShuttingDown;
  draining.error_message = "draining";

  ShardAnswer rejected = OkAnswer(0, 5, 1.0, 1);
  rejected.result = WireResult{};
  rejected.result.status = static_cast<uint8_t>(QueryStatus::kRejected);
  rejected.result.error = "bad job";

  ShardAnswer timed_out = OkAnswer(4, 6, 1.0, 1);
  timed_out.result = WireResult{};
  timed_out.result.status = static_cast<uint8_t>(QueryStatus::kTimedOut);
  timed_out.result.error = "deadline";

  const ShardAnswer ok = OkAnswer(5, 9, 2.0, 8);

  // Transport failure trumps everything.
  {
    std::vector<ShardAnswer> answers = {ok, overloaded, dead, draining};
    const MergedAnswer merged = MergeShardAnswers(answers);
    EXPECT_TRUE(merged.is_error);
    EXPECT_EQ(merged.error_code, ErrorCode::kInternal);
    EXPECT_NE(merged.error_message.find("shard 2"), std::string::npos);
    ExpectOrderIndependent(answers);
  }
  // Overload beats other error frames (it is the retryable verdict).
  {
    std::vector<ShardAnswer> answers = {draining, ok, overloaded};
    const MergedAnswer merged = MergeShardAnswers(answers);
    EXPECT_TRUE(merged.is_error);
    EXPECT_EQ(merged.error_code, ErrorCode::kOverloaded);
    EXPECT_EQ(merged.error_message, "queue full");
    ExpectOrderIndependent(answers);
  }
  // Error frames beat per-job statuses.
  {
    std::vector<ShardAnswer> answers = {rejected, draining, ok};
    const MergedAnswer merged = MergeShardAnswers(answers);
    EXPECT_TRUE(merged.is_error);
    EXPECT_EQ(merged.error_code, ErrorCode::kShuttingDown);
    ExpectOrderIndependent(answers);
  }
  // A rejection anywhere poisons the job, relayed over a timeout.
  {
    std::vector<ShardAnswer> answers = {timed_out, ok, rejected};
    const MergedAnswer merged = MergeShardAnswers(answers);
    EXPECT_FALSE(merged.is_error);
    EXPECT_EQ(merged.result.status,
              static_cast<uint8_t>(QueryStatus::kRejected));
    EXPECT_EQ(merged.result.error, "bad job");
    ExpectOrderIndependent(answers);
  }
  {
    std::vector<ShardAnswer> answers = {ok, timed_out};
    const MergedAnswer merged = MergeShardAnswers(answers);
    EXPECT_EQ(merged.result.status,
              static_cast<uint8_t>(QueryStatus::kTimedOut));
    ExpectOrderIndependent(answers);
  }
}

TEST(MergeShardAnswers, EpochDisagreementIsFlaggedWithMaxEpoch) {
  std::vector<ShardAnswer> answers = {
      OkAnswer(0, 5, 1.0, 1, /*epoch=*/3),
      OkAnswer(1, 6, 2.0, 1, /*epoch=*/5),
  };
  const MergedAnswer merged = MergeShardAnswers(answers);
  EXPECT_FALSE(merged.is_error);
  EXPECT_TRUE(merged.epochs_disagree);
  EXPECT_EQ(merged.graph_epoch, 5u);
  ExpectOrderIndependent(answers);
}

// --- end-to-end: 2 shards + router vs one single-node server -------------

/// One shard server plus everything it must outlive.
struct ShardNode {
  ShardNode(uint64_t seed, size_t vertices)
      : graph(testing::MakeRandomNetwork(vertices, seed)) {}

  bool Start(size_t threads, uint16_t port, dynamic::UpdateWal* wal,
             std::string* error) {
    resources = GphiResources{};
    resources.graph = &graph;
    ServerConfig config;
    config.port = port;
    config.engine_options.num_threads = threads;
    config.wal = wal;
    config.test_execution_gate = gate;
    server = std::make_unique<FannServer>(&graph, resources, std::move(config));
    return server->Start(error);
  }

  void Stop() {
    server->RequestShutdown();
    server->Wait();
    server.reset();
  }

  Graph graph;
  GphiResources resources;
  std::unique_ptr<FannServer> server;
  std::function<void()> gate;  ///< Optional executor gate (see ServerConfig).
};

/// Exact-solver jobs over P sets that straddle both shards, plus the
/// screening shapes (unsupported pairing, empty P, out-of-range id)
/// whose rejection text must survive the fan-out verbatim.
std::vector<WireQuery> BuildShardedJobs(const Graph& graph) {
  const FannAlgorithm algorithms[] = {
      FannAlgorithm::kNaive,
      FannAlgorithm::kGd,
      FannAlgorithm::kRList,
      FannAlgorithm::kExactMax,
  };
  const double phis[] = {0.3, 0.5, 1.0};
  std::vector<WireQuery> jobs;
  for (size_t i = 0; i < 9; ++i) {
    const FannAlgorithm algorithm = algorithms[i % 4];
    Aggregate aggregate = (i % 2 == 0) ? Aggregate::kMax : Aggregate::kSum;
    if (algorithm == FannAlgorithm::kExactMax) aggregate = Aggregate::kMax;

    Rng rng(9100 + i);
    const std::vector<VertexId> p = testing::SampleVertices(graph, 16, rng);
    const std::vector<VertexId> q = testing::SampleVertices(graph, 8, rng);
    WireQuery job;
    job.algorithm = static_cast<uint8_t>(algorithm);
    job.aggregate = static_cast<uint8_t>(aggregate);
    job.phi = phis[i % 3];
    job.p = std::vector<uint32_t>(p.begin(), p.end());
    job.q = std::vector<uint32_t>(q.begin(), q.end());
    jobs.push_back(std::move(job));
  }
  // Unsupported (algorithm, aggregate) pairing: rejected with the
  // engine's reason on every shard, relayed once.
  jobs[6].algorithm = static_cast<uint8_t>(FannAlgorithm::kApxSum);
  jobs[6].aggregate = static_cast<uint8_t>(Aggregate::kMax);
  // Empty P: unsplittable, passed through whole to shard 0.
  jobs[7].p.clear();
  // An out-of-range data point: also a passthrough, rejected by the
  // shard with the same screening text a single server produces.
  jobs[8].p.push_back(static_cast<uint32_t>(graph.NumVertices()) + 3);
  return jobs;
}

uint64_t DistanceBits(double distance) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(distance));
  std::memcpy(&bits, &distance, sizeof(bits));
  return bits;
}

/// Bitwise comparison minus gphi_evaluations: the router reports the
/// summed work of all shards, which legitimately differs from the
/// single-node counter. Everything the answer *means* must be equal.
void ExpectAnswerEqual(const WireResult& sharded, const WireResult& single,
                       const std::string& label) {
  EXPECT_EQ(sharded.status, single.status) << label;
  EXPECT_EQ(sharded.best, single.best) << label;
  EXPECT_EQ(DistanceBits(sharded.distance), DistanceBits(single.distance))
      << label << ": sharded " << sharded.distance << " vs single "
      << single.distance;
  EXPECT_EQ(sharded.subset, single.subset) << label;
  EXPECT_EQ(sharded.error, single.error) << label;
}

TEST(FannRouter, TwoShardDifferentialAcrossThreadsAndUpdates) {
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("engine threads = " + std::to_string(threads));

    ShardNode shard0(kGraphSeed, kGraphVertices);
    ShardNode shard1(kGraphSeed, kGraphVertices);
    ShardNode single(kGraphSeed, kGraphVertices);
    const ShardPlan plan = ShardPlan::Build(shard0.graph, 2);
    const std::vector<WireQuery> jobs = BuildShardedJobs(single.graph);

    std::string error;
    ASSERT_TRUE(shard0.Start(threads, 0, nullptr, &error)) << error;
    ASSERT_TRUE(shard1.Start(threads, 0, nullptr, &error)) << error;
    ASSERT_TRUE(single.Start(threads, 0, nullptr, &error)) << error;

    RouterConfig router_config;
    router_config.shards = {{"127.0.0.1", shard0.server->port()},
                            {"127.0.0.1", shard1.server->port()}};
    FannRouter router(plan, router_config);
    ASSERT_TRUE(router.Start(&error)) << error;

    FannClient via_router;
    FannClient via_single;
    ASSERT_TRUE(via_router.Connect("127.0.0.1", router.port()))
        << via_router.last_error();
    ASSERT_TRUE(via_single.Connect("127.0.0.1", single.server->port()))
        << via_single.last_error();

    auto compare_batch = [&](uint64_t expected_epoch,
                             const std::string& label) {
      BatchRequest request;
      request.jobs = jobs;
      BatchResponse sharded;
      BatchResponse reference;
      ASSERT_TRUE(via_router.Batch(request, sharded))
          << via_router.last_error();
      ASSERT_TRUE(via_single.Batch(request, reference))
          << via_single.last_error();
      EXPECT_EQ(sharded.graph_epoch, expected_epoch) << label;
      EXPECT_EQ(reference.graph_epoch, expected_epoch) << label;
      ASSERT_EQ(sharded.results.size(), reference.results.size()) << label;
      for (size_t i = 0; i < sharded.results.size(); ++i) {
        ExpectAnswerEqual(sharded.results[i], reference.results[i],
                          label + " job " + std::to_string(i));
      }
      // The single QUERY path fans out identically.
      QueryResponse q_sharded;
      QueryResponse q_reference;
      QueryRequest one;
      one.query = jobs[0];
      ASSERT_TRUE(via_router.Query(one.query, q_sharded))
          << via_router.last_error();
      ASSERT_TRUE(via_single.Query(one.query, q_reference))
          << via_single.last_error();
      ExpectAnswerEqual(q_sharded.result, q_reference.result,
                        label + " single query");
    };

    compare_batch(0, "steady");

    // One congestion wave, replicated by the router and applied to the
    // single node over its ordinary update path.
    Rng wave_rng(321);
    const dynamic::UpdateBatch wave =
        dynamic::MakeCongestionWave(single.graph, 0.05, 0.5, 3.0, wave_rng);
    ASSERT_FALSE(wave.empty());
    UpdateWeightsRequest update;
    for (const EdgeWeightUpdate& u : wave.updates()) {
      update.entries.push_back({u.u, u.v, u.new_weight});
    }
    UpdateWeightsResponse via_router_response;
    UpdateWeightsResponse via_single_response;
    ASSERT_TRUE(via_router.UpdateWeights(update, via_router_response))
        << via_router.last_error();
    ASSERT_TRUE(via_single.UpdateWeights(update, via_single_response))
        << via_single.last_error();
    EXPECT_EQ(via_router_response.status, 0);
    EXPECT_EQ(via_router_response.new_epoch, 1u);
    EXPECT_EQ(via_router_response.applied, via_single_response.applied);
    EXPECT_EQ(router.repl_epoch(), 1u);

    compare_batch(1, "post-wave");

    // Replication rejections relay too: an entry naming a non-edge is
    // refused by every replica with the single-node reason, applied
    // nowhere, and leaves the fleet epoch alone.
    UpdateWeightsRequest bogus;
    bogus.entries.push_back({0, 0, 1.0});
    UpdateWeightsResponse bogus_via_router;
    UpdateWeightsResponse bogus_via_single;
    ASSERT_TRUE(via_router.UpdateWeights(bogus, bogus_via_router))
        << via_router.last_error();
    ASSERT_TRUE(via_single.UpdateWeights(bogus, bogus_via_single))
        << via_single.last_error();
    EXPECT_EQ(bogus_via_router.status, 1);
    EXPECT_EQ(bogus_via_router.error, bogus_via_single.error);
    EXPECT_EQ(router.repl_epoch(), 1u);

    router.RequestShutdown();
    router.Wait();
    shard0.Stop();
    shard1.Stop();
    single.Stop();
  }
}

TEST(FannRouter, RogueShardUpdateRejectsWithCanonicalStaleReason) {
  ShardNode shard0(kGraphSeed, kGraphVertices);
  ShardNode shard1(kGraphSeed, kGraphVertices);
  const ShardPlan plan = ShardPlan::Build(shard0.graph, 2);

  std::string error;
  ASSERT_TRUE(shard0.Start(1, 0, nullptr, &error)) << error;
  ASSERT_TRUE(shard1.Start(1, 0, nullptr, &error)) << error;

  RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", shard0.server->port()},
                          {"127.0.0.1", shard1.server->port()}};
  FannRouter router(plan, router_config);
  ASSERT_TRUE(router.Start(&error)) << error;

  // An operator (or bug) updates shard 0 directly, behind the router's
  // back: the fleet now disagrees mid-wave and no router-side sync can
  // reconcile it (shard 0 is *ahead* of the router's history).
  {
    Rng rogue_rng(77);
    const dynamic::UpdateBatch rogue =
        dynamic::MakeCongestionWave(shard0.graph, 0.05, 0.5, 3.0, rogue_rng);
    ASSERT_FALSE(rogue.empty());
    FannClient direct;
    ASSERT_TRUE(direct.Connect("127.0.0.1", shard0.server->port()))
        << direct.last_error();
    UpdateWeightsRequest update;
    for (const EdgeWeightUpdate& u : rogue.updates()) {
      update.entries.push_back({u.u, u.v, u.new_weight});
    }
    UpdateWeightsResponse response;
    ASSERT_TRUE(direct.UpdateWeights(update, response))
        << direct.last_error();
    ASSERT_EQ(response.status, 0);
    ASSERT_EQ(response.new_epoch, 1u);
  }

  // A query spanning both shards would mix epoch-1 and epoch-0 weights;
  // after the one sync-and-retry it must be rejected with the exact
  // reason the engine uses for a mid-batch epoch change.
  WireQuery job;
  job.algorithm = static_cast<uint8_t>(FannAlgorithm::kNaive);
  job.aggregate = static_cast<uint8_t>(Aggregate::kSum);
  job.phi = 0.5;
  for (uint32_t v = 0, taken0 = 0, taken1 = 0;
       v < plan.num_vertices() && (taken0 < 8 || taken1 < 8); ++v) {
    uint32_t& taken = plan.OwnerOf(v) == 0 ? taken0 : taken1;
    if (taken < 8) {
      job.p.push_back(v);
      ++taken;
    }
  }
  Rng q_rng(5);
  const std::vector<VertexId> q =
      testing::SampleVertices(shard0.graph, 6, q_rng);
  job.q = std::vector<uint32_t>(q.begin(), q.end());

  FannClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()))
      << client.last_error();
  QueryResponse response;
  ASSERT_TRUE(client.Query(job, response)) << client.last_error();
  EXPECT_EQ(response.result.status,
            static_cast<uint8_t>(QueryStatus::kRejected));
  EXPECT_EQ(response.result.error, MidBatchEpochError(0, 1));

  std::string stats;
  ASSERT_TRUE(client.Stats(stats)) << client.last_error();
  EXPECT_NE(stats.find("\"router.fanout.epoch_retries\": 1"),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"router.stale_rejections\": 1"), std::string::npos)
      << stats;

  router.RequestShutdown();
  router.Wait();
  shard0.Stop();
  shard1.Stop();
}

TEST(FannRouter, KilledReplicaRejoinsViaWalCatchUp) {
  const std::string router_wal_path = TempPath("router.wal");
  const std::string shard1_wal_path = TempPath("shard1.wal");
  std::remove(router_wal_path.c_str());
  std::remove(shard1_wal_path.c_str());

  // gen_graph evolves alongside the fleet and generates each wave from
  // the correct epoch; it doubles as the in-process reference.
  Graph gen_graph = testing::MakeRandomNetwork(kGraphVertices, kGraphSeed);
  const GraphFingerprint epoch0 = gen_graph.Fingerprint();

  ShardNode shard0(kGraphSeed, kGraphVertices);
  auto shard1 = std::make_unique<ShardNode>(kGraphSeed, kGraphVertices);
  const ShardPlan plan = ShardPlan::Build(shard0.graph, 2);

  std::string error;
  std::unique_ptr<dynamic::UpdateWal> router_wal =
      dynamic::UpdateWal::Open(router_wal_path, epoch0, &error);
  ASSERT_NE(router_wal, nullptr) << error;
  std::unique_ptr<dynamic::UpdateWal> shard1_wal =
      dynamic::UpdateWal::Open(shard1_wal_path, epoch0, &error);
  ASSERT_NE(shard1_wal, nullptr) << error;

  ASSERT_TRUE(shard0.Start(1, 0, nullptr, &error)) << error;
  ASSERT_TRUE(shard1->Start(1, 0, shard1_wal.get(), &error)) << error;
  const uint16_t shard1_port = shard1->server->port();

  RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", shard0.server->port()},
                          {"127.0.0.1", shard1_port}};
  router_config.wal = router_wal.get();
  auto router = std::make_unique<FannRouter>(plan, router_config);
  ASSERT_TRUE(router->Start(&error)) << error;

  FannClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router->port()))
      << client.last_error();

  auto send_wave = [&](uint64_t seed, uint64_t expected_epoch) {
    Rng rng(seed);
    const dynamic::UpdateBatch wave =
        dynamic::MakeCongestionWave(gen_graph, 0.05, 0.5, 3.0, rng);
    ASSERT_FALSE(wave.empty());
    UpdateWeightsRequest update;
    for (const EdgeWeightUpdate& u : wave.updates()) {
      update.entries.push_back({u.u, u.v, u.new_weight});
    }
    UpdateWeightsResponse response;
    ASSERT_TRUE(client.UpdateWeights(update, response))
        << client.last_error();
    ASSERT_EQ(response.status, 0);
    EXPECT_EQ(response.new_epoch, expected_epoch);
    wave.Apply(gen_graph);
    ASSERT_EQ(gen_graph.epoch(), expected_epoch);
  };

  // Wave 1 reaches both replicas (and shard 1's own WAL through the
  // server's REPL_APPLY durability path).
  send_wave(8801, 1);
  EXPECT_EQ(router->repl_epoch(), 1u);

  // Kill replica 1, then replicate wave 2 while it is down: the update
  // must still succeed through replica 0, with the record retained in
  // the router's WAL for the eventual catch-up.
  shard1->Stop();
  shard1.reset();
  shard1_wal.reset();
  send_wave(8802, 2);
  EXPECT_EQ(router->repl_epoch(), 2u);

  // Restart the replica the way a real process would: fresh epoch-0
  // graph, replay its own WAL (reaching epoch 1 — its position when it
  // died), listen on the same address.
  shard1 = std::make_unique<ShardNode>(kGraphSeed, kGraphVertices);
  shard1_wal = dynamic::UpdateWal::Open(shard1_wal_path, epoch0, &error);
  ASSERT_NE(shard1_wal, nullptr) << error;
  ASSERT_EQ(shard1_wal->records().size(), 1u);
  ASSERT_EQ(shard1_wal->ReplayInto(shard1->graph, &error), 1u) << error;
  ASSERT_EQ(shard1->graph.epoch(), 1u);
  ASSERT_TRUE(shard1->Start(1, shard1_port, shard1_wal.get(), &error))
      << error;

  // A spanning query now hits the stale replica; the router detects the
  // epoch disagreement, replays the missing tail (exactly wave 2 — one
  // record), retries, and answers correctly at the fleet epoch.
  WireQuery job;
  job.algorithm = static_cast<uint8_t>(FannAlgorithm::kNaive);
  job.aggregate = static_cast<uint8_t>(Aggregate::kSum);
  job.phi = 0.5;
  for (uint32_t v = 0, taken0 = 0, taken1 = 0;
       v < plan.num_vertices() && (taken0 < 8 || taken1 < 8); ++v) {
    uint32_t& taken = plan.OwnerOf(v) == 0 ? taken0 : taken1;
    if (taken < 8) {
      job.p.push_back(v);
      ++taken;
    }
  }
  Rng q_rng(6);
  const std::vector<VertexId> q = testing::SampleVertices(gen_graph, 6, q_rng);
  job.q = std::vector<uint32_t>(q.begin(), q.end());

  QueryResponse sharded;
  ASSERT_TRUE(client.Query(job, sharded)) << client.last_error();
  EXPECT_EQ(sharded.graph_epoch, 2u);
  EXPECT_EQ(sharded.result.status, static_cast<uint8_t>(QueryStatus::kOk));

  // Reference: the same job solved in-process on the twice-updated
  // graph must agree bitwise (minus the summed work counter).
  {
    GphiResources resources;
    resources.graph = &gen_graph;
    BatchQueryEngine reference(resources, BatchOptions{});
    IndexedVertexSet p_set(gen_graph.NumVertices(),
                           std::vector<VertexId>(job.p.begin(), job.p.end()));
    IndexedVertexSet q_set(gen_graph.NumVertices(),
                           std::vector<VertexId>(job.q.begin(), job.q.end()));
    FannrQuery reference_job;
    reference_job.query.graph = &gen_graph;
    reference_job.query.data_points = &p_set;
    reference_job.query.query_points = &q_set;
    reference_job.query.phi = job.phi;
    reference_job.query.aggregate = static_cast<Aggregate>(job.aggregate);
    reference_job.algorithm = static_cast<FannAlgorithm>(job.algorithm);
    const std::vector<FannResult> results = reference.Run({reference_job});
    ExpectAnswerEqual(sharded.result, ToWire(results[0]), "post-catch-up");
  }

  // The catch-up replayed exactly the one missing record, and the
  // replica's next answers come from the fleet epoch (checked above via
  // graph_epoch == 2 on a spanning query).
  std::string stats;
  ASSERT_TRUE(client.Stats(stats)) << client.last_error();
  EXPECT_NE(stats.find("\"router.catch_up.records\": 1"), std::string::npos)
      << stats;

  // Router restart: a new router adopting the same WAL starts at the
  // fleet epoch with nothing to replay and serves immediately.
  router->RequestShutdown();
  router->Wait();
  router.reset();
  client.Close();
  router_wal = dynamic::UpdateWal::Open(router_wal_path, epoch0, &error);
  ASSERT_NE(router_wal, nullptr) << error;
  EXPECT_EQ(router_wal->records().size(), 2u);
  EXPECT_EQ(router_wal->end_epoch(), 2u);
  router_config.wal = router_wal.get();
  auto router2 = std::make_unique<FannRouter>(plan, router_config);
  ASSERT_TRUE(router2->Start(&error)) << error;
  EXPECT_EQ(router2->repl_epoch(), 2u);

  FannClient client2;
  ASSERT_TRUE(client2.Connect("127.0.0.1", router2->port()))
      << client2.last_error();
  QueryResponse again;
  ASSERT_TRUE(client2.Query(job, again)) << client2.last_error();
  EXPECT_EQ(again.graph_epoch, 2u);
  ExpectAnswerEqual(again.result, sharded.result, "after router restart");

  router2->RequestShutdown();
  router2->Wait();
  shard0.Stop();
  shard1->Stop();
  std::remove(router_wal_path.c_str());
  std::remove(shard1_wal_path.c_str());
}

TEST(FannRouter, WireShutdownTerminatesWait) {
  // Regression: the SHUTDOWN frame is handled on a connection thread,
  // and that thread calls RequestShutdown — which needs conn_mu_. Wait
  // used to join connection threads while holding conn_mu_, so the
  // shutdown-delivering thread could never exit and Wait never
  // returned (the real binaries hung on exit; in-process tests always
  // shut down from the test thread and missed it). A hang here shows
  // up as the test timing out.
  ShardNode shard0(kGraphSeed, kGraphVertices);
  ShardNode shard1(kGraphSeed, kGraphVertices);
  const ShardPlan plan = ShardPlan::Build(shard0.graph, 2);

  std::string error;
  ASSERT_TRUE(shard0.Start(1, 0, nullptr, &error)) << error;
  ASSERT_TRUE(shard1.Start(1, 0, nullptr, &error)) << error;

  RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", shard0.server->port()},
                          {"127.0.0.1", shard1.server->port()}};
  FannRouter router(plan, router_config);
  ASSERT_TRUE(router.Start(&error)) << error;

  FannClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()))
      << client.last_error();
  // A real exchange first, so the connection owns live shard clients.
  const std::vector<WireQuery> jobs = BuildShardedJobs(shard0.graph);
  QueryResponse response;
  ASSERT_TRUE(client.Query(jobs[0], response)) << client.last_error();
  ASSERT_TRUE(client.Shutdown()) << client.last_error();

  router.Wait();
  shard0.Stop();
  shard1.Stop();
}


// --- pipelined bursts and shard failures -----------------------------------

/// Reads one whole frame off a raw socket (blocking).
bool ReadFrame(const Socket& sock, FrameHeader& header,
               std::vector<uint8_t>& payload) {
  uint8_t header_bytes[kFrameHeaderBytes];
  if (!sock.ReadFull(header_bytes, sizeof(header_bytes))) return false;
  DecodeFrameHeader(header_bytes, header);
  payload.resize(header.payload_length);
  return header.payload_length == 0 ||
         sock.ReadFull(payload.data(), payload.size());
}

void AppendFrame(std::vector<uint8_t>& out, Opcode opcode, uint64_t id,
                 std::span<const uint8_t> payload) {
  const std::vector<uint8_t> frame =
      EncodeFrame(static_cast<uint16_t>(opcode), id, payload);
  out.insert(out.end(), frame.begin(), frame.end());
}

/// Bitwise answer equality as ExpectAnswerEqual defines it.
bool SameAnswer(const WireResult& a, const WireResult& b) {
  return a.status == b.status && a.best == b.best &&
         DistanceBits(a.distance) == DistanceBits(b.distance) &&
         a.subset == b.subset && a.error == b.error;
}

uint64_t StatsCounter(FannClient& client, const std::string& name) {
  std::string json;
  EXPECT_TRUE(client.Stats(json)) << client.last_error();
  const std::string key = "\"" + name + "\": ";
  const size_t at = json.find(key);
  if (at == std::string::npos) {
    ADD_FAILURE() << name << " missing from " << json;
    return 0;
  }
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

/// A GD/sum job whose P takes eight vertices from each of two shards.
WireQuery SpanningJob(const ShardPlan& plan, const Graph& graph,
                      uint64_t seed) {
  WireQuery job;
  job.algorithm = static_cast<uint8_t>(FannAlgorithm::kGd);
  job.aggregate = static_cast<uint8_t>(Aggregate::kSum);
  job.phi = 0.5;
  for (uint32_t v = static_cast<uint32_t>(seed), taken0 = 0, taken1 = 0;
       v < plan.num_vertices() && (taken0 < 8 || taken1 < 8); ++v) {
    uint32_t& taken = plan.OwnerOf(v) == 0 ? taken0 : taken1;
    if (taken < 8) {
      job.p.push_back(v);
      ++taken;
    }
  }
  Rng rng(seed);
  const std::vector<VertexId> q = testing::SampleVertices(graph, 6, rng);
  job.q = std::vector<uint32_t>(q.begin(), q.end());
  return job;
}

TEST(FannRouter, PipelinedBurstsMatchSingleNodeAcrossAnUpdate) {
  // One connection writes 69 frames before reading any — QUERY and BATCH
  // frames (the screening shapes included), PINGs, and one UPDATE_WEIGHTS
  // in the middle — while a second connection pipelines queries beside
  // it. The router cuts them into bursts and sends one sub-batch per
  // shard per burst; every answer must still be bitwise the single
  // node's, at the epoch the per-connection order implies.
  ShardNode shard0(kGraphSeed, kGraphVertices);
  ShardNode shard1(kGraphSeed, kGraphVertices);
  ShardNode single(kGraphSeed, kGraphVertices);
  const ShardPlan plan = ShardPlan::Build(shard0.graph, 2);
  const std::vector<WireQuery> jobs = BuildShardedJobs(single.graph);

  std::string error;
  ASSERT_TRUE(shard0.Start(2, 0, nullptr, &error)) << error;
  ASSERT_TRUE(shard1.Start(2, 0, nullptr, &error)) << error;
  ASSERT_TRUE(single.Start(2, 0, nullptr, &error)) << error;
  RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", shard0.server->port()},
                          {"127.0.0.1", shard1.server->port()}};
  FannRouter router(plan, router_config);
  ASSERT_TRUE(router.Start(&error)) << error;

  // References from the single node at epochs 0 and 1. The expiring
  // batch's 1 ns batch-level deadline times every runnable job out in
  // the admission queue; the router must carry it into each job.
  BatchRequest all;
  all.jobs = jobs;
  BatchRequest expiring = all;
  expiring.deadline_ms = 1e-6;
  FannClient via_single;
  ASSERT_TRUE(via_single.Connect("127.0.0.1", single.server->port()))
      << via_single.last_error();
  std::vector<WireResult> ref[2];
  std::vector<WireResult> ref_expiring[2];
  Rng wave_rng(4711);
  const dynamic::UpdateBatch wave =
      dynamic::MakeCongestionWave(single.graph, 0.05, 0.5, 3.0, wave_rng);
  ASSERT_FALSE(wave.empty());
  UpdateWeightsRequest update;
  for (const EdgeWeightUpdate& u : wave.updates()) {
    update.entries.push_back({u.u, u.v, u.new_weight});
  }
  for (int epoch = 0; epoch < 2; ++epoch) {
    if (epoch == 1) {
      UpdateWeightsResponse applied;
      ASSERT_TRUE(via_single.UpdateWeights(update, applied))
          << via_single.last_error();
      ASSERT_EQ(applied.new_epoch, 1u);
    }
    BatchResponse response;
    ASSERT_TRUE(via_single.Batch(all, response)) << via_single.last_error();
    ref[epoch] = response.results;
    BatchResponse expired;
    ASSERT_TRUE(via_single.Batch(expiring, expired))
        << via_single.last_error();
    ref_expiring[epoch] = expired.results;
    ASSERT_EQ(ref_expiring[epoch][0].status,
              static_cast<uint8_t>(QueryStatus::kTimedOut));
  }

  enum class Kind { kQuery, kBatch, kExpiring, kPing, kUpdate };
  struct Sent {
    Kind kind;
    size_t job;
    uint64_t epoch;
  };
  std::vector<uint8_t> bytes;
  std::map<uint64_t, Sent> sent;
  size_t query_frames = 0;
  uint64_t next_id = 100;
  for (uint64_t half = 0; half < 2; ++half) {
    for (int round = 0; round < 3; ++round) {
      for (size_t j = 0; j < jobs.size(); ++j) {
        QueryRequest request;
        request.query = jobs[j];
        sent[next_id] = {Kind::kQuery, j, half};
        AppendFrame(bytes, Opcode::kQuery, next_id++,
                    EncodeQueryRequest(request));
        ++query_frames;
      }
      sent[next_id] = {Kind::kBatch, 0, half};
      AppendFrame(bytes, Opcode::kBatch, next_id++, EncodeBatchRequest(all));
      sent[next_id] = {Kind::kPing, 0, half};
      AppendFrame(bytes, Opcode::kPing, next_id++, {});
    }
    sent[next_id] = {Kind::kExpiring, 0, half};
    AppendFrame(bytes, Opcode::kBatch, next_id++,
                EncodeBatchRequest(expiring));
    if (half == 0) {
      sent[next_id] = {Kind::kUpdate, 0, 1};
      AppendFrame(bytes, Opcode::kUpdateWeights, next_id++,
                  EncodeUpdateWeightsRequest(update));
    }
  }
  ASSERT_GE(sent.size(), 64u);

  // The second connection: pipelined queries racing the update. Its
  // answers come from either epoch, or carry the stale-admission
  // rejection a single server gives work admitted across an update.
  constexpr int kSideRounds = 3;
  std::map<uint64_t, size_t> side_sent;
  std::map<uint64_t, QueryResponse> side_answers;
  std::string side_error;
  std::thread side([&] {
    FannClient client;
    if (!client.Connect("127.0.0.1", router.port())) {
      side_error = client.last_error();
      return;
    }
    for (int round = 0; round < kSideRounds; ++round) {
      for (size_t j = 0; j < jobs.size(); ++j) {
        uint64_t id = 0;
        if (!client.SendQuery(jobs[j], &id)) {
          side_error = client.last_error();
          return;
        }
        side_sent[id] = j;
      }
    }
    for (size_t i = 0; i < side_sent.size(); ++i) {
      FrameHeader header;
      std::vector<uint8_t> payload;
      QueryResponse response;
      if (!client.ReadAny(header, payload) ||
          header.opcode != static_cast<uint16_t>(Opcode::kQueryResult) ||
          !DecodeQueryResponse(payload, response)) {
        side_error = "bad side response: " + client.last_error();
        return;
      }
      side_answers[header.request_id] = response;
    }
  });

  std::string connect_error;
  Socket sock = TcpConnect("127.0.0.1", router.port(), &connect_error);
  ASSERT_TRUE(sock.valid()) << connect_error;
  ASSERT_TRUE(sock.WriteFull(bytes.data(), bytes.size()));
  std::map<uint64_t, bool> answered;
  for (size_t i = 0; i < sent.size(); ++i) {
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(sock, header, payload)) << "response " << i;
    auto it = sent.find(header.request_id);
    ASSERT_NE(it, sent.end()) << "unknown id " << header.request_id;
    ASSERT_TRUE(answered.emplace(header.request_id, true).second)
        << "id " << header.request_id << " answered twice";
    const Sent& s = it->second;
    const std::string label = "id " + std::to_string(header.request_id);
    switch (s.kind) {
      case Kind::kPing:
        EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kPong));
        break;
      case Kind::kUpdate: {
        ASSERT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kUpdateResult));
        UpdateWeightsResponse response;
        ASSERT_TRUE(DecodeUpdateWeightsResponse(payload, response));
        EXPECT_EQ(response.status, 0);
        EXPECT_EQ(response.new_epoch, 1u);
        break;
      }
      case Kind::kQuery: {
        ASSERT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kQueryResult))
            << label;
        QueryResponse response;
        ASSERT_TRUE(DecodeQueryResponse(payload, response));
        EXPECT_EQ(response.graph_epoch, s.epoch) << label;
        ExpectAnswerEqual(response.result, ref[s.epoch][s.job], label);
        break;
      }
      case Kind::kBatch:
      case Kind::kExpiring: {
        ASSERT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kBatchResult))
            << label;
        BatchResponse response;
        ASSERT_TRUE(DecodeBatchResponse(payload, response));
        EXPECT_EQ(response.graph_epoch, s.epoch) << label;
        const std::vector<WireResult>& expected =
            s.kind == Kind::kBatch ? ref[s.epoch] : ref_expiring[s.epoch];
        ASSERT_EQ(response.results.size(), expected.size()) << label;
        for (size_t j = 0; j < expected.size(); ++j) {
          ExpectAnswerEqual(response.results[j], expected[j],
                            label + " job " + std::to_string(j));
        }
        break;
      }
    }
  }
  side.join();
  ASSERT_TRUE(side_error.empty()) << side_error;
  ASSERT_EQ(side_answers.size(), side_sent.size());
  for (const auto& [id, job] : side_sent) {
    const QueryResponse& response = side_answers[id];
    ASSERT_LE(response.graph_epoch, 1u);
    const bool stale =
        response.result.status ==
            static_cast<uint8_t>(QueryStatus::kRejected) &&
        response.result.error == MidBatchEpochError(0, 1);
    EXPECT_TRUE(stale ||
                SameAnswer(response.result, ref[response.graph_epoch][job]))
        << "side id " << id << " job " << job;
  }

  // Coalescing: fewer sub-batches than one per shard per QUERY frame.
  FannClient stats_client;
  ASSERT_TRUE(stats_client.Connect("127.0.0.1", router.port()))
      << stats_client.last_error();
  const uint64_t sub_batches =
      StatsCounter(stats_client, "router.fanout.sub_batches");
  const size_t all_queries = query_frames + side_sent.size();
  EXPECT_GT(sub_batches, 0u);
  EXPECT_LT(sub_batches, 2 * all_queries);
  EXPECT_GT(StatsCounter(stats_client, "router.fanout.jobs"), sub_batches);

  router.RequestShutdown();
  router.Wait();
  shard0.Stop();
  shard1.Stop();
  single.Stop();
}

/// A shard stand-in: answers the router's position probes, receives
/// BATCH frames without ever answering them, and can crash — every
/// socket it holds closes at once.
class StallingShard {
 public:
  ~StallingShard() { Crash(); }

  bool Start(std::string* error) {
    listener_ = TcpListen("127.0.0.1", 0, &port_, error);
    if (!listener_.valid()) return false;
    accept_thread_ = std::thread([this] {
      while (true) {
        const int fd = ::accept(listener_.fd(), nullptr, nullptr);
        if (fd < 0) return;  // the listener was shut down
        std::lock_guard<std::mutex> lock(mu_);
        conns_.push_back(std::make_unique<Socket>(fd));
        Socket* sock = conns_.back().get();
        serve_threads_.emplace_back([this, sock] { Serve(*sock); });
      }
    });
    return true;
  }

  uint16_t port() const { return port_; }
  size_t batches() const { return batches_.load(); }

  void Crash() {
    if (!accept_thread_.joinable()) return;
    listener_.ShutdownBoth();
    accept_thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Socket>& sock : conns_) sock->ShutdownBoth();
    for (std::thread& t : serve_threads_) t.join();
    conns_.clear();
    listener_.Close();
  }

 private:
  void Serve(const Socket& sock) {
    FrameHeader header;
    std::vector<uint8_t> payload;
    while (ReadFrame(sock, header, payload)) {
      if (header.opcode == static_cast<uint16_t>(Opcode::kBatch)) {
        batches_.fetch_add(1);
      } else if (header.opcode == static_cast<uint16_t>(Opcode::kReplApply)) {
        UpdateWeightsResponse at_position;  // status 0 at epoch 0
        const std::vector<uint8_t> frame = EncodeFrame(
            static_cast<uint16_t>(Opcode::kReplApplyResult), header.request_id,
            EncodeUpdateWeightsResponse(at_position));
        if (!sock.WriteFull(frame.data(), frame.size())) return;
      }
    }
  }

  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<size_t> batches_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<Socket>> conns_;
  std::vector<std::thread> serve_threads_;
  std::thread accept_thread_;
};

/// Blocks the executor of the shard it gates while held.
struct ExecutorGate {
  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return !held; });
  }
  void Set(bool hold) {
    std::lock_guard<std::mutex> lock(mu);
    held = hold;
    cv.notify_all();
  }
  size_t Entered() {
    std::lock_guard<std::mutex> lock(mu);
    return entered;
  }
  bool AwaitEntered(size_t count) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return entered >= count; });
  }
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  size_t entered = 0;
};

TEST(FannRouter, ShardFailureMidBurstFailsEveryPendingRequestOnce) {
  ShardNode shard0(kGraphSeed, kGraphVertices);
  ShardNode single(kGraphSeed, kGraphVertices);
  const ShardPlan plan = ShardPlan::Build(shard0.graph, 2);
  std::string error;
  ASSERT_TRUE(shard0.Start(1, 0, nullptr, &error)) << error;
  ASSERT_TRUE(single.Start(1, 0, nullptr, &error)) << error;
  StallingShard stalled;
  ASSERT_TRUE(stalled.Start(&error)) << error;

  RouterConfig router_config;
  router_config.shards = {{"127.0.0.1", shard0.server->port()},
                          {"127.0.0.1", stalled.port()}};
  FannRouter router(plan, router_config);
  ASSERT_TRUE(router.Start(&error)) << error;

  // A pipelined window of spanning requests; shard 1 sits on them.
  std::string connect_error;
  Socket sock = TcpConnect("127.0.0.1", router.port(), &connect_error);
  ASSERT_TRUE(sock.valid()) << connect_error;
  std::vector<uint8_t> bytes;
  BatchRequest batch;
  for (uint64_t id = 1; id <= 12; ++id) {
    QueryRequest request;
    request.query = SpanningJob(plan, shard0.graph, id);
    batch.jobs.push_back(request.query);
    AppendFrame(bytes, Opcode::kQuery, id, EncodeQueryRequest(request));
  }
  AppendFrame(bytes, Opcode::kBatch, 13, EncodeBatchRequest(batch));
  ASSERT_TRUE(sock.WriteFull(bytes.data(), bytes.size()));
  for (int i = 0; i < 1000 && stalled.batches() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(stalled.batches(), 0u);

  // The shard dies with the burst outstanding: each request gets
  // exactly one INTERNAL "shard 1 unreachable" frame, none hangs.
  stalled.Crash();
  std::map<uint64_t, int> errors;
  for (int i = 0; i < 13; ++i) {
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(sock, header, payload)) << "response " << i;
    ASSERT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kError));
    ErrorResponse err;
    ASSERT_TRUE(DecodeErrorResponse(payload, err));
    EXPECT_EQ(err.code, ErrorCode::kInternal);
    EXPECT_EQ(err.message.rfind("shard 1 unreachable: ", 0), 0u)
        << err.message;
    ++errors[header.request_id];
  }
  EXPECT_EQ(errors.size(), 13u);
  // Nothing else is owed: a PING is answered next.
  std::vector<uint8_t> ping;
  AppendFrame(ping, Opcode::kPing, 99, {});
  ASSERT_TRUE(sock.WriteFull(ping.data(), ping.size()));
  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFrame(sock, header, payload));
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kPong));
  EXPECT_EQ(header.request_id, 99u);

  // The shard comes back on its address: the router dials it again.
  ExecutorGate gate;
  ShardNode restarted(kGraphSeed, kGraphVertices);
  restarted.gate = [&gate] { gate.Enter(); };
  ASSERT_TRUE(restarted.Start(1, stalled.port(), nullptr, &error)) << error;
  const WireQuery job = SpanningJob(plan, shard0.graph, 3);
  FannClient client;
  FannClient via_single;
  ASSERT_TRUE(client.Connect("127.0.0.1", router.port()))
      << client.last_error();
  ASSERT_TRUE(via_single.Connect("127.0.0.1", single.server->port()))
      << via_single.last_error();
  QueryResponse reference;
  ASSERT_TRUE(via_single.Query(job, reference)) << via_single.last_error();
  QueryResponse routed;
  ASSERT_TRUE(client.Query(job, routed)) << client.last_error();
  ExpectAnswerEqual(routed.result, reference.result, "after restart");

  // A client that leaves with fan-outs outstanding: the late shard
  // replies are merged and dropped, and the router serves on.
  gate.Set(true);
  const size_t entered_before = gate.Entered();
  {
    FannClient leaving;
    ASSERT_TRUE(leaving.Connect("127.0.0.1", router.port()))
        << leaving.last_error();
    for (int i = 0; i < 4; ++i) {
      uint64_t id = 0;
      ASSERT_TRUE(leaving.SendQuery(job, &id)) << leaving.last_error();
    }
    ASSERT_TRUE(gate.AwaitEntered(entered_before + 1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Set(false);
  ASSERT_TRUE(client.Query(job, routed)) << client.last_error();
  ExpectAnswerEqual(routed.result, reference.result, "after a client left");

  router.RequestShutdown();
  router.Wait();
  shard0.Stop();
  restarted.Stop();
  single.Stop();
}

}  // namespace
}  // namespace fannr::net
