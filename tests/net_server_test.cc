// FannServer lifecycle over real loopback sockets: start, ping, query,
// malformed-frame handling, bounded-admission overload, end-to-end
// deadlines, stale-admission rejection, STATS, and graceful drain. The
// executor gate (ServerConfig::test_execution_gate) makes the
// queue-dependent scenarios deterministic: tests hold the executor,
// arrange the queue, then release.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/wal.h"
#include "net/client.h"
#include "net/server.h"
#include "test_util.h"

// The fd-exhaustion test starves the whole process's fd table, which
// the sanitizer runtimes do not tolerate.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FANNR_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FANNR_UNDER_SANITIZER 1
#endif

namespace fannr::net {
namespace {

/// A held/released gate the executor passes through before each item.
/// The executor dequeues one item and then parks here, so "the gate has
/// been entered N times" is the deterministic signal that N items have
/// left the queue; AwaitEntered lets tests rendezvous on it.
class ExecutorGate {
 public:
  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }
  void AwaitEntered(size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= count; });
  }
  std::function<void()> AsHook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !held_; });
    };
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  size_t entered_ = 0;
};

/// Polls the server's queue-depth gauge until it reaches `depth`.
void AwaitQueueDepth(const FannServer& server, double depth) {
  for (int spin = 0; spin < 1000; ++spin) {
    if (server.metrics().Snapshot().gauge("server.queue_depth") >= depth) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "queue depth never reached " << depth;
}

uint64_t DistanceBits(double distance) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(distance));
  std::memcpy(&bits, &distance, sizeof(bits));
  return bits;
}

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerConfig config = {}) {
    graph_ = std::make_unique<Graph>(testing::MakeRandomNetwork(200, 91));
    GphiResources resources;
    resources.graph = graph_.get();
    server_ = std::make_unique<FannServer>(graph_.get(), resources,
                                           std::move(config));
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  WireQuery MakeQuery(uint64_t seed = 11) const {
    Rng rng(seed);
    const std::vector<VertexId> p =
        testing::SampleVertices(*graph_, 12, rng);
    const std::vector<VertexId> q = testing::SampleVertices(*graph_, 6, rng);
    WireQuery query;
    query.algorithm = static_cast<uint8_t>(FannAlgorithm::kGd);
    query.aggregate = static_cast<uint8_t>(Aggregate::kSum);
    query.phi = 0.5;
    query.p = std::vector<uint32_t>(p.begin(), p.end());
    query.q = std::vector<uint32_t>(q.begin(), q.end());
    return query;
  }

  FannClient Connect() {
    FannClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()))
        << client.last_error();
    return client;
  }

  void ShutdownAndWait() {
    server_->RequestShutdown();
    server_->Wait();
  }

  std::unique_ptr<Graph> graph_;
  std::unique_ptr<FannServer> server_;
};

TEST_F(NetServerTest, PingQueryStatsLifecycle) {
  StartServer();
  FannClient client = Connect();
  EXPECT_TRUE(client.Ping()) << client.last_error();

  QueryResponse response;
  ASSERT_TRUE(client.Query(MakeQuery(), response)) << client.last_error();
  EXPECT_EQ(response.result.status, static_cast<uint8_t>(QueryStatus::kOk));
  EXPECT_NE(response.result.best, 0xFFFFFFFFu);
  EXPECT_EQ(response.graph_epoch, 0u);

  std::string stats;
  ASSERT_TRUE(client.Stats(stats)) << client.last_error();
  EXPECT_NE(stats.find("\"server.requests.query\": 1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"bounded_rows\": "), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"pruned_rows\": "), std::string::npos) << stats;
  ShutdownAndWait();
}

TEST_F(NetServerTest, BatchAnswersEveryJobInOrder) {
  StartServer();
  FannClient client = Connect();
  BatchRequest request;
  request.jobs = {MakeQuery(1), MakeQuery(2), MakeQuery(3)};
  request.jobs[1].p = {0, 0};  // duplicate ids: must reject, not abort
  BatchResponse response;
  ASSERT_TRUE(client.Batch(request, response)) << client.last_error();
  ASSERT_EQ(response.results.size(), 3u);
  EXPECT_EQ(response.results[0].status,
            static_cast<uint8_t>(QueryStatus::kOk));
  EXPECT_EQ(response.results[1].status,
            static_cast<uint8_t>(QueryStatus::kRejected));
  EXPECT_NE(response.results[1].error.find("duplicate"), std::string::npos);
  EXPECT_EQ(response.results[2].status,
            static_cast<uint8_t>(QueryStatus::kOk));
  ShutdownAndWait();
}

TEST_F(NetServerTest, OutOfRangeAndUnknownEnumeratorsRejected) {
  StartServer();
  FannClient client = Connect();

  WireQuery bad_ids = MakeQuery();
  bad_ids.q.push_back(static_cast<uint32_t>(graph_->NumVertices()));
  QueryResponse response;
  ASSERT_TRUE(client.Query(bad_ids, response)) << client.last_error();
  EXPECT_EQ(response.result.status,
            static_cast<uint8_t>(QueryStatus::kRejected));
  EXPECT_NE(response.result.error.find("out of range"), std::string::npos);

  WireQuery bad_algorithm = MakeQuery();
  bad_algorithm.algorithm = 200;
  ASSERT_TRUE(client.Query(bad_algorithm, response)) << client.last_error();
  EXPECT_EQ(response.result.status,
            static_cast<uint8_t>(QueryStatus::kRejected));
  EXPECT_NE(response.result.error.find("algorithm"), std::string::npos);
  ShutdownAndWait();
}

// --- one screening for every wire path -------------------------------------

/// Answers `job` as a QUERY, as the only job of a BATCH and as a
/// SUBSCRIBE, each from its own connection and thread, and returns the
/// three results in that order. `while_sent` runs on the calling thread
/// while the three are in flight (a test holding the executor releases
/// it there).
std::vector<WireResult> AnswerOnEveryWirePath(
    const WireQuery& job, uint16_t port,
    const std::function<void()>& while_sent) {
  std::vector<WireResult> results(3);
  auto connect = [port] {
    FannClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", port)) << client.last_error();
    return client;
  };
  std::vector<std::thread> senders;
  senders.emplace_back([&] {
    FannClient client = connect();
    QueryResponse response;
    ASSERT_TRUE(client.Query(job, response)) << client.last_error();
    results[0] = response.result;
  });
  senders.emplace_back([&] {
    FannClient client = connect();
    BatchRequest request;
    request.jobs = {job};
    BatchResponse response;
    ASSERT_TRUE(client.Batch(request, response)) << client.last_error();
    ASSERT_EQ(response.results.size(), 1u);
    results[1] = response.results[0];
  });
  senders.emplace_back([&] {
    FannClient client = connect();
    uint64_t id = 0;
    SubscribeResponse response;
    ASSERT_TRUE(client.Subscribe(job, /*force_push=*/false, &id, response))
        << client.last_error();
    results[2] = response.result;
  });
  if (while_sent) while_sent();
  for (std::thread& sender : senders) sender.join();
  return results;
}

void ExpectScreenedAlike(const std::vector<WireResult>& results,
                         QueryStatus status, const std::string& needle) {
  const char* const paths[] = {"QUERY", "BATCH", "SUBSCRIBE"};
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, static_cast<uint8_t>(status)) << paths[i];
    EXPECT_EQ(results[i].error, results[0].error) << paths[i];
  }
  EXPECT_NE(results[0].error.find(needle), std::string::npos)
      << results[0].error;
}

TEST_F(NetServerTest, EveryWirePathScreensAlike) {
  StartServer();
  const uint16_t port = server_->port();

  WireQuery bad_algorithm = MakeQuery();
  bad_algorithm.algorithm = 200;
  ExpectScreenedAlike(AnswerOnEveryWirePath(bad_algorithm, port, {}),
                      QueryStatus::kRejected, "unknown algorithm enumerator");

  WireQuery bad_aggregate = MakeQuery();
  bad_aggregate.aggregate = 9;
  ExpectScreenedAlike(AnswerOnEveryWirePath(bad_aggregate, port, {}),
                      QueryStatus::kRejected, "unknown aggregate enumerator");

  WireQuery bad_p = MakeQuery();
  bad_p.p.push_back(static_cast<uint32_t>(graph_->NumVertices()));
  ExpectScreenedAlike(AnswerOnEveryWirePath(bad_p, port, {}),
                      QueryStatus::kRejected, "data point set P");

  WireQuery duplicate_q = MakeQuery();
  duplicate_q.q.push_back(duplicate_q.q.front());
  ExpectScreenedAlike(AnswerOnEveryWirePath(duplicate_q, port, {}),
                      QueryStatus::kRejected, "duplicate");
  ShutdownAndWait();

  // A server default deadline spent while the executor is held: the
  // first request waits at the gate, the other two in the queue.
  ExecutorGate gate;
  gate.Hold();
  ServerConfig config;
  config.default_deadline_ms = 25.0;
  config.test_execution_gate = gate.AsHook();
  StartServer(std::move(config));
  ExpectScreenedAlike(
      AnswerOnEveryWirePath(MakeQuery(), server_->port(),
                            [&] {
                              gate.AwaitEntered(1);
                              AwaitQueueDepth(*server_, 2.0);
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(60));
                              gate.Release();
                            }),
      QueryStatus::kTimedOut, "exceeded in the admission queue");
  EXPECT_EQ(server_->metrics().Snapshot().gauge("server.subscriptions.active"),
            0.0);
  ShutdownAndWait();
}

// --- malformed frames over a raw socket -----------------------------------

TEST_F(NetServerTest, BadMagicClosesConnectionServerSurvives) {
  StartServer();
  std::string error;
  Socket raw = TcpConnect("127.0.0.1", server_->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  std::vector<uint8_t> frame =
      EncodeFrame(static_cast<uint16_t>(Opcode::kPing), 1, {});
  frame[0] ^= 0xFF;  // corrupt the magic
  ASSERT_TRUE(raw.WriteFull(frame.data(), frame.size()));
  uint8_t byte;
  bool eof = false;
  EXPECT_FALSE(raw.ReadFull(&byte, 1, &eof));  // closed, no reply

  // The server is still healthy for well-formed clients.
  FannClient client = Connect();
  EXPECT_TRUE(client.Ping()) << client.last_error();
  EXPECT_EQ(server_->metrics().Snapshot().counter("server.bad_frames"), 1u);
  ShutdownAndWait();
}

TEST_F(NetServerTest, WrongVersionAnsweredInBand) {
  StartServer();
  std::string error;
  Socket raw = TcpConnect("127.0.0.1", server_->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  std::vector<uint8_t> frame =
      EncodeFrame(static_cast<uint16_t>(Opcode::kPing), 9, {});
  frame[4] ^= 0x02;  // corrupt the version field
  ASSERT_TRUE(raw.WriteFull(frame.data(), frame.size()));

  uint8_t header_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(raw.ReadFull(header_bytes, sizeof(header_bytes)));
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(header_bytes, header));
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kError));
  EXPECT_EQ(header.request_id, 9u);
  std::vector<uint8_t> payload(header.payload_length);
  ASSERT_TRUE(raw.ReadFull(payload.data(), payload.size()));
  ErrorResponse response;
  ASSERT_TRUE(DecodeErrorResponse(payload, response));
  EXPECT_EQ(response.code, ErrorCode::kUnsupportedVersion);

  // Same connection keeps working at the right version.
  frame = EncodeFrame(static_cast<uint16_t>(Opcode::kPing), 10, {});
  ASSERT_TRUE(raw.WriteFull(frame.data(), frame.size()));
  ASSERT_TRUE(raw.ReadFull(header_bytes, sizeof(header_bytes)));
  ASSERT_TRUE(DecodeFrameHeader(header_bytes, header));
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kPong));
  ShutdownAndWait();
}

TEST_F(NetServerTest, MalformedPayloadAnsweredInBand) {
  StartServer();
  std::string error;
  Socket raw = TcpConnect("127.0.0.1", server_->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  const std::vector<uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF};
  const std::vector<uint8_t> frame =
      EncodeFrame(static_cast<uint16_t>(Opcode::kQuery), 4, junk);
  ASSERT_TRUE(raw.WriteFull(frame.data(), frame.size()));

  uint8_t header_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(raw.ReadFull(header_bytes, sizeof(header_bytes)));
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(header_bytes, header));
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kError));
  std::vector<uint8_t> payload(header.payload_length);
  ASSERT_TRUE(raw.ReadFull(payload.data(), payload.size()));
  ErrorResponse response;
  ASSERT_TRUE(DecodeErrorResponse(payload, response));
  EXPECT_EQ(response.code, ErrorCode::kMalformedPayload);
  ShutdownAndWait();
}

TEST_F(NetServerTest, UnknownOpcodeAnsweredInBand) {
  StartServer();
  std::string error;
  Socket raw = TcpConnect("127.0.0.1", server_->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  const std::vector<uint8_t> frame = EncodeFrame(0x42, 5, {});
  ASSERT_TRUE(raw.WriteFull(frame.data(), frame.size()));
  uint8_t header_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(raw.ReadFull(header_bytes, sizeof(header_bytes)));
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(header_bytes, header));
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kError));
  std::vector<uint8_t> payload(header.payload_length);
  ASSERT_TRUE(raw.ReadFull(payload.data(), payload.size()));
  ErrorResponse response;
  ASSERT_TRUE(DecodeErrorResponse(payload, response));
  EXPECT_EQ(response.code, ErrorCode::kUnknownOpcode);
  ShutdownAndWait();
}

// --- bounded admission ----------------------------------------------------

TEST_F(NetServerTest, FullQueueShedsWithOverloaded) {
  ExecutorGate gate;
  gate.Hold();
  ServerConfig config;
  config.max_queue_depth = 2;
  config.test_execution_gate = gate.AsHook();
  StartServer(std::move(config));

  // Three clients admitted one at a time: the executor dequeues the
  // first and parks at the gate, the other two fill the depth-2 queue.
  // (Sent concurrently, a filler could itself be shed before the
  // executor dequeues — each send waits for its predecessor to land.)
  std::vector<std::thread> fillers;
  std::atomic<size_t> answered{0};
  auto send_filler = [&](size_t i) {
    fillers.emplace_back([&, i] {
      FannClient filler = Connect();
      QueryResponse response;
      if (filler.Query(MakeQuery(100 + i), response)) {
        answered.fetch_add(1);
      }
    });
  };
  send_filler(0);
  gate.AwaitEntered(1);  // filler 0 is held by the executor
  send_filler(1);
  AwaitQueueDepth(*server_, 1.0);
  send_filler(2);
  AwaitQueueDepth(*server_, 2.0);

  FannClient shed = Connect();
  QueryResponse response;
  EXPECT_FALSE(shed.Query(MakeQuery(999), response));
  EXPECT_EQ(shed.last_error_code(), ErrorCode::kOverloaded)
      << shed.last_error();
  EXPECT_GE(server_->metrics().Snapshot().counter("server.overloaded"), 1u);

  gate.Release();
  for (std::thread& t : fillers) t.join();
  EXPECT_EQ(answered.load(), 3u) << "queued work must still be answered";
  ShutdownAndWait();
}

// --- deadlines ------------------------------------------------------------

TEST_F(NetServerTest, QueueWaitCountsAgainstDeadline) {
  ExecutorGate gate;
  gate.Hold();
  ServerConfig config;
  config.test_execution_gate = gate.AsHook();
  StartServer(std::move(config));

  WireQuery query = MakeQuery();
  query.deadline_ms = 30.0;  // will expire while the gate is held

  std::thread sender([&] {
    FannClient client = Connect();
    QueryResponse response;
    ASSERT_TRUE(client.Query(query, response)) << client.last_error();
    EXPECT_EQ(response.result.status,
              static_cast<uint8_t>(QueryStatus::kTimedOut));
    EXPECT_NE(response.result.error.find("admission queue"),
              std::string::npos)
        << response.result.error;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  gate.Release();
  sender.join();
  EXPECT_GE(server_->metrics().Snapshot().counter("server.requests.query"),
            1u);
  ShutdownAndWait();
}

TEST_F(NetServerTest, ServerDefaultDeadlineApplies) {
  ExecutorGate gate;
  gate.Hold();
  ServerConfig config;
  config.default_deadline_ms = 25.0;
  config.test_execution_gate = gate.AsHook();
  StartServer(std::move(config));

  std::thread sender([&] {
    FannClient client = Connect();
    QueryResponse response;
    ASSERT_TRUE(client.Query(MakeQuery(), response)) << client.last_error();
    EXPECT_EQ(response.result.status,
              static_cast<uint8_t>(QueryStatus::kTimedOut));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  gate.Release();
  sender.join();
  ShutdownAndWait();
}

// --- stale admission ------------------------------------------------------

TEST_F(NetServerTest, EpochAdvanceBetweenAdmissionAndExecutionRejects) {
  ExecutorGate gate;
  gate.Hold();
  ServerConfig config;
  config.test_execution_gate = gate.AsHook();
  StartServer(std::move(config));

  // The update is dequeued first and parks at the gate; the query is
  // then admitted at epoch 0 behind it. FIFO guarantees the update
  // applies before the query executes, so the query must be rejected at
  // epoch 1 with the engine's canonical mid-batch reason.
  std::thread updater([&] {
    FannClient client = Connect();
    UpdateWeightsRequest request;
    const auto [u, w] = *graph_->Neighbors(0).begin();
    request.entries.push_back({0, u, w * 2.0});
    UpdateWeightsResponse response;
    ASSERT_TRUE(client.UpdateWeights(request, response))
        << client.last_error();
    EXPECT_EQ(response.status, 0);
    EXPECT_EQ(response.new_epoch, 1u);
  });
  gate.AwaitEntered(1);  // the update is held by the executor

  std::thread querier([&] {
    FannClient client = Connect();
    QueryResponse response;
    ASSERT_TRUE(client.Query(MakeQuery(), response)) << client.last_error();
    EXPECT_EQ(response.result.status,
              static_cast<uint8_t>(QueryStatus::kRejected));
    EXPECT_NE(response.result.error.find("epoch advanced mid-batch"),
              std::string::npos)
        << response.result.error;
    EXPECT_EQ(response.graph_epoch, 1u);

    // The documented contract: re-submitting succeeds under the new epoch.
    QueryResponse retry;
    ASSERT_TRUE(client.Query(MakeQuery(), retry)) << client.last_error();
    EXPECT_EQ(retry.result.status, static_cast<uint8_t>(QueryStatus::kOk));
    EXPECT_EQ(retry.graph_epoch, 1u);
  });
  AwaitQueueDepth(*server_, 1.0);  // the query is queued behind the update
  gate.Release();
  updater.join();
  querier.join();
  EXPECT_EQ(
      server_->metrics().Snapshot().counter("server.rejected_stale_admission"),
      1u);
  ShutdownAndWait();
}

// --- positioned replication -----------------------------------------------

TEST_F(NetServerTest, ReplApplyPositionsProbesAndPushes) {
  const std::string wal_path = ::testing::TempDir() + "fannr_server_repl.wal";
  std::remove(wal_path.c_str());
  std::string error;
  std::unique_ptr<dynamic::UpdateWal> wal = dynamic::UpdateWal::Open(
      wal_path, testing::MakeRandomNetwork(200, 91).Fingerprint(), &error);
  ASSERT_NE(wal, nullptr) << error;
  ServerConfig config;
  config.wal = wal.get();
  StartServer(std::move(config));
  const auto [u, w] = *graph_->Neighbors(0).begin();
  const std::vector<UpdateWeightsRequest::Entry> entries = {{0, u, w * 2.0}};

  FannClient subscriber = Connect();
  uint64_t sub_id = 0;
  SubscribeResponse initial;
  ASSERT_TRUE(subscriber.Subscribe(MakeQuery(901), /*force_push=*/true,
                                   &sub_id, initial))
      << subscriber.last_error();
  ASSERT_EQ(initial.result.status, static_cast<uint8_t>(QueryStatus::kOk));

  FannClient replicator = Connect();
  // Wrong position: refused with the server's epoch, nothing applied.
  ReplApplyRequest misplaced;
  misplaced.position = 5;
  misplaced.entries = entries;
  UpdateWeightsResponse response;
  ASSERT_TRUE(replicator.ReplApply(misplaced, response))
      << replicator.last_error();
  EXPECT_EQ(response.status, 2);
  EXPECT_EQ(response.new_epoch, 0u);
  EXPECT_NE(response.error.find("replication position 5"), std::string::npos)
      << response.error;

  // Empty at the right position: a probe, no epoch bump.
  ReplApplyRequest probe;
  probe.position = 0;
  ASSERT_TRUE(replicator.ReplApply(probe, response))
      << replicator.last_error();
  EXPECT_EQ(response.status, 0);
  EXPECT_EQ(response.old_epoch, 0u);
  EXPECT_EQ(response.new_epoch, 0u);

  // An invalid entry: the same rejection UPDATE_WEIGHTS gives.
  ReplApplyRequest invalid;
  invalid.position = 0;
  invalid.entries = {{0, u, -1.0}};
  ASSERT_TRUE(replicator.ReplApply(invalid, response))
      << replicator.last_error();
  UpdateWeightsRequest invalid_update;
  invalid_update.entries = invalid.entries;
  UpdateWeightsResponse update_response;
  ASSERT_TRUE(replicator.UpdateWeights(invalid_update, update_response))
      << replicator.last_error();
  EXPECT_EQ(response.status, 1);
  EXPECT_EQ(update_response.status, 1);
  EXPECT_EQ(response.error, update_response.error);
  EXPECT_FALSE(response.error.empty());

  // None of the three moved the epoch, so none pushed.
  QueryResponse query;
  ASSERT_TRUE(replicator.Query(MakeQuery(), query)) << replicator.last_error();
  EXPECT_EQ(query.graph_epoch, 0u);
  ASSERT_TRUE(subscriber.Ping()) << subscriber.last_error();
  ReceivedPush push;
  EXPECT_FALSE(subscriber.TakePush(push));
  EXPECT_EQ(server_->metrics().Snapshot().counter("server.pushes.sent"), 0u);

  // A valid batch at the right position applies, logs and pushes.
  ReplApplyRequest apply;
  apply.position = 0;
  apply.entries = entries;
  ASSERT_TRUE(replicator.ReplApply(apply, response))
      << replicator.last_error();
  EXPECT_EQ(response.status, 0);
  EXPECT_EQ(response.applied, 1u);
  EXPECT_EQ(response.old_epoch, 0u);
  EXPECT_EQ(response.new_epoch, 1u);
  ReceivedPush replicated;
  ASSERT_TRUE(subscriber.WaitPush(replicated)) << subscriber.last_error();
  EXPECT_EQ(replicated.subscription_id, sub_id);
  EXPECT_EQ(replicated.answer.graph_epoch, 1u);
  ShutdownAndWait();
  ASSERT_EQ(wal->records().size(), 1u);
  EXPECT_EQ(wal->records()[0].position, 0u);
  EXPECT_EQ(wal->records()[0].new_epoch, 1u);
  ASSERT_EQ(wal->records()[0].entries.size(), 1u);
  EXPECT_EQ(wal->records()[0].entries[0].weight, w * 2.0);

  // The same batch as UPDATE_WEIGHTS on a fresh server: the same
  // acknowledgement and the same push.
  StartServer();
  FannClient reference_subscriber = Connect();
  ASSERT_TRUE(reference_subscriber.Subscribe(MakeQuery(901), true, &sub_id,
                                             initial))
      << reference_subscriber.last_error();
  FannClient updater = Connect();
  UpdateWeightsRequest update;
  update.entries = entries;
  ASSERT_TRUE(updater.UpdateWeights(update, update_response))
      << updater.last_error();
  EXPECT_EQ(update_response.status, response.status);
  EXPECT_EQ(update_response.applied, response.applied);
  EXPECT_EQ(update_response.missing, response.missing);
  EXPECT_EQ(update_response.new_epoch, response.new_epoch);
  ReceivedPush direct;
  ASSERT_TRUE(reference_subscriber.WaitPush(direct))
      << reference_subscriber.last_error();
  EXPECT_EQ(direct.answer.graph_epoch, replicated.answer.graph_epoch);
  EXPECT_EQ(direct.answer.result.status, replicated.answer.result.status);
  EXPECT_EQ(direct.answer.result.best, replicated.answer.result.best);
  EXPECT_EQ(DistanceBits(direct.answer.result.distance),
            DistanceBits(replicated.answer.result.distance));
  EXPECT_EQ(direct.answer.result.subset, replicated.answer.result.subset);
  EXPECT_EQ(direct.answer.result.gphi_evaluations,
            replicated.answer.result.gphi_evaluations);
  ShutdownAndWait();
  wal.reset();
  std::remove(wal_path.c_str());
}

// --- graceful drain -------------------------------------------------------

TEST_F(NetServerTest, ShutdownFrameDrainsQueuedWork) {
  ExecutorGate gate;
  gate.Hold();
  ServerConfig config;
  config.test_execution_gate = gate.AsHook();
  StartServer(std::move(config));

  // One item held at the gate, two more queued behind it.
  std::vector<std::thread> senders;
  std::atomic<size_t> ok{0};
  for (size_t i = 0; i < 3; ++i) {
    senders.emplace_back([&, i] {
      FannClient client = Connect();
      QueryResponse response;
      if (client.Query(MakeQuery(200 + i), response) &&
          response.result.status == static_cast<uint8_t>(QueryStatus::kOk)) {
        ok.fetch_add(1);
      }
    });
  }
  gate.AwaitEntered(1);
  AwaitQueueDepth(*server_, 2.0);

  FannClient admin = Connect();
  ASSERT_TRUE(admin.Shutdown()) << admin.last_error();
  for (int spin = 0; spin < 200 && !server_->draining(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(server_->draining());

  // Let Wait() start the drain (join the accept thread, arm the timer,
  // set the executor stop flag) while the executor is still parked at
  // the gate, so all three items finish as *drained* work.
  DrainStats stats;
  std::thread wait_thread([&] { stats = server_->Wait(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Release();
  wait_thread.join();
  for (std::thread& t : senders) t.join();

  EXPECT_EQ(ok.load(), 3u) << "drain must answer the queued work";
  EXPECT_EQ(stats.drained_items, 3u);
  EXPECT_EQ(stats.aborted_items, 0u);
  EXPECT_TRUE(stats.within_deadline);
  EXPECT_NE(stats.final_stats_json.find("\"draining\": true"),
            std::string::npos);
}

TEST_F(NetServerTest, DrainDeadlineAbortsRemainingItems) {
  ExecutorGate gate;
  gate.Hold();
  ServerConfig config;
  config.drain_deadline_ms = 0.0;  // everything queued is already late
  config.test_execution_gate = gate.AsHook();
  StartServer(std::move(config));

  // One item held at the gate, one queued behind it.
  std::vector<std::thread> senders;
  std::atomic<size_t> shutting_down{0};
  for (size_t i = 0; i < 2; ++i) {
    senders.emplace_back([&, i] {
      FannClient client = Connect();
      QueryResponse response;
      if (!client.Query(MakeQuery(300 + i), response) &&
          client.last_error_code() == ErrorCode::kShuttingDown) {
        shutting_down.fetch_add(1);
      }
    });
  }
  gate.AwaitEntered(1);
  AwaitQueueDepth(*server_, 1.0);

  server_->RequestShutdown();
  // Hold the gate until the drain is well past its (zero) deadline, so
  // both items — including the one dequeued before the drain began —
  // are aborted, not computed.
  DrainStats stats;
  std::thread wait_thread([&] { stats = server_->Wait(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Release();
  wait_thread.join();
  for (std::thread& t : senders) t.join();

  EXPECT_EQ(stats.aborted_items, 2u);
  EXPECT_EQ(stats.drained_items, 0u);
  EXPECT_FALSE(stats.within_deadline);
  EXPECT_EQ(shutting_down.load(), 2u)
      << "aborted items must still get an explicit SHUTTING_DOWN answer";
}

TEST_F(NetServerTest, RequestShutdownIsIdempotent) {
  StartServer();
  server_->RequestShutdown();
  server_->RequestShutdown();
  server_->RequestShutdown();
  const DrainStats stats = server_->Wait();
  EXPECT_TRUE(stats.within_deadline);
}

TEST_F(NetServerTest, RequestShutdownFloodNeverLosesTheWake) {
  StartServer();
  // A pipe-backed wake drops writes once 64 KiB of unconsumed bytes
  // accumulate; 100k racing requests from several threads would exceed
  // that many times over. The eventfd wake must still shut down
  // promptly — the test timeout is the regression detector.
  std::vector<std::thread> hammers;
  for (int t = 0; t < 4; ++t) {
    hammers.emplace_back([&] {
      for (int i = 0; i < 25'000; ++i) server_->RequestShutdown();
    });
  }
  for (std::thread& t : hammers) t.join();
  const DrainStats stats = server_->Wait();
  EXPECT_TRUE(stats.within_deadline);
}

// --- connection lifecycle hygiene -----------------------------------------

TEST_F(NetServerTest, ConnectionChurnDoesNotAccumulateThreads) {
  StartServer();
  // 60 connect → query → disconnect cycles. Finished reader threads are
  // reaped as later connections arrive, so tracked threads stay bounded
  // by the (tiny) live set instead of growing with total connections
  // served.
  for (size_t i = 0; i < 60; ++i) {
    FannClient client = Connect();
    QueryResponse response;
    ASSERT_TRUE(client.Query(MakeQuery(500 + i), response))
        << client.last_error();
    client.Close();
  }
  // The last few closes may not have been followed by an accept (which
  // is what triggers a reap); everything before must have been.
  EXPECT_LE(server_->tracked_connection_threads(), 4u)
      << "finished connection threads are accumulating";
  EXPECT_EQ(server_->metrics().Snapshot().counter("server.connections"), 60u);
  ShutdownAndWait();
}

TEST_F(NetServerTest, MidResponseDisconnectDoesNotKillServer) {
  ExecutorGate gate;
  gate.Hold();
  ServerConfig config;
  config.test_execution_gate = gate.AsHook();
  StartServer(std::move(config));

  // The query is dequeued and held at the gate; the client then
  // vanishes. When the executor finally writes the response, the peer
  // is gone — the send must fail with EPIPE/ECONNRESET, not raise a
  // process-killing SIGPIPE.
  {
    std::string error;
    Socket raw = TcpConnect("127.0.0.1", server_->port(), &error);
    ASSERT_TRUE(raw.valid()) << error;
    const std::vector<uint8_t> frame =
        EncodeFrame(static_cast<uint16_t>(Opcode::kQuery), 77,
                    EncodeQueryRequest({MakeQuery()}));
    ASSERT_TRUE(raw.WriteFull(frame.data(), frame.size()));
    gate.AwaitEntered(1);  // the executor holds this request
    raw.Close();           // disconnect between request and response
  }
  gate.Release();

  // The server is still alive and serving.
  FannClient client = Connect();
  EXPECT_TRUE(client.Ping()) << client.last_error();
  QueryResponse response;
  ASSERT_TRUE(client.Query(MakeQuery(), response)) << client.last_error();
  EXPECT_EQ(response.result.status, static_cast<uint8_t>(QueryStatus::kOk));
  ShutdownAndWait();
}

// --- accept-loop failure handling -----------------------------------------

TEST_F(NetServerTest, FdExhaustionBacksOffAndRecovers) {
#ifdef FANNR_UNDER_SANITIZER
  GTEST_SKIP() << "fd-table exhaustion starves the sanitizer runtime";
#else
  // gtest_discover_tests runs each test in its own process, so the
  // rlimit games below cannot leak into other tests.
  StartServer();
  FannClient control = Connect();
  ASSERT_TRUE(control.Ping()) << control.last_error();

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = 256;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

  // A connecting socket created *before* the table is exhausted: its
  // TCP handshake completes in the kernel's listener backlog without
  // consuming another process fd, so this is the pending connection
  // accept4 will repeatedly fail to take.
  const int pending = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(pending, 0);

  std::vector<int> hogs;
  int hog;
  while ((hog = ::dup(pending)) >= 0) hogs.push_back(hog);
  ASSERT_EQ(errno, EMFILE);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(pending, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);

  // The listener is now readable but every accept4 fails with EMFILE.
  // Under level-triggered epoll an unthrottled loop wakes ~100k times a
  // second here; the backoff bounds it to ~20/s, each failure counted.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const uint64_t errors =
      server_->metrics().Snapshot().counter("server.accept_errors");
  EXPECT_GE(errors, 1u) << "EMFILE accept failure was not counted";
  EXPECT_LT(errors, 100u) << "accept loop is busy-spinning on EMFILE";

  for (int fd : hogs) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  // Recovery: the parked listener re-arms after the backoff and accepts
  // the connection that waited in the backlog the whole time.
  Socket pending_sock(pending);
  const std::vector<uint8_t> ping =
      EncodeFrame(static_cast<uint16_t>(Opcode::kPing), 31, {});
  ASSERT_TRUE(pending_sock.WriteFull(ping.data(), ping.size()));
  uint8_t header_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(pending_sock.ReadFull(header_bytes, sizeof(header_bytes)));
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(header_bytes, header));
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kPong));
  EXPECT_EQ(header.request_id, 31u);

  // Both a fresh connection and the pre-exhaustion one keep working.
  FannClient fresh = Connect();
  EXPECT_TRUE(fresh.Ping()) << fresh.last_error();
  EXPECT_TRUE(control.Ping()) << control.last_error();
  ShutdownAndWait();
#endif
}

// --- transmit faults ------------------------------------------------------

TEST_F(NetServerTest, RoundTripSurvivesInjectedShortWrites) {
  StartServer();
  // Every send(2) in the process — server responses and client requests
  // alike — is capped to 9 bytes with periodic synthetic EINTRs. Frames
  // are much larger than 9 bytes, so any missing short-write
  // continuation desyncs the stream and fails the round-trip.
  ScopedWriteFaultInjection faults({.max_chunk_bytes = 9,
                                    .eintr_period = 6});
  FannClient client = Connect();
  BatchRequest request;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    request.jobs.push_back(MakeQuery(seed));
  }
  BatchResponse response;
  ASSERT_TRUE(client.Batch(request, response)) << client.last_error();
  ASSERT_EQ(response.results.size(), 6u);
  for (const WireResult& result : response.results) {
    EXPECT_EQ(result.status, static_cast<uint8_t>(QueryStatus::kOk));
  }
  ShutdownAndWait();
}

TEST_F(NetServerTest, DrainingServerRefusesNewWork) {
  ExecutorGate gate;
  gate.Hold();
  ServerConfig config;
  config.test_execution_gate = gate.AsHook();
  StartServer(std::move(config));

  FannClient client = Connect();
  // Connect() returns at TCP-handshake time; a full round-trip proves
  // the server accept()ed and a reader is serving this connection before
  // the accept loop is told to stop.
  ASSERT_TRUE(client.Ping()) << client.last_error();
  server_->RequestShutdown();
  for (int spin = 0; spin < 200 && !server_->draining(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  QueryResponse response;
  EXPECT_FALSE(client.Query(MakeQuery(), response));
  EXPECT_EQ(client.last_error_code(), ErrorCode::kShuttingDown)
      << client.last_error();
  gate.Release();
  server_->Wait();
}

// --- pipelining -----------------------------------------------------------

TEST_F(NetServerTest, PipelinedQueriesAnswerEveryShuffledId) {
  StartServer();
  FannClient client = Connect();

  // 32 queries written back-to-back with shuffled, sparse request ids
  // before a single response is read. Every id must be answered exactly
  // once, correlated by id (not arrival order), and each answer must
  // match what the same query gets over a fresh synchronous connection.
  constexpr size_t kInFlight = 32;
  std::vector<WireQuery> queries;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kInFlight; ++i) {
    queries.push_back(MakeQuery(100 + i));
  }
  for (size_t i = 0; i < kInFlight; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(client.SendQuery(queries[i], &id)) << client.last_error();
    ids.push_back(id);
  }

  std::map<uint64_t, QueryResponse> by_id;
  for (size_t i = 0; i < kInFlight; ++i) {
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(client.ReadAny(header, payload)) << client.last_error();
    ASSERT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kQueryResult));
    QueryResponse response;
    ASSERT_TRUE(DecodeQueryResponse(payload, response));
    EXPECT_TRUE(by_id.emplace(header.request_id, response).second)
        << "request id " << header.request_id << " answered twice";
  }

  FannClient reference = Connect();
  for (size_t i = 0; i < kInFlight; ++i) {
    auto it = by_id.find(ids[i]);
    ASSERT_NE(it, by_id.end()) << "request id " << ids[i] << " unanswered";
    QueryResponse expected;
    ASSERT_TRUE(reference.Query(queries[i], expected))
        << reference.last_error();
    EXPECT_EQ(it->second.result.status, expected.result.status);
    EXPECT_EQ(it->second.result.best, expected.result.best);
    EXPECT_EQ(it->second.result.distance, expected.result.distance);
  }
  ShutdownAndWait();
}

TEST_F(NetServerTest, PipelinedPingOvertakesHeldWork) {
  ExecutorGate gate;
  gate.Hold();
  ServerConfig config;
  config.test_execution_gate = gate.AsHook();
  StartServer(std::move(config));

  // A QUERY is parked at the executor gate; a PING sent afterwards on
  // the same connection is answered inline by the event loop — the
  // documented out-of-order completion pipelining allows.
  FannClient client = Connect();
  uint64_t query_id = 0;
  uint64_t ping_id = 0;
  ASSERT_TRUE(client.SendQuery(MakeQuery(), &query_id));
  gate.AwaitEntered(1);
  ASSERT_TRUE(client.SendPing(&ping_id));

  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(client.ReadAny(header, payload)) << client.last_error();
  EXPECT_EQ(header.request_id, ping_id) << "PONG did not overtake the query";
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kPong));

  gate.Release();
  ASSERT_TRUE(client.ReadAny(header, payload)) << client.last_error();
  EXPECT_EQ(header.request_id, query_id);
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kQueryResult));
  ShutdownAndWait();
}

// --- one hand-off per burst ----------------------------------------------

TEST_F(NetServerTest, TwoLoopsPipelinedAnswersAreBitwiseInProcessAndInOrder) {
  // Frames admitted on either of two loops wake the executor at their
  // loop's pass end; each burst's answers reach each connection in one
  // hand-off. Every answer must equal the in-process Run bit for bit,
  // and each connection's answers must come back in request order.
  ServerConfig config;
  config.num_io_threads = 2;
  StartServer(std::move(config));

  constexpr size_t kConnections = 2;
  constexpr size_t kInFlight = 16;
  std::vector<FannClient> clients;
  for (size_t c = 0; c < kConnections; ++c) clients.push_back(Connect());
  std::vector<std::vector<WireQuery>> queries(kConnections);
  std::vector<std::vector<uint64_t>> ids(kConnections);
  for (size_t i = 0; i < kInFlight; ++i) {
    for (size_t c = 0; c < kConnections; ++c) {
      queries[c].push_back(MakeQuery(300 + 100 * c + i));
      uint64_t id = 0;
      ASSERT_TRUE(clients[c].SendQuery(queries[c].back(), &id))
          << clients[c].last_error();
      ids[c].push_back(id);
    }
  }

  GphiResources resources;
  resources.graph = graph_.get();
  BatchQueryEngine reference(resources, BatchOptions{});
  for (size_t c = 0; c < kConnections; ++c) {
    std::vector<std::unique_ptr<IndexedVertexSet>> sets;
    std::vector<FannrQuery> jobs;
    for (const WireQuery& wire : queries[c]) {
      sets.push_back(std::make_unique<IndexedVertexSet>(
          graph_->NumVertices(),
          std::vector<VertexId>(wire.p.begin(), wire.p.end())));
      sets.push_back(std::make_unique<IndexedVertexSet>(
          graph_->NumVertices(),
          std::vector<VertexId>(wire.q.begin(), wire.q.end())));
      FannrQuery job;
      job.query.graph = graph_.get();
      job.query.data_points = sets[sets.size() - 2].get();
      job.query.query_points = sets.back().get();
      job.query.phi = wire.phi;
      job.query.aggregate = static_cast<Aggregate>(wire.aggregate);
      job.algorithm = static_cast<FannAlgorithm>(wire.algorithm);
      jobs.push_back(job);
    }
    const std::vector<FannResult> expected = reference.Run(jobs);
    for (size_t i = 0; i < kInFlight; ++i) {
      FrameHeader header;
      std::vector<uint8_t> payload;
      ASSERT_TRUE(clients[c].ReadAny(header, payload))
          << clients[c].last_error();
      ASSERT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kQueryResult));
      EXPECT_EQ(header.request_id, ids[c][i])
          << "connection " << c << " answer " << i << " out of order";
      QueryResponse response;
      ASSERT_TRUE(DecodeQueryResponse(payload, response));
      const WireResult want = ToWire(expected[i]);
      const WireResult& got = response.result;
      EXPECT_EQ(got.status, want.status);
      EXPECT_EQ(got.best, want.best);
      EXPECT_EQ(DistanceBits(got.distance), DistanceBits(want.distance));
      EXPECT_EQ(got.gphi_evaluations, want.gphi_evaluations);
      EXPECT_EQ(got.subset, want.subset);
    }
  }
  ShutdownAndWait();
}

TEST_F(NetServerTest, SequentialQueriesNeverWaitOnALostWake) {
  // One query in flight at a time: every answer depends on the pass-end
  // wake of the frame's own loop pass. A lost wake leaves the query
  // queued forever, so each round trip must finish within a bound.
  StartServer();
  constexpr size_t kQueries = 2000;
  constexpr auto kPerQueryBound = std::chrono::seconds(5);
  std::atomic<size_t> answered{0};
  std::atomic<bool> failed{false};
  std::thread querier([&] {
    FannClient client = Connect();
    const WireQuery query = MakeQuery();
    for (size_t i = 0; i < kQueries; ++i) {
      QueryResponse response;
      if (!client.Query(query, response) ||
          response.result.status != static_cast<uint8_t>(QueryStatus::kOk)) {
        failed.store(true);
        return;
      }
      answered.fetch_add(1);
    }
  });
  size_t last = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (answered.load() < kQueries && !failed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const size_t now = answered.load();
    if (now != last) {
      last = now;
      last_progress = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_progress >
               kPerQueryBound) {
      ADD_FAILURE() << "query " << now << " unanswered after 5 s";
      break;
    }
  }
  // Drain answers whatever is still queued, which frees the querier.
  ShutdownAndWait();
  querier.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(answered.load(), kQueries);
}

TEST_F(NetServerTest, OnePipelinedWriteIsDrainedWhileItsPassReads) {
  // One write of many more queries than the queue holds, into an idle
  // server: the loop reads it all in one pass. Each full burst queued
  // wakes the executor at once, so it drains the queue while the pass
  // still reads and more than max_queue_depth queries get answered. An
  // executor woken only at the pass end would find exactly
  // max_queue_depth queued and every later frame shed. Every frame is
  // answered once either way: a result bitwise equal to the in-process
  // Run, or OVERLOADED, counted in server.overloaded.
  constexpr size_t kDepth = 8;
  constexpr size_t kFrames = 256;  // one recv: about 32 KiB
  constexpr size_t kMaxRounds = 50;
  ServerConfig config;
  config.max_queue_depth = kDepth;
  StartServer(std::move(config));

  const WireQuery query = MakeQuery();
  GphiResources resources;
  resources.graph = graph_.get();
  BatchQueryEngine reference(resources, BatchOptions{});
  const IndexedVertexSet p(graph_->NumVertices(),
                           std::vector<VertexId>(query.p.begin(),
                                                 query.p.end()));
  const IndexedVertexSet q(graph_->NumVertices(),
                           std::vector<VertexId>(query.q.begin(),
                                                 query.q.end()));
  FannrQuery job;
  job.query.graph = graph_.get();
  job.query.data_points = &p;
  job.query.query_points = &q;
  job.query.phi = query.phi;
  job.query.aggregate = static_cast<Aggregate>(query.aggregate);
  job.algorithm = static_cast<FannAlgorithm>(query.algorithm);
  const WireResult want = ToWire(reference.Run({job})[0]);

  std::string error;
  Socket raw = TcpConnect("127.0.0.1", server_->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  const std::vector<uint8_t> payload = EncodeQueryRequest({query});
  size_t shed_total = 0;
  size_t most_answered = 0;
  // Scheduling decides how much the executor drains during a pass, and
  // a loaded machine can keep it off a CPU for a whole pass now and
  // then; a wake only at the pass end keeps it asleep through every one.
  for (size_t round = 0; round < kMaxRounds && most_answered <= kDepth;
       ++round) {
    std::vector<uint8_t> write;
    for (size_t i = 0; i < kFrames; ++i) {
      AppendFrame(static_cast<uint16_t>(Opcode::kQuery), round * kFrames + i,
                  payload, write);
    }
    ASSERT_LT(write.size(), size_t{64} * 1024);
    ASSERT_TRUE(raw.WriteFull(write.data(), write.size()));

    std::set<uint64_t> seen;
    size_t answered = 0;
    for (size_t i = 0; i < kFrames; ++i) {
      uint8_t header_bytes[kFrameHeaderBytes];
      ASSERT_TRUE(raw.ReadFull(header_bytes, sizeof(header_bytes)));
      FrameHeader header;
      ASSERT_TRUE(DecodeFrameHeader(header_bytes, header));
      std::vector<uint8_t> body(header.payload_length);
      ASSERT_TRUE(raw.ReadFull(body.data(), body.size()));
      EXPECT_TRUE(seen.insert(header.request_id).second)
          << "request id " << header.request_id << " answered twice";
      if (header.opcode == static_cast<uint16_t>(Opcode::kError)) {
        ErrorResponse shed;
        ASSERT_TRUE(DecodeErrorResponse(body, shed));
        EXPECT_EQ(shed.code, ErrorCode::kOverloaded) << shed.message;
        ++shed_total;
        continue;
      }
      ASSERT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kQueryResult));
      QueryResponse response;
      ASSERT_TRUE(DecodeQueryResponse(body, response));
      EXPECT_EQ(response.result.best, want.best);
      EXPECT_EQ(DistanceBits(response.result.distance),
                DistanceBits(want.distance));
      EXPECT_EQ(response.result.subset, want.subset);
      ++answered;
    }
    ASSERT_GE(answered, kDepth);  // the queue was empty at the write
    most_answered = std::max(most_answered, answered);
  }
  EXPECT_EQ(server_->metrics().Snapshot().counter("server.overloaded"),
            shed_total);
  EXPECT_GT(most_answered, kDepth)
      << "the executor slept through all " << kMaxRounds << " passes";
  ShutdownAndWait();
}

TEST_F(NetServerTest, WavePushesLeaveEachConnectionInSubscriptionOrder) {
  // One wave pushes to five subscriptions registered alternately on two
  // connections; the wave hands each connection its pushes at once, in
  // subscription (registration) order.
  StartServer();
  FannClient a = Connect();
  FannClient b = Connect();
  std::vector<uint64_t> want_a;
  std::vector<uint64_t> want_b;
  for (size_t i = 0; i < 5; ++i) {
    FannClient& client = i % 2 == 0 ? a : b;
    uint64_t id = 0;
    SubscribeResponse initial;
    ASSERT_TRUE(client.Subscribe(MakeQuery(700 + i), /*force_push=*/true,
                                 &id, initial))
        << client.last_error();
    ASSERT_EQ(initial.result.status, static_cast<uint8_t>(QueryStatus::kOk));
    (i % 2 == 0 ? want_a : want_b).push_back(id);
  }

  FannClient updater = Connect();
  for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
    UpdateWeightsRequest request;
    const auto [u, w] = *graph_->Neighbors(0).begin();
    request.entries.push_back({0, u, w * static_cast<double>(epoch + 1)});
    UpdateWeightsResponse ack;
    ASSERT_TRUE(updater.UpdateWeights(request, ack)) << updater.last_error();
    ASSERT_EQ(ack.new_epoch, epoch);
    for (FannClient* client : {&a, &b}) {
      const std::vector<uint64_t>& want = client == &a ? want_a : want_b;
      for (uint64_t id : want) {
        ReceivedPush push;
        ASSERT_TRUE(client->WaitPush(push)) << client->last_error();
        EXPECT_EQ(push.subscription_id, id) << "epoch " << epoch;
        EXPECT_EQ(push.answer.graph_epoch, epoch);
      }
    }
  }
  const obs::MetricsSnapshot stats = server_->metrics().Snapshot();
  EXPECT_EQ(stats.counter("server.pushes.sent"), 10u);
  EXPECT_EQ(stats.counter("server.pushes.dropped_backpressure"), 0u);
  ShutdownAndWait();
}

TEST_F(NetServerTest, PushCollectedThisWaveCountsAgainstBackpressure) {
  // A push frame here is 69 bytes (24 header + 8 epoch + 21 result + a
  // 4 + 3 x 4 byte subset), so a 64-byte bound admits one push per
  // connection per wave: the first push of the wave still sits in the
  // executor's per-connection buffer, never in the transmit queue, yet
  // the second must be conflated exactly as if the first were queued.
  ServerConfig config;
  config.max_outbound_bytes = 64;
  StartServer(std::move(config));
  FannClient a = Connect();
  FannClient b = Connect();
  uint64_t first_a = 0;
  uint64_t second_a = 0;
  uint64_t only_b = 0;
  SubscribeResponse initial;
  ASSERT_TRUE(a.Subscribe(MakeQuery(801), true, &first_a, initial));
  ASSERT_TRUE(b.Subscribe(MakeQuery(802), true, &only_b, initial));
  ASSERT_TRUE(a.Subscribe(MakeQuery(803), true, &second_a, initial));

  FannClient updater = Connect();
  UpdateWeightsRequest request;
  const auto [u, w] = *graph_->Neighbors(0).begin();
  request.entries.push_back({0, u, w * 2.0});
  UpdateWeightsResponse ack;
  ASSERT_TRUE(updater.UpdateWeights(request, ack)) << updater.last_error();

  ReceivedPush push;
  ASSERT_TRUE(a.WaitPush(push)) << a.last_error();
  EXPECT_EQ(push.subscription_id, first_a);
  ASSERT_TRUE(b.WaitPush(push)) << b.last_error();
  EXPECT_EQ(push.subscription_id, only_b);
  const obs::MetricsSnapshot stats = server_->metrics().Snapshot();
  EXPECT_EQ(stats.counter("server.pushes.sent"), 2u);
  EXPECT_EQ(stats.counter("server.pushes.dropped_backpressure"), 1u);
  // Nothing else was pushed to `a`: a push frame would be read (and
  // buffered) ahead of the PONG.
  ASSERT_TRUE(a.Ping()) << a.last_error();
  EXPECT_FALSE(a.TakePush(push));
  ShutdownAndWait();
}

TEST_F(NetServerTest, BackpressureBoundsUnreadResponsesWithoutLoss) {
  ServerConfig config;
  // A transmit backlog this small pauses reading after the first few
  // responses queue up un-read; the admission queue must still be deep
  // enough to hold what gets through before the pause.
  config.max_outbound_bytes = 512;
  config.max_queue_depth = 256;
  StartServer(std::move(config));

  FannClient client = Connect();
  constexpr size_t kQueries = 64;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kQueries; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(client.SendQuery(MakeQuery(50 + i), &id))
        << client.last_error();
    ids.push_back(id);
  }

  // Only now start reading: the server has long since stopped reading
  // this connection (backlog > 512 bytes), and resumes as we drain. No
  // response may be lost or duplicated across the pause/resume cycles.
  std::set<uint64_t> answered;
  for (size_t i = 0; i < kQueries; ++i) {
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(client.ReadAny(header, payload)) << client.last_error();
    ASSERT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kQueryResult));
    QueryResponse response;
    ASSERT_TRUE(DecodeQueryResponse(payload, response));
    EXPECT_EQ(response.result.status,
              static_cast<uint8_t>(QueryStatus::kOk));
    EXPECT_TRUE(answered.insert(header.request_id).second);
  }
  EXPECT_EQ(answered.size(), kQueries);
  for (uint64_t id : ids) EXPECT_TRUE(answered.count(id)) << id;
  ShutdownAndWait();
}

}  // namespace
}  // namespace fannr::net
