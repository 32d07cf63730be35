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

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

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
