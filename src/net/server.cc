#include "net/server.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/thread_name.h"
#include "common/timer.h"
#include "cont/subscription.h"
#include "dynamic/update.h"
#include "dynamic/wal.h"
#include "obs/trace.h"

namespace fannr::net {

namespace {

/// Most consecutive same-epoch QUERY items merged into one engine Run
/// (pipelining dispatch amortization).
constexpr size_t kMergeBudget = 64;

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string HistogramStatsJson(const obs::HistogramSnapshot& h) {
  return "{\"count\": " + std::to_string(h.count) +
         ", \"mean\": " + Num(h.Mean()) + ", \"p50\": " + Num(h.Percentile(50)) +
         ", \"p95\": " + Num(h.Percentile(95)) +
         ", \"p99\": " + Num(h.Percentile(99)) + ", \"max\": " + Num(h.max) +
         "}";
}

}  // namespace

/// One admitted unit of work, queued FIFO for the executor.
struct FannServer::WorkItem {
  std::shared_ptr<Connection> conn;
  Opcode opcode = Opcode::kPing;
  uint64_t request_id = 0;
  QueryRequest query;
  BatchRequest batch;
  /// UPDATE_WEIGHTS and REPL_APPLY entries; repl_position is the epoch a
  /// REPL_APPLY's entries apply on top of.
  UpdateWeightsRequest update;
  GraphEpoch repl_position = 0;
  SubscribeRequest subscribe;
  UnsubscribeRequest unsubscribe;
  /// Graph epoch at admission; QUERY/BATCH items are rejected at
  /// execution if the epoch has moved (an update was processed in
  /// between), mirroring the engine's mid-batch contract.
  GraphEpoch admission_epoch = 0;
  Timer e2e_timer;  ///< Started at admission; measures queue wait + solve.
};

FannServer::FannServer(Graph* graph, const GphiResources& resources,
                       ServerConfig config)
    : graph_(graph), resources_(resources), config_(std::move(config)) {
  FANNR_CHECK(graph_ != nullptr && resources_.graph == graph_);
  // STATS, the slow-query log, and drain reporting all read the engine's
  // observation state; the server runs with it on unconditionally.
  config_.engine_options.enable_metrics = true;
  engine_ = std::make_unique<BatchQueryEngine>(resources_,
                                               config_.engine_options);
  subs_ = std::make_unique<cont::SubscriptionTable>(
      config_.max_subscriptions_per_connection,
      config_.max_subscriptions_total);

  m_req_query_ = metrics_.RegisterCounter("server.requests.query");
  m_req_batch_ = metrics_.RegisterCounter("server.requests.batch");
  m_req_update_ = metrics_.RegisterCounter("server.requests.update_weights");
  m_req_stats_ = metrics_.RegisterCounter("server.requests.stats");
  m_req_ping_ = metrics_.RegisterCounter("server.requests.ping");
  m_req_shutdown_ = metrics_.RegisterCounter("server.requests.shutdown");
  m_req_repl_ = metrics_.RegisterCounter("server.requests.repl_apply");
  m_errors_ = metrics_.RegisterCounter("server.responses.error");
  m_overloaded_ = metrics_.RegisterCounter("server.overloaded");
  FrontEndCounters front_end_counters;
  front_end_counters.bad_frames = metrics_.RegisterCounter("server.bad_frames");
  front_end_counters.connections =
      metrics_.RegisterCounter("server.connections");
  front_end_counters.accept_errors =
      metrics_.RegisterCounter("server.accept_errors");
  m_stale_admission_ =
      metrics_.RegisterCounter("server.rejected_stale_admission");
  m_req_subscribe_ = metrics_.RegisterCounter("server.requests.subscribe");
  m_req_unsubscribe_ =
      metrics_.RegisterCounter("server.requests.unsubscribe");
  m_pushes_sent_ = metrics_.RegisterCounter("server.pushes.sent");
  m_pushes_suppressed_ =
      metrics_.RegisterCounter("server.pushes.suppressed");
  m_pushes_dropped_ =
      metrics_.RegisterCounter("server.pushes.dropped_backpressure");
  m_queue_depth_ = metrics_.RegisterGauge("server.queue_depth");
  m_subs_active_ = metrics_.RegisterGauge("server.subscriptions.active");
  m_e2e_query_ms_ = metrics_.RegisterHistogram(
      "server.e2e_ms.query", obs::DefaultLatencyBucketsMs());
  m_e2e_batch_ms_ = metrics_.RegisterHistogram(
      "server.e2e_ms.batch", obs::DefaultLatencyBucketsMs());
  m_e2e_update_ms_ = metrics_.RegisterHistogram(
      "server.e2e_ms.update", obs::DefaultLatencyBucketsMs());
  m_queue_wait_ms_ = metrics_.RegisterHistogram(
      "server.queue_wait_ms", obs::DefaultLatencyBucketsMs());
  m_push_latency_ms_ = metrics_.RegisterHistogram(
      "server.push_latency_ms", obs::DefaultLatencyBucketsMs());

  front_end_counters.overloaded = m_overloaded_;
  front_end_counters.errors = m_errors_;
  FrontEndConfig front_end_config;
  front_end_config.host = config_.host;
  front_end_config.port = config_.port;
  front_end_config.num_loops = config_.num_io_threads;
  front_end_config.max_connections = config_.max_connections;
  front_end_config.max_outbound_bytes = config_.max_outbound_bytes;
  front_end_ = std::make_unique<FrontEnd>(
      std::move(front_end_config), static_cast<FrameHandler*>(this),
      &metrics_, front_end_counters);
}

FannServer::~FannServer() {
  if (started_.load(std::memory_order_relaxed)) {
    RequestShutdown();
    if (executor_thread_.joinable()) Wait();
  }
  if (drain_wake_fd_ >= 0) ::close(drain_wake_fd_);
}

bool FannServer::Start(std::string* error) {
  FANNR_CHECK(!started_.load(std::memory_order_relaxed));
  // Blocking mode: Wait() parks in read(2) on it until RequestShutdown.
  drain_wake_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (drain_wake_fd_ < 0) {
    if (error != nullptr) *error = "eventfd failed";
    return false;
  }
  if (!front_end_->Start(error)) return false;
  started_.store(true, std::memory_order_relaxed);
  executor_thread_ = std::thread(&FannServer::ExecutorMain, this);
  return true;
}

void FannServer::RequestShutdown() {
  draining_.store(true, std::memory_order_relaxed);
  // Everything below is async-signal-safe (write(2) on eventfds over an
  // immutable vector), so this whole method may run in a SIGTERM
  // handler. An eventfd counter stays level-triggered readable until
  // consumed: however many callers race here, the wake cannot be
  // silently dropped the way a full pipe drops writes. (EAGAIN is only
  // possible at counter overflow, which still leaves it readable.)
  const uint64_t one = 1;
  if (drain_wake_fd_ >= 0) {
    [[maybe_unused]] ssize_t n = ::write(drain_wake_fd_, &one, sizeof(one));
  }
  front_end_->StopAccepting();
}

size_t FannServer::tracked_connection_threads() const {
  return front_end_->num_loops();
}

void FannServer::OnFrame(const std::shared_ptr<Connection>& conn,
                         FrameCut& cut) {
  if (front_end_->RejectEnvelope(conn, cut)) return;
  const FrameHeader& header = cut.header;

  const Opcode opcode = static_cast<Opcode>(header.opcode);
  if (opcode == Opcode::kPing) {
    metrics_.Add(m_req_ping_, 1);
    front_end_->Enqueue(conn, Opcode::kPong, header.request_id, {});
    return;
  }
  if (opcode == Opcode::kShutdown) {
    metrics_.Add(m_req_shutdown_, 1);
    front_end_->Enqueue(conn, Opcode::kShutdownAck, header.request_id, {});
    RequestShutdown();
    return;
  }

  // Work frame: decode, then admit (or shed).
  WorkItem item;
  item.conn = conn;
  item.opcode = opcode;
  item.request_id = header.request_id;
  bool decoded = false;
  switch (opcode) {
    case Opcode::kQuery:
      metrics_.Add(m_req_query_, 1);
      decoded = DecodeQueryRequest(cut.payload, item.query);
      break;
    case Opcode::kBatch:
      metrics_.Add(m_req_batch_, 1);
      decoded = DecodeBatchRequest(cut.payload, item.batch);
      break;
    case Opcode::kUpdateWeights:
      metrics_.Add(m_req_update_, 1);
      decoded = DecodeUpdateWeightsRequest(cut.payload, item.update);
      break;
    case Opcode::kReplApply: {
      metrics_.Add(m_req_repl_, 1);
      ReplApplyRequest repl;
      decoded = DecodeReplApplyRequest(cut.payload, repl);
      item.update.entries = std::move(repl.entries);
      item.repl_position = repl.position;
      break;
    }
    case Opcode::kStats:
      metrics_.Add(m_req_stats_, 1);
      decoded = cut.payload.empty();
      break;
    case Opcode::kSubscribe:
      metrics_.Add(m_req_subscribe_, 1);
      decoded = DecodeSubscribeRequest(cut.payload, item.subscribe);
      break;
    case Opcode::kUnsubscribe:
      metrics_.Add(m_req_unsubscribe_, 1);
      decoded = DecodeUnsubscribeRequest(cut.payload, item.unsubscribe);
      break;
    default:
      break;
  }
  if (!decoded) {
    metrics_.Add(m_errors_, 1);
    front_end_->EnqueueError(conn, header.request_id,
                             ErrorCode::kMalformedPayload,
                             std::string(OpcodeName(header.opcode)) +
                                 " payload failed to decode");
    return;
  }
  if (draining()) {
    metrics_.Add(m_errors_, 1);
    front_end_->EnqueueError(conn, header.request_id,
                             ErrorCode::kShuttingDown,
                             "server is draining — no new work accepted");
    return;
  }

  item.admission_epoch = graph_->epoch();
  item.e2e_timer.Reset();
  // A full burst (kMergeBudget items, or the whole queue if smaller)
  // does not wait for the pass end: a pass reads each ready connection
  // dry, and an executor left asleep meanwhile would let one pipelining
  // client fill the queue and be shed for the rest of its write.
  const size_t full_burst = std::max<size_t>(
      std::min(kMergeBudget, config_.max_queue_depth), 1);
  bool admitted = false;
  bool wake_now = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() < config_.max_queue_depth) {
      queue_.push_back(std::move(item));
      metrics_.Set(m_queue_depth_, static_cast<double>(queue_.size()));
      admitted = true;
      wake_now = queue_.size() % full_burst == 0;
    }
  }
  if (admitted) {
    // Otherwise the executor is woken at this loop's pass end
    // (OnPassEnd): once per pass, however many frames it admitted.
    wake_pending_.store(true, std::memory_order_release);
    if (wake_now) queue_cv_.notify_one();
  } else {
    // Bounded admission: shed the request explicitly instead of
    // buffering without limit. The client retries with backoff.
    metrics_.Add(m_overloaded_, 1);
    front_end_->EnqueueError(conn, header.request_id, ErrorCode::kOverloaded,
                             "admission queue full (" +
                                 std::to_string(config_.max_queue_depth) +
                                 " pending) — retry later");
  }
}

void FannServer::OnPassEnd() {
  // Each admitting loop reaches its own pass end after setting the flag,
  // so the wake cannot be lost: either this loop takes the flag and
  // notifies, or another loop took it (after the item was queued) and
  // did. The notify follows the push, which happened under queue_mu_,
  // so a waiting executor cannot miss it.
  if (wake_pending_.exchange(false, std::memory_order_acq_rel)) {
    queue_cv_.notify_one();
  }
}

void FannServer::ExecutorMain() {
  SetThreadName("fannr-exec");
  while (true) {
    WorkItem first;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return !queue_.empty() || executor_stop_; });
      if (queue_.empty()) break;  // executor_stop_ with a drained queue
      first = std::move(queue_.front());
      queue_.pop_front();
      metrics_.Set(m_queue_depth_, static_cast<double>(queue_.size()));
    }
    if (config_.test_execution_gate) config_.test_execution_gate();

    // Pipelining amortization: run consecutive QUERY items admitted
    // under the same epoch (possibly from different connections)
    // through one engine Run. Only the queue front is ever taken, so
    // FIFO order — and therefore the epoch/update interleaving
    // semantics — is untouched. Per-job answers are bitwise-independent
    // of batch composition by the engine's determinism contract.
    std::vector<WorkItem> burst;
    burst.push_back(std::move(first));
    if (burst[0].opcode == Opcode::kQuery) {
      while (burst.size() < kMergeBudget) {
        WorkItem extra;
        {
          std::lock_guard<std::mutex> lock(queue_mu_);
          if (queue_.empty() || queue_.front().opcode != Opcode::kQuery ||
              queue_.front().admission_epoch != burst[0].admission_epoch) {
            break;
          }
          extra = std::move(queue_.front());
          queue_.pop_front();
          metrics_.Set(m_queue_depth_, static_cast<double>(queue_.size()));
        }
        // The gate contract — one entry per dequeued item — holds for
        // merged items too.
        if (config_.test_execution_gate) config_.test_execution_gate();
        burst.push_back(std::move(extra));
      }
    }

    // Read the stop flag after the gate(s), not at dequeue: Wait() arms
    // the drain timer before setting it, so when `stopping` is observed
    // the deadline check below is measuring the actual drain —
    // including for an item that was dequeued before the drain began.
    bool stopping = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stopping = executor_stop_;
    }
    std::vector<WorkItem*> live;
    live.reserve(burst.size());
    for (WorkItem& item : burst) {
      if (stopping && drain_timer_.Millis() > config_.drain_deadline_ms) {
        // Past the drain budget: answer, don't compute.
        aborted_items_.fetch_add(1, std::memory_order_relaxed);
        metrics_.Add(m_errors_, 1);
        front_end_->EnqueueError(item.conn, item.request_id,
                                 ErrorCode::kShuttingDown,
                                 "drain deadline exceeded — request aborted");
        continue;
      }
      live.push_back(&item);
    }
    if (!live.empty()) {
      if (burst[0].opcode == Opcode::kQuery) {
        ExecuteQueryBurst(live);
      } else {
        Execute(*live[0]);
      }
      if (stopping) {
        drained_items_.fetch_add(live.size(), std::memory_order_relaxed);
      }
    }
  }
}

void FannServer::Execute(WorkItem& item) {
  metrics_.Record(m_queue_wait_ms_, item.e2e_timer.Millis());
  switch (item.opcode) {
    case Opcode::kBatch:
      ExecuteBatch(item);
      metrics_.Record(m_e2e_batch_ms_, item.e2e_timer.Millis());
      break;
    case Opcode::kUpdateWeights:
    case Opcode::kReplApply:
      ExecuteUpdate(item);
      metrics_.Record(m_e2e_update_ms_, item.e2e_timer.Millis());
      break;
    case Opcode::kStats:
      ExecuteStats(item);
      break;
    case Opcode::kSubscribe:
      ExecuteSubscribe(item);
      metrics_.Record(m_e2e_query_ms_, item.e2e_timer.Millis());
      break;
    case Opcode::kUnsubscribe:
      ExecuteUnsubscribe(item);
      break;
    default:
      break;
  }
}

std::vector<WireResult> FannServer::SolveWire(std::span<const WireJob> jobs,
                                              std::string_view tag) {
  // Net-level screening (admission epoch, enum ranges, id validity,
  // deadlines spent queued) fills result slots directly; everything else
  // goes to the engine in one Run so in-process semantics — validation
  // reasons, epoch checks, fallbacks, tracing — apply verbatim.
  const GraphEpoch now = graph_->epoch();
  const size_t num_vertices = graph_->NumVertices();
  std::vector<WireResult> results(jobs.size());
  std::vector<std::unique_ptr<IndexedVertexSet>> sets;
  std::vector<FannrQuery> runnable;
  std::vector<size_t> runnable_slot;
  const Timer* last_stale = nullptr;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const WireJob& job = jobs[i];
    const WireQuery& wire = *job.query;
    if (job.admission_epoch != now) {
      // The jobs of one request share its clock: count the request once.
      if (job.clock != last_stale) metrics_.Add(m_stale_admission_, 1);
      last_stale = job.clock;
      results[i] = RejectedWire(MidBatchEpochError(job.admission_epoch, now));
      continue;
    }
    if (wire.algorithm > static_cast<uint8_t>(FannAlgorithm::kApxSum)) {
      results[i] = RejectedWire("unknown algorithm enumerator " +
                                std::to_string(wire.algorithm));
      continue;
    }
    if (wire.aggregate > static_cast<uint8_t>(Aggregate::kSum)) {
      results[i] = RejectedWire("unknown aggregate enumerator " +
                                std::to_string(wire.aggregate));
      continue;
    }
    // Any id violation becomes a kRejected result, never UB.
    std::string error;
    std::unique_ptr<IndexedVertexSet> p = IndexedVertexSet::TryCreate(
        num_vertices, std::vector<VertexId>(wire.p.begin(), wire.p.end()),
        &error);
    if (p == nullptr) {
      results[i] = RejectedWire("data point set P " + error);
      continue;
    }
    std::unique_ptr<IndexedVertexSet> q = IndexedVertexSet::TryCreate(
        num_vertices, std::vector<VertexId>(wire.q.begin(), wire.q.end()),
        &error);
    if (q == nullptr) {
      results[i] = RejectedWire("query point set Q " + error);
      continue;
    }
    FannrQuery run;
    const double deadline_ms = EffectiveDeadlineMs(
        wire.deadline_ms, job.batch_deadline_ms, config_.default_deadline_ms);
    if (deadline_ms > 0.0) {
      // End-to-end: the time already spent queued counts against the
      // deadline; the engine measures the rest from Run() entry.
      const double remaining = deadline_ms - job.clock->Millis();
      if (remaining <= 0.0) {
        results[i] = TimedOutWire("deadline of " +
                                  std::to_string(deadline_ms) +
                                  " ms exceeded in the admission queue");
        continue;
      }
      run.deadline_ms = remaining;
    }
    run.query.graph = graph_;
    run.query.data_points = p.get();
    run.query.query_points = q.get();
    run.query.phi = wire.phi;
    run.query.aggregate = static_cast<Aggregate>(wire.aggregate);
    // Weights point into the wire request, which outlives the engine Run
    // at every call site (the WorkItem for one-shot work, the
    // subscription table entry for re-evaluations). Value validation
    // (finite, > 0, |Q|-sized) is the engine's screening, so weighted
    // wire jobs reject with the same reasons in-process callers see.
    if (!wire.weights.empty()) run.query.weights = &wire.weights;
    run.algorithm = static_cast<FannAlgorithm>(wire.algorithm);
    sets.push_back(std::move(p));
    sets.push_back(std::move(q));
    runnable.push_back(run);
    runnable_slot.push_back(i);
  }
  if (!runnable.empty()) {
    const std::vector<FannResult> solved = engine_->Run(runnable, tag);
    for (size_t j = 0; j < solved.size(); ++j) {
      results[runnable_slot[j]] = ToWire(solved[j]);
    }
  }
  return results;
}

void FannServer::ExecuteQueryBurst(const std::vector<WorkItem*>& items) {
  wire_jobs_.clear();
  for (const WorkItem* item : items) {
    metrics_.Record(m_queue_wait_ms_, item->e2e_timer.Millis());
    wire_jobs_.push_back({&item->query.query, /*batch_deadline_ms=*/0.0,
                          &item->e2e_timer, item->admission_epoch});
  }
  std::vector<WireResult> results = SolveWire(wire_jobs_, {});

  // Answers are collected per connection (in request order within
  // each) and every connection is handed to its loop once.
  const GraphEpoch now = graph_->epoch();
  for (size_t i = 0; i < items.size(); ++i) {
    WorkItem& item = *items[i];
    QueryResponse response;
    response.graph_epoch = now;
    response.result = std::move(results[i]);
    AppendFrame(static_cast<uint16_t>(Opcode::kQueryResult), item.request_id,
                EncodeQueryResponse(response), outbox_.For(item.conn));
    metrics_.Record(m_e2e_query_ms_, item.e2e_timer.Millis());
  }
  outbox_.HandOver(*front_end_);
}

void FannServer::ExecuteBatch(WorkItem& item) {
  wire_jobs_.clear();
  for (const WireQuery& wire : item.batch.jobs) {
    wire_jobs_.push_back({&wire, item.batch.deadline_ms, &item.e2e_timer,
                          item.admission_epoch});
  }
  BatchResponse response;
  response.graph_epoch = graph_->epoch();
  response.results = SolveWire(wire_jobs_, {});
  front_end_->Enqueue(item.conn, Opcode::kBatchResult, item.request_id,
                      EncodeBatchResponse(response));
}

void FannServer::ExecuteUpdate(WorkItem& item) {
  const bool repl = item.opcode == Opcode::kReplApply;
  const std::vector<UpdateWeightsRequest::Entry>& entries =
      item.update.entries;
  UpdateWeightsResponse response;
  const GraphEpoch now = graph_->epoch();
  dynamic::UpdateBatch batch;
  for (const UpdateWeightsRequest::Entry& e : entries) {
    batch.SetWeight(e.u, e.v, e.weight);
  }
  // Screened before Apply: Apply aborts on invalid entries by contract,
  // and frames are untrusted input.
  std::string error = batch.ValidationError(*graph_);
  if (repl && item.repl_position != now) {
    // Out-of-position batch: applying it would fork this replica's
    // weight history from the others'. Refuse and report where we are;
    // the sender decides whether to rewind or catch us up.
    response.status = 2;
    response.new_epoch = now;
    response.error = "replication position " +
                     std::to_string(item.repl_position) +
                     " does not match graph epoch " + std::to_string(now);
  } else if (repl && entries.empty()) {
    // Pure position probe: confirm without touching the graph.
    response.old_epoch = now;
    response.new_epoch = now;
  } else if (!error.empty()) {
    response.status = 1;
    response.error = std::move(error);
  } else {
    // Safe to mutate: the executor is the only thread running queries,
    // so no reader can race this apply (Graph's contract).
    const dynamic::ApplyResult applied = batch.Apply(*graph_);
    response.applied = applied.applied;
    response.missing = applied.missing;
    response.old_epoch = applied.old_epoch;
    response.new_epoch = applied.new_epoch;
    if (config_.wal != nullptr) {
      dynamic::WalRecord record;
      record.position = applied.old_epoch;
      record.new_epoch = applied.new_epoch;
      record.entries.reserve(entries.size());
      for (const UpdateWeightsRequest::Entry& e : entries) {
        record.entries.push_back({e.u, e.v, e.weight});
      }
      // Durability failure is not an answer-path failure: the batch IS
      // applied; a lost record only costs replay depth after a crash.
      (void)config_.wal->Append(record);
    }
  }
  front_end_->Enqueue(item.conn,
                      repl ? Opcode::kReplApplyResult : Opcode::kUpdateResult,
                      item.request_id, EncodeUpdateWeightsResponse(response));
  // Standing queries re-solve against the new epoch after the updater's
  // ACK is already on its way out; replicated updates drive them exactly
  // like direct ones.
  if (response.status == 0 && response.new_epoch != response.old_epoch) {
    ReevaluateSubscriptions();
  }
}

void FannServer::ExecuteSubscribe(WorkItem& item) {
  // Judge limits against live connections only: a subscriber that
  // reconnects should not be blocked by its dead predecessor's slots.
  subs_->Reap([](const std::shared_ptr<void>& owner) {
    return static_cast<Connection*>(owner.get())
        ->open.load(std::memory_order_relaxed);
  });
  if ((config_.max_subscriptions_total != 0 &&
       subs_->size() >= config_.max_subscriptions_total) ||
      (config_.max_subscriptions_per_connection != 0 &&
       subs_->OwnerCount(item.conn.get()) >=
           config_.max_subscriptions_per_connection)) {
    metrics_.Add(m_overloaded_, 1);
    metrics_.Set(m_subs_active_, static_cast<double>(subs_->size()));
    front_end_->EnqueueError(
        item.conn, item.request_id, ErrorCode::kOverloaded,
        "subscription limit reached — unsubscribe or retry later");
    return;
  }
  if (subs_->Find(item.conn.get(), item.request_id) != nullptr) {
    metrics_.Add(m_errors_, 1);
    front_end_->EnqueueError(item.conn, item.request_id,
                             ErrorCode::kMalformedPayload,
                             "subscription id " +
                                 std::to_string(item.request_id) +
                                 " is already live on this connection");
    return;
  }

  // Initial answer, solved at the current epoch (a standing query has
  // no stale-admission contract — its whole point is to track epochs).
  SubscribeResponse response;
  response.graph_epoch = graph_->epoch();
  wire_jobs_.assign(1, {&item.subscribe.query, /*batch_deadline_ms=*/0.0,
                        &item.e2e_timer, response.graph_epoch});
  response.result =
      std::move(SolveWire(wire_jobs_, "subscription-initial").front());

  // Registration succeeds iff the initial answer is kOk, so the client
  // reads the outcome off the SUBSCRIBE_RESULT status alone: a rejected
  // or timed-out initial solve refuses the subscription outright rather
  // than standing up a query that can never push.
  if (response.result.status == static_cast<uint8_t>(QueryStatus::kOk)) {
    cont::Subscription sub;
    sub.id = item.request_id;
    sub.owner = item.conn;
    sub.query = std::move(item.subscribe.query);
    sub.force_push = item.subscribe.force_push != 0;
    sub.has_last = true;  // the initial answer counts as a delivery
    sub.last = response.result;
    sub.last_epoch = response.graph_epoch;
    const cont::SubscribeOutcome outcome = subs_->Add(std::move(sub));
    FANNR_CHECK(outcome == cont::SubscribeOutcome::kOk);
    metrics_.Set(m_subs_active_, static_cast<double>(subs_->size()));
  }
  front_end_->Enqueue(item.conn, Opcode::kSubscribeResult, item.request_id,
                      EncodeSubscribeResponse(response));
}

void FannServer::ExecuteUnsubscribe(WorkItem& item) {
  cont::Subscription removed;
  UnsubscribeResponse response;
  if (subs_->Remove(item.conn.get(), item.unsubscribe.subscription_id,
                    &removed)) {
    response.status = 0;
    response.pushes_sent = removed.pushes_sent;
  } else {
    response.status = 1;
  }
  metrics_.Set(m_subs_active_, static_cast<double>(subs_->size()));
  front_end_->Enqueue(item.conn, Opcode::kUnsubscribeResult, item.request_id,
                      EncodeUnsubscribeResponse(response));
}

void FannServer::ReevaluateSubscriptions() {
  // Connections close on their loops at any time; their subscriptions
  // die here, before the batch is assembled.
  subs_->Reap([](const std::shared_ptr<void>& owner) {
    return static_cast<Connection*>(owner.get())
        ->open.load(std::memory_order_relaxed);
  });
  metrics_.Set(m_subs_active_, static_cast<double>(subs_->size()));
  if (subs_->empty()) return;

  Timer push_timer;  // epoch bump (just happened) -> push enqueue
  const GraphEpoch now = graph_->epoch();
  std::vector<cont::Subscription>& all = subs_->subscriptions();

  // One merged engine Run over every live subscription: burst merging
  // and the shared distance cache amortize across subscribers exactly
  // as they do across pipelined one-shot queries. Composition cannot
  // change any answer (the engine's determinism contract), so a pushed
  // answer is bitwise what a lone solve at this epoch would produce.
  const Timer reeval_timer;  // deadlines (if configured) start here
  wire_jobs_.clear();
  for (const cont::Subscription& sub : all) {
    wire_jobs_.push_back(
        {&sub.query, /*batch_deadline_ms=*/0.0, &reeval_timer, now});
  }
  std::vector<WireResult> results =
      SolveWire(wire_jobs_, "subscription-reeval");

  for (size_t i = 0; i < all.size(); ++i) {
    cont::Subscription& sub = all[i];
    WireResult& result = results[i];
    // Delta semantics: an answer the client already has is not pushed
    // (work counters excluded from the comparison — identical answers
    // can cost different work at different epochs).
    if (!sub.force_push && sub.has_last &&
        SameVisibleAnswer(result, sub.last)) {
      ++sub.pushes_suppressed;
      metrics_.Add(m_pushes_suppressed_, 1);
      continue;
    }
    const auto conn = std::static_pointer_cast<Connection>(sub.owner);
    if (!PushFits(conn)) {
      // Conflated, not lost: delivery state stays put, so the next
      // re-evaluation sees the answer as still-undelivered and retries
      // once the backlog drains.
      ++sub.pushes_dropped_backpressure;
      metrics_.Add(m_pushes_dropped_, 1);
      continue;
    }
    PushAnswer push;
    push.graph_epoch = now;
    push.result = std::move(result);
    AppendFrame(static_cast<uint16_t>(Opcode::kPushAnswer), sub.id,
                EncodePushAnswer(push), outbox_.For(conn));
    // Every push is counted before the wave is handed to the loops: the
    // client may read it at once, and STATS must already include it.
    ++sub.pushes_sent;
    metrics_.Add(m_pushes_sent_, 1);
    metrics_.Record(m_push_latency_ms_, push_timer.Millis());
    sub.has_last = true;
    sub.last = std::move(push.result);
    sub.last_epoch = now;
  }
  // Subscriptions iterate in registration order, so each connection's
  // pushes leave in subscription order.
  outbox_.HandOver(*front_end_);
}

bool FannServer::PushFits(const std::shared_ptr<Connection>& conn) {
  if (!conn->open.load(std::memory_order_relaxed)) return false;
  // Same bound the read path enforces: a subscriber that stopped
  // reading gets its pushes conflated instead of an unbounded queue.
  // This wave's pushes still in the outbox count as backlog already.
  return FrontEnd::Backlog(*conn) + outbox_.Collected(*conn) <=
         config_.max_outbound_bytes;
}

void FannServer::ExecuteStats(WorkItem& item) {
  StatsResponse response;
  response.json = StatsJson();
  front_end_->Enqueue(item.conn, Opcode::kStatsResult, item.request_id,
                      EncodeStatsResponse(response));
}

std::string FannServer::StatsJson() const {
  const obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  const SourceDistanceCache::Stats cache = engine_->cache_stats();
  std::string out = "{\n  \"server\": {\n    \"counters\": {";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    out += std::string(i ? ", " : "") + "\"" +
           obs::internal_obs::JsonEscape(snapshot.counters[i].first) +
           "\": " + std::to_string(snapshot.counters[i].second);
  }
  out += "},\n    \"gauges\": {";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out += std::string(i ? ", " : "") + "\"" +
           obs::internal_obs::JsonEscape(snapshot.gauges[i].first) +
           "\": " + Num(snapshot.gauges[i].second);
  }
  out += "},\n    \"histograms\": {";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    out += std::string(i ? ", " : "") + "\"" +
           obs::internal_obs::JsonEscape(snapshot.histograms[i].first) +
           "\": " + HistogramStatsJson(snapshot.histograms[i].second);
  }
  out += "}\n  },\n";
  out += "  \"graph_epoch\": " + std::to_string(graph_->epoch()) + ",\n";
  out += "  \"draining\": " + std::string(draining() ? "true" : "false") +
         ",\n";
  out += "  \"cache\": {\"hits\": " + std::to_string(cache.hits) +
         ", \"misses\": " + std::to_string(cache.misses) +
         ", \"evictions\": " + std::to_string(cache.evictions) +
         ", \"epoch_evictions\": " + std::to_string(cache.epoch_evictions) +
         ", \"narrow_misses\": " + std::to_string(cache.narrow_misses) +
         ", \"bounded_rows\": " + std::to_string(cache.bounded_rows) +
         ", \"pruned_rows\": " + std::to_string(cache.pruned_rows) +
         "}\n}";
  return out;
}

DrainStats FannServer::Wait() {
  FANNR_CHECK(started_.load(std::memory_order_relaxed));
  // Park until a shutdown is requested. The eventfd is in blocking
  // mode and its counter survives until read, so a RequestShutdown
  // from before this call (or from a signal handler mid-read) is never
  // missed.
  uint64_t counter = 0;
  while (::read(drain_wake_fd_, &counter, sizeof(counter)) < 0 &&
         errno == EINTR) {
  }
  drain_timer_.Reset();

  // Drain order: finish (or abort) queued work first — every response
  // lands in a transmit queue — then tell the loops to flush those
  // queues and close. The loops keep serving reads during the drain;
  // new work frames are refused with SHUTTING_DOWN (OnFrame), so
  // the admission queue only shrinks.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    executor_stop_ = true;
  }
  queue_cv_.notify_all();
  executor_thread_.join();
  const double drain_ms = drain_timer_.Millis();

  front_end_->Stop();
  started_.store(false, std::memory_order_relaxed);

  DrainStats stats;
  stats.drain_ms = drain_ms;
  stats.drained_items = drained_items_.load(std::memory_order_relaxed);
  stats.aborted_items = aborted_items_.load(std::memory_order_relaxed);
  stats.within_deadline = drain_ms <= config_.drain_deadline_ms;
  stats.final_stats_json = StatsJson();
  return stats;
}

}  // namespace fannr::net
