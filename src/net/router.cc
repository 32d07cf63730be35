#include "net/router.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/thread_name.h"
#include "common/timer.h"
#include "engine/batch_engine.h"
#include "fann/query.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fannr::net {

namespace {

/// Client connections served at once; more are shed with OVERLOADED.
constexpr size_t kMaxClientConnections = 1024;

/// How long Wait lets unanswered requests finish before closing.
constexpr double kDrainCapMs = 10'000.0;

/// Canonical total order over feasible answers: the exact solvers all
/// return the (distance, vertex id)-minimal answer within their P, so
/// the same comparison over the shard winners reproduces the
/// single-node answer bitwise. An infeasible answer (best ==
/// kInvalidVertex) loses to any feasible one.
bool AnswerBeats(const WireResult& a, const WireResult& b) {
  const bool a_feasible = a.best != 0xFFFFFFFFu;
  const bool b_feasible = b.best != 0xFFFFFFFFu;
  if (a_feasible != b_feasible) return a_feasible;
  if (!a_feasible) return false;  // both infeasible: equivalent
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.best < b.best;
}

}  // namespace

MergedAnswer MergeShardAnswers(const std::vector<ShardAnswer>& answers) {
  FANNR_CHECK(!answers.empty());
  MergedAnswer merged;

  // Severity scan, all selections by lowest shard id so that the merge
  // is a pure function of the answer *set*.
  const ShardAnswer* transport_failed = nullptr;
  const ShardAnswer* overloaded = nullptr;
  const ShardAnswer* other_error = nullptr;
  for (const ShardAnswer& a : answers) {
    if (!a.transport_ok) {
      if (transport_failed == nullptr || a.shard < transport_failed->shard) {
        transport_failed = &a;
      }
    } else if (a.is_error) {
      if (a.error_code == ErrorCode::kOverloaded) {
        if (overloaded == nullptr || a.shard < overloaded->shard) {
          overloaded = &a;
        }
      } else if (other_error == nullptr || a.shard < other_error->shard) {
        other_error = &a;
      }
    }
  }
  if (transport_failed != nullptr) {
    merged.is_error = true;
    merged.error_code = ErrorCode::kInternal;
    merged.error_message =
        "shard " + std::to_string(transport_failed->shard) +
        " unreachable: " + transport_failed->error_message;
    return merged;
  }
  if (overloaded != nullptr) {
    merged.is_error = true;
    merged.error_code = ErrorCode::kOverloaded;
    merged.error_message = overloaded->error_message;
    return merged;
  }
  if (other_error != nullptr) {
    merged.is_error = true;
    merged.error_code = other_error->error_code;
    merged.error_message = "shard " + std::to_string(other_error->shard) +
                           ": " + other_error->error_message;
    return merged;
  }

  uint64_t min_epoch = answers.front().graph_epoch;
  uint64_t max_epoch = answers.front().graph_epoch;
  for (const ShardAnswer& a : answers) {
    min_epoch = std::min(min_epoch, a.graph_epoch);
    max_epoch = std::max(max_epoch, a.graph_epoch);
  }
  merged.graph_epoch = max_epoch;
  merged.epochs_disagree = min_epoch != max_epoch;

  // Per-job status: a rejection or timeout anywhere poisons the job
  // (the winner could be hiding in the failed shard's P-subset).
  const ShardAnswer* rejected = nullptr;
  const ShardAnswer* timed_out = nullptr;
  for (const ShardAnswer& a : answers) {
    const auto status = static_cast<QueryStatus>(a.result.status);
    if (status == QueryStatus::kRejected) {
      if (rejected == nullptr || a.shard < rejected->shard) rejected = &a;
    } else if (status == QueryStatus::kTimedOut) {
      if (timed_out == nullptr || a.shard < timed_out->shard) timed_out = &a;
    }
  }
  if (rejected != nullptr) {
    merged.result = rejected->result;
    return merged;
  }
  if (timed_out != nullptr) {
    merged.result = timed_out->result;
    return merged;
  }

  // All ok: canonical minimum across the shard winners, work summed.
  const ShardAnswer* best = &answers.front();
  uint64_t gphi = 0;
  for (const ShardAnswer& a : answers) {
    gphi += a.result.gphi_evaluations;
    if (AnswerBeats(a.result, best->result)) best = &a;
  }
  merged.result = best->result;
  merged.result.gphi_evaluations = gphi;
  return merged;
}

/// Every client request cut in one loop pass, fanned out together as
/// one sub-batch per shard and answered as a unit.
struct FannRouter::Burst {
  explicit Burst(size_t num_shards)
      : sub(num_shards),
        slots(num_shards),
        answers(num_shards),
        replies(num_shards) {}

  struct Request {
    std::shared_ptr<Connection> client;
    uint64_t request_id = 0;
    bool is_query = false;
    size_t num_jobs = 0;
  };
  std::vector<Request> requests;
  /// Per shard: the sub-batch and, parallel to its jobs, the (request,
  /// job) each sub-job belongs to.
  std::vector<BatchRequest> sub;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> slots;
  /// Per shard: the batch-level outcome and the decoded reply.
  std::vector<ShardAnswer> answers;
  std::vector<BatchResponse> replies;
  size_t awaiting = 0;          ///< Sub-batches not yet answered.
  uint64_t admitted_epoch = 0;  ///< Fleet epoch when first dispatched.
  bool retried = false;
};

/// The loop's pipelined connection to one shard.
struct FannRouter::ShardLink {
  std::shared_ptr<Connection> conn;  ///< Null while down.
  bool dialing = false;              ///< The control thread is connecting.
  std::vector<std::shared_ptr<Burst>> parked;  ///< Waiting for the dial.
  /// Sent sub-batches by the request id they went out under.
  std::unordered_map<uint64_t, std::shared_ptr<Burst>> in_flight;
};

FannRouter::FannRouter(const ShardPlan& plan, RouterConfig config)
    : plan_(plan), config_(std::move(config)), links_(config_.shards.size()) {
  m_queries_ = metrics_.RegisterCounter("router.requests.query");
  m_batches_ = metrics_.RegisterCounter("router.requests.batch");
  m_updates_ = metrics_.RegisterCounter("router.requests.update");
  m_fanouts_ = metrics_.RegisterCounter("router.fanout.sub_batches");
  m_fanout_jobs_ = metrics_.RegisterCounter("router.fanout.jobs");
  m_retries_ = metrics_.RegisterCounter("router.fanout.epoch_retries");
  m_stale_rejections_ = metrics_.RegisterCounter("router.stale_rejections");
  m_catch_up_records_ = metrics_.RegisterCounter("router.catch_up.records");
  m_shard_errors_ = metrics_.RegisterCounter("router.shard_errors");
  m_errors_ = metrics_.RegisterCounter("router.responses.error");
  FrontEndCounters counters;
  counters.connections = metrics_.RegisterCounter("router.connections");
  counters.accept_errors = metrics_.RegisterCounter("router.accept_errors");
  counters.overloaded = metrics_.RegisterCounter("router.overloaded");
  counters.bad_frames = metrics_.RegisterCounter("router.bad_frames");
  counters.errors = m_errors_;

  FrontEndConfig front_end_config;
  front_end_config.host = config_.host;
  front_end_config.port = config_.port;
  front_end_config.num_loops = 1;
  front_end_config.max_connections = kMaxClientConnections;
  front_end_ = std::make_unique<FrontEnd>(std::move(front_end_config),
                                          static_cast<FrameHandler*>(this),
                                          &metrics_, counters);
}

FannRouter::~FannRouter() {
  RequestShutdown();
  Wait();
  if (drain_wake_fd_ >= 0) ::close(drain_wake_fd_);
}

bool FannRouter::Start(std::string* error) {
  auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = reason;
    return false;
  };
  if (config_.shards.size() != plan_.num_shards()) {
    return fail("router config lists " + std::to_string(config_.shards.size()) +
                " shards but the plan has " +
                std::to_string(plan_.num_shards()));
  }

  // Adopt the durable history: the fleet position is wherever the last
  // acknowledged update left it.
  if (config_.wal != nullptr) {
    history_ = config_.wal->records();
    repl_epoch_.store(config_.wal->end_epoch());
  }

  // Every shard must be reachable at start, and none may be ahead of
  // the history (an ahead shard means this router's history is stale —
  // serving through it would silently fork the epoch sequence).
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    repl_clients_.resize(config_.shards.size());
    for (size_t s = 0; s < config_.shards.size(); ++s) {
      std::string catch_up_error;
      if (!EnsureReplClientLocked(s)) {
        return fail("shard " + std::to_string(s) + " at " +
                    config_.shards[s].host + ":" +
                    std::to_string(config_.shards[s].port) + " is unreachable");
      }
      if (!CatchUpShardLocked(s, &catch_up_error)) {
        return fail("shard " + std::to_string(s) +
                    " could not be brought to epoch " +
                    std::to_string(repl_epoch_.load()) + ": " +
                    catch_up_error);
      }
    }
  }

  drain_wake_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (drain_wake_fd_ < 0) return fail("eventfd failed");
  std::string listen_error;
  if (!front_end_->Start(&listen_error)) {
    return fail("listen failed: " + listen_error);
  }
  control_thread_ = std::thread(&FannRouter::ControlMain, this);
  started_.store(true);
  return true;
}

void FannRouter::RequestShutdown() {
  draining_.store(true, std::memory_order_relaxed);
  // Async-signal-safe, like FannServer::RequestShutdown: eventfd writes
  // and relaxed stores only.
  const uint64_t one = 1;
  if (drain_wake_fd_ >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(drain_wake_fd_, &one, sizeof(one));
  }
  front_end_->StopAccepting();
}

void FannRouter::Wait() {
  if (!started_.load()) return;
  uint64_t counter = 0;
  while (::read(drain_wake_fd_, &counter, sizeof(counter)) < 0 &&
         errno == EINTR) {
  }
  // New work is refused from here on; let what is in flight answer
  // (bounded) before the close. Nothing here holds a lock the loop or
  // the control thread needs.
  const Timer drain;
  while (unanswered_.load() > 0 && drain.Millis() < kDrainCapMs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    control_stop_ = true;
  }
  control_cv_.notify_all();
  control_thread_.join();
  front_end_->Stop();
  started_.store(false);
}

void FannRouter::ControlMain() {
  SetThreadName("fannr-control");
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(control_mu_);
      control_cv_.wait(
          lock, [&] { return !control_tasks_.empty() || control_stop_; });
      if (control_tasks_.empty()) return;
      task = std::move(control_tasks_.front());
      control_tasks_.pop_front();
    }
    task();
  }
}

void FannRouter::RunOnControl(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    control_tasks_.push_back(std::move(task));
  }
  control_cv_.notify_one();
}

void FannRouter::ReplyError(const std::shared_ptr<Connection>& conn,
                            uint64_t request_id, ErrorCode code,
                            std::string message) {
  metrics_.Add(m_errors_, 1);
  front_end_->EnqueueError(conn, request_id, code, std::move(message));
}

void FannRouter::OnFrame(const std::shared_ptr<Connection>& conn,
                         FrameCut& cut) {
  if (conn->outbound) {
    for (uint32_t s = 0; s < links_.size(); ++s) {
      if (links_[s].conn == conn) OnShardReply(s, cut);
    }
    return;
  }
  if (front_end_->RejectEnvelope(conn, cut)) return;
  const uint64_t id = cut.header.request_id;
  const Opcode opcode = static_cast<Opcode>(cut.header.opcode);
  auto refuse_while_draining = [&] {
    if (!draining_.load(std::memory_order_relaxed)) return false;
    ReplyError(conn, id, ErrorCode::kShuttingDown,
               "router is draining — no new work accepted");
    return true;
  };

  switch (opcode) {
    case Opcode::kPing:
      front_end_->Enqueue(conn, Opcode::kPong, id, {});
      return;
    case Opcode::kStats: {
      StatsResponse stats;
      stats.json = StatsJson();
      front_end_->Enqueue(conn, Opcode::kStatsResult, id,
                          EncodeStatsResponse(stats));
      return;
    }
    case Opcode::kShutdown:
      front_end_->Enqueue(conn, Opcode::kShutdownAck, id, {});
      RequestShutdown();
      return;
    case Opcode::kQuery: {
      metrics_.Add(m_queries_, 1);
      QueryRequest request;
      if (!DecodeQueryRequest(cut.payload, request)) {
        ReplyError(conn, id, ErrorCode::kMalformedPayload,
                   "undecodable QUERY payload");
        return;
      }
      if (refuse_while_draining()) return;
      std::vector<WireQuery> jobs;
      jobs.push_back(std::move(request.query));
      AddRequest(conn, id, /*is_query=*/true, std::move(jobs));
      return;
    }
    case Opcode::kBatch: {
      metrics_.Add(m_batches_, 1);
      BatchRequest request;
      if (!DecodeBatchRequest(cut.payload, request)) {
        ReplyError(conn, id, ErrorCode::kMalformedPayload,
                   "undecodable BATCH payload");
        return;
      }
      if (refuse_while_draining()) return;
      if (request.jobs.empty()) {
        BatchResponse response;
        response.graph_epoch = repl_epoch_.load();
        front_end_->Enqueue(conn, Opcode::kBatchResult, id,
                            EncodeBatchResponse(response));
        return;
      }
      // Jobs of many requests share one sub-batch, so the batch-level
      // deadline moves into every job without a usable one of its own.
      for (WireQuery& job : request.jobs) {
        job.deadline_ms =
            EffectiveDeadlineMs(job.deadline_ms, request.deadline_ms, 0.0);
      }
      AddRequest(conn, id, /*is_query=*/false, std::move(request.jobs));
      return;
    }
    case Opcode::kUpdateWeights: {
      metrics_.Add(m_updates_, 1);
      UpdateWeightsRequest request;
      if (!DecodeUpdateWeightsRequest(cut.payload, request)) {
        ReplyError(conn, id, ErrorCode::kMalformedPayload,
                   "undecodable UPDATE_WEIGHTS payload");
        return;
      }
      if (refuse_while_draining()) return;
      // Per-connection order: frames behind the update are not cut until
      // it has answered (so they fan out at the new epoch), and the
      // update goes out only once the connection's earlier requests have
      // answered (so none of them is caught mid-update).
      front_end_->Hold(*conn);
      unanswered_.fetch_add(1);
      auto send = [this, conn, id, request = std::move(request)] {
        RunOnControl([this, conn, id, request] {
          UpdateWeightsResponse response;
          ErrorCode code = ErrorCode::kNone;
          std::string message;
          HandleUpdate(request, response, &code, &message);
          front_end_->Post([this, conn, id, response, code, message] {
            if (code != ErrorCode::kNone) {
              ReplyError(conn, id, code, message);
            } else {
              front_end_->Enqueue(conn, Opcode::kUpdateResult, id,
                                  EncodeUpdateWeightsResponse(response));
            }
            front_end_->Release(conn);
            unanswered_.fetch_sub(1);
          });
        });
      };
      auto it = clients_.find(conn.get());
      if (it == clients_.end()) {
        send();
      } else {
        it->second.held_update = std::move(send);
      }
      return;
    }
    case Opcode::kReplApply:
      // Replication is router -> shard; a client replicating through
      // the router would fork the epoch sequence.
      ReplyError(conn, id, ErrorCode::kUnknownOpcode,
                 "REPL_APPLY is not served by the router");
      return;
    default:
      ReplyError(conn, id, ErrorCode::kUnknownOpcode,
                 "opcode " + std::to_string(cut.header.opcode) +
                     " is not a request opcode");
      return;
  }
}

void FannRouter::AddRequest(const std::shared_ptr<Connection>& client,
                            uint64_t request_id, bool is_query,
                            std::vector<WireQuery> jobs) {
  if (open_burst_ == nullptr) {
    open_burst_ = std::make_shared<Burst>(links_.size());
  }
  Burst& burst = *open_burst_;
  const auto r = static_cast<uint32_t>(burst.requests.size());
  burst.requests.push_back({client, request_id, is_query, jobs.size()});
  auto add = [&](uint32_t shard, const WireQuery& job, uint32_t j,
                 std::vector<uint32_t> p) {
    WireQuery sub = job;
    sub.p = std::move(p);
    burst.sub[shard].jobs.push_back(std::move(sub));
    burst.slots[shard].emplace_back(r, j);
  };
  for (uint32_t j = 0; j < jobs.size(); ++j) {
    const WireQuery& job = jobs[j];
    // Jobs the plan cannot place — empty P or ids outside the graph —
    // pass through to shard 0 whole, so the client sees the identical
    // screening rejection a single server would produce. Every other
    // job sends its shard-owned P-slice to each shard owning part of P.
    const bool splittable =
        !job.p.empty() &&
        std::all_of(job.p.begin(), job.p.end(),
                    [&](uint32_t v) { return v < plan_.num_vertices(); });
    if (!splittable) {
      add(0, job, j, job.p);
      continue;
    }
    std::vector<std::vector<uint32_t>> parts = plan_.SplitByShard(job.p);
    for (uint32_t s = 0; s < parts.size(); ++s) {
      if (!parts[s].empty()) add(s, job, j, std::move(parts[s]));
    }
  }
  ++clients_[client.get()].fanouts;
  unanswered_.fetch_add(1);
}

void FannRouter::Answered(const std::shared_ptr<Connection>& client) {
  unanswered_.fetch_sub(1);
  auto it = clients_.find(client.get());
  if (--it->second.fanouts > 0) return;
  const std::function<void()> held_update = std::move(it->second.held_update);
  clients_.erase(it);
  if (held_update) held_update();
}

void FannRouter::OnPassEnd() {
  if (open_burst_ == nullptr) return;
  std::shared_ptr<Burst> burst = std::move(open_burst_);
  open_burst_.reset();
  burst->admitted_epoch = repl_epoch_.load();
  Dispatch(burst);
}

void FannRouter::Dispatch(const std::shared_ptr<Burst>& burst) {
  std::vector<uint32_t> targets;
  for (uint32_t s = 0; s < links_.size(); ++s) {
    burst->answers[s] = ShardAnswer{};
    burst->answers[s].shard = s;
    burst->replies[s] = BatchResponse{};
    if (!burst->sub[s].jobs.empty()) targets.push_back(s);
  }
  // Counted before any send: a failing link completes the burst at once.
  burst->awaiting = targets.size();
  for (const uint32_t s : targets) SendSubBatch(burst, s);
}

void FannRouter::SendSubBatch(const std::shared_ptr<Burst>& burst,
                              uint32_t shard) {
  ShardLink& link = links_[shard];
  if (link.conn == nullptr) {
    link.parked.push_back(burst);
    if (link.dialing) return;
    link.dialing = true;
    const ShardAddress address = config_.shards[shard];
    RunOnControl([this, shard, address] {
      std::string error;
      auto sock = std::make_shared<Socket>(
          TcpConnect(address.host, address.port, &error));
      front_end_->Post([this, shard, sock, error] {
        OnDialed(shard, std::move(*sock), error);
      });
    });
    return;
  }
  const uint64_t id = next_sub_batch_id_++;
  link.in_flight.emplace(id, burst);
  metrics_.Add(m_fanouts_, 1);
  metrics_.Add(m_fanout_jobs_, burst->sub[shard].jobs.size());
  front_end_->Enqueue(link.conn, Opcode::kBatch, id,
                      EncodeBatchRequest(burst->sub[shard]));
}

void FannRouter::OnDialed(uint32_t shard, Socket sock,
                          const std::string& error) {
  ShardLink& link = links_[shard];
  link.dialing = false;
  if (!sock.valid()) {
    FailLink(shard, error);
    return;
  }
  std::shared_ptr<Connection> conn = front_end_->Adopt(std::move(sock));
  if (!conn->open.load()) {
    FailLink(shard, "could not register the shard connection");
    return;
  }
  link.conn = std::move(conn);
  std::vector<std::shared_ptr<Burst>> parked;
  parked.swap(link.parked);
  for (const std::shared_ptr<Burst>& burst : parked) {
    SendSubBatch(burst, shard);
  }
}

void FannRouter::OnClose(const std::shared_ptr<Connection>& conn) {
  if (!conn->outbound) return;  // late answers to it are dropped unsent
  for (uint32_t s = 0; s < links_.size(); ++s) {
    if (links_[s].conn == conn) {
      FailLink(s, "connection closed while awaiting response");
    }
  }
}

void FannRouter::FailLink(uint32_t shard, const std::string& error) {
  ShardLink& link = links_[shard];
  link.conn.reset();
  std::vector<std::shared_ptr<Burst>> failed;
  failed.swap(link.parked);
  for (auto& [id, burst] : link.in_flight) failed.push_back(std::move(burst));
  link.in_flight.clear();
  for (const std::shared_ptr<Burst>& burst : failed) {
    burst->answers[shard].transport_ok = false;
    burst->answers[shard].error_message = error;
    if (--burst->awaiting == 0) Complete(burst);
  }
}

void FannRouter::OnShardReply(uint32_t shard, FrameCut& cut) {
  ShardLink& link = links_[shard];
  auto it = link.in_flight.find(cut.header.request_id);
  if (it == link.in_flight.end()) return;  // answers nothing outstanding
  const std::shared_ptr<Burst> burst = std::move(it->second);
  link.in_flight.erase(it);

  ShardAnswer& answer = burst->answers[shard];
  BatchResponse& reply = burst->replies[shard];
  answer.transport_ok = true;
  const Opcode opcode = static_cast<Opcode>(cut.header.opcode);
  if (opcode == Opcode::kError) {
    ErrorResponse err;
    if (DecodeErrorResponse(cut.payload, err)) {
      answer.is_error = true;
      answer.error_code = err.code;
      answer.error_message = std::move(err.message);
    } else {
      answer.transport_ok = false;
      answer.error_message = "undecodable error frame";
    }
  } else if (opcode != Opcode::kBatchResult ||
             !DecodeBatchResponse(cut.payload, reply) ||
             reply.results.size() != burst->sub[shard].jobs.size()) {
    answer.transport_ok = false;
    answer.error_message = "undecodable BATCH_RESULT payload";
  } else {
    answer.graph_epoch = reply.graph_epoch;
  }
  if (--burst->awaiting == 0) Complete(burst);
}

void FannRouter::Complete(const std::shared_ptr<Burst>& burst) {
  // Batch-level severity first: a transport failure or an error frame
  // (overload, drain) on any shard fails every request of the burst,
  // exactly as a single server fails a whole batch with one kError.
  std::vector<ShardAnswer> reached;
  for (uint32_t s = 0; s < links_.size(); ++s) {
    if (!burst->sub[s].jobs.empty()) reached.push_back(burst->answers[s]);
  }
  const MergedAnswer verdict = MergeShardAnswers(reached);
  if (verdict.is_error) {
    metrics_.Add(m_shard_errors_, 1);
    for (const Burst::Request& request : burst->requests) {
      ReplyError(request.client, request.request_id, verdict.error_code,
                 verdict.error_message);
      Answered(request.client);
    }
    return;
  }

  std::string stale_reason;
  if (verdict.epochs_disagree) {
    if (!burst->retried) {
      // A straggler replica (or an update racing the fan-out): bring
      // the fleet back in step off the loop, then re-issue the burst.
      burst->retried = true;
      metrics_.Add(m_retries_, 1);
      RunOnControl([this, burst] {
        SyncShards();
        front_end_->Post([this, burst] { Dispatch(burst); });
      });
      return;
    }
    // Still split after one sync: reject rather than return results
    // mixing weights from different epochs.
    metrics_.Add(m_stale_rejections_, 1);
    stale_reason = MidBatchEpochError(burst->admitted_epoch,
                                      verdict.graph_epoch);
  }

  // Per-job canonical merge.
  std::vector<std::vector<std::vector<ShardAnswer>>> per_job(
      burst->requests.size());
  for (size_t r = 0; r < burst->requests.size(); ++r) {
    per_job[r].resize(burst->requests[r].num_jobs);
  }
  for (uint32_t s = 0; s < links_.size(); ++s) {
    for (size_t i = 0; i < burst->slots[s].size(); ++i) {
      const auto [r, j] = burst->slots[s][i];
      ShardAnswer a;
      a.shard = s;
      a.transport_ok = true;
      a.graph_epoch = burst->replies[s].graph_epoch;
      a.result = std::move(burst->replies[s].results[i]);
      per_job[r][j].push_back(std::move(a));
    }
  }
  // Each client connection's answers are handed over once; Answered
  // follows the hand-over, so an UPDATE_WEIGHTS it releases goes out
  // behind the answers it waited for.
  for (size_t r = 0; r < burst->requests.size(); ++r) {
    const Burst::Request& request = burst->requests[r];
    std::vector<WireResult> results(request.num_jobs);
    for (size_t j = 0; j < results.size(); ++j) {
      results[j] = stale_reason.empty()
                       ? MergeShardAnswers(per_job[r][j]).result
                       : RejectedWire(stale_reason);
    }
    std::vector<uint8_t>& frames = outbox_.For(request.client);
    if (request.is_query) {
      QueryResponse response;
      response.graph_epoch = verdict.graph_epoch;
      response.result = std::move(results.front());
      AppendFrame(static_cast<uint16_t>(Opcode::kQueryResult),
                  request.request_id, EncodeQueryResponse(response), frames);
    } else {
      BatchResponse response;
      response.graph_epoch = verdict.graph_epoch;
      response.results = std::move(results);
      AppendFrame(static_cast<uint16_t>(Opcode::kBatchResult),
                  request.request_id, EncodeBatchResponse(response), frames);
    }
  }
  outbox_.HandOver(*front_end_);
  for (const Burst::Request& request : burst->requests) {
    Answered(request.client);
  }
}

bool FannRouter::EnsureReplClientLocked(size_t shard) {
  FannClient& client = repl_clients_[shard];
  if (client.connected()) return true;
  return client.Connect(config_.shards[shard].host,
                        config_.shards[shard].port);
}

bool FannRouter::CatchUpShardLocked(size_t shard, std::string* error) {
  auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = reason;
    metrics_.Add(m_shard_errors_, 1);
    return false;
  };
  if (!EnsureReplClientLocked(shard)) {
    return fail("unreachable");
  }
  FannClient& client = repl_clients_[shard];

  // An empty REPL_APPLY is a pure position probe: status 0 means the
  // shard is exactly at the fleet epoch, status 2 reports where it
  // actually is.
  ReplApplyRequest probe;
  probe.position = repl_epoch_.load();
  UpdateWeightsResponse response;
  if (!client.ReplApply(probe, response)) {
    client.Close();
    return fail("position probe failed: " + client.last_error());
  }
  if (response.status == 0) return true;
  if (response.status != 2) {
    return fail("position probe rejected: " + response.error);
  }
  const uint64_t shard_epoch = response.new_epoch;
  if (shard_epoch > repl_epoch_.load()) {
    return fail("replica is at epoch " + std::to_string(shard_epoch) +
                ", ahead of the router history (epoch " +
                std::to_string(repl_epoch_.load()) +
                ") — this router's WAL is stale");
  }

  // Replay the history tail from the replica's epoch forward. Records
  // below its epoch are already part of its past; everything at or
  // above replays in order and walks it to the fleet epoch.
  size_t replayed = 0;
  for (const dynamic::WalRecord& record : history_) {
    if (record.position < shard_epoch) continue;
    ReplApplyRequest apply;
    apply.position = record.position;
    apply.entries.reserve(record.entries.size());
    for (const dynamic::WalRecord::Entry& e : record.entries) {
      apply.entries.push_back({e.u, e.v, e.weight});
    }
    UpdateWeightsResponse applied;
    if (!client.ReplApply(apply, applied)) {
      client.Close();
      return fail("catch-up replay failed: " + client.last_error());
    }
    if (applied.status != 0) {
      return fail("catch-up replay of position " +
                  std::to_string(record.position) +
                  " rejected: " + applied.error);
    }
    ++replayed;
  }
  metrics_.Add(m_catch_up_records_, replayed);

  // The tail must have landed the replica on the fleet epoch.
  if (!client.ReplApply(probe, response)) {
    client.Close();
    return fail("post-replay probe failed: " + client.last_error());
  }
  if (response.status != 0) {
    return fail("replica still at epoch " + std::to_string(response.new_epoch) +
                " after replaying " + std::to_string(replayed) + " records");
  }
  return true;
}

void FannRouter::SyncShards() {
  std::lock_guard<std::mutex> lock(repl_mu_);
  for (size_t s = 0; s < config_.shards.size(); ++s) {
    std::string sync_error;
    (void)CatchUpShardLocked(s, &sync_error);  // unreachable shards wait
  }
}

void FannRouter::HandleUpdate(const UpdateWeightsRequest& request,
                              UpdateWeightsResponse& response,
                              ErrorCode* error_code,
                              std::string* error_message) {
  std::lock_guard<std::mutex> lock(repl_mu_);
  ReplApplyRequest repl;
  repl.position = repl_epoch_.load();
  repl.entries = request.entries;

  bool have_outcome = false;
  for (size_t s = 0; s < config_.shards.size(); ++s) {
    if (!EnsureReplClientLocked(s)) {
      metrics_.Add(m_shard_errors_, 1);
      continue;  // down replica: the history will catch it up later
    }
    FannClient& client = repl_clients_[s];
    UpdateWeightsResponse shard_response;
    if (!client.ReplApply(repl, shard_response)) {
      client.Close();
      metrics_.Add(m_shard_errors_, 1);
      continue;
    }
    if (shard_response.status == 2) {
      // Behind (it restarted): walk it to the fleet epoch, then retry.
      std::string catch_up_error;
      if (!CatchUpShardLocked(s, &catch_up_error) ||
          !client.ReplApply(repl, shard_response) ||
          shard_response.status == 2) {
        metrics_.Add(m_shard_errors_, 1);
        continue;
      }
    }
    if (shard_response.status == 1) {
      // Validation rejection is deterministic — every replica would
      // answer identically and nothing was applied anywhere.
      response = shard_response;
      return;
    }
    if (!have_outcome) {
      // Replicas apply the identical batch to the identical graph, so
      // the first applied response is authoritative for all.
      response = shard_response;
      have_outcome = true;
    }
  }

  if (!have_outcome) {
    *error_code = ErrorCode::kInternal;
    *error_message = "update reached no shard: all replicas unreachable";
    return;
  }

  dynamic::WalRecord record;
  record.position = repl.position;
  record.new_epoch = response.new_epoch;
  record.entries.reserve(request.entries.size());
  for (const UpdateWeightsRequest::Entry& e : request.entries) {
    record.entries.push_back({e.u, e.v, e.weight});
  }
  if (config_.wal != nullptr) (void)config_.wal->Append(record);
  history_.push_back(std::move(record));
  repl_epoch_.store(response.new_epoch);
}

std::string FannRouter::StatsJson() const {
  const obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  std::string out = "{\n  \"router\": {\n    \"counters\": {";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    out += std::string(i ? ", " : "") + "\"" +
           obs::internal_obs::JsonEscape(snapshot.counters[i].first) +
           "\": " + std::to_string(snapshot.counters[i].second);
  }
  out += "}\n  },\n";
  out += "  \"num_shards\": " + std::to_string(config_.shards.size()) + ",\n";
  out += "  \"repl_epoch\": " + std::to_string(repl_epoch_.load()) + ",\n";
  out += "  \"draining\": " +
         std::string(draining_.load() ? "true" : "false") +
         "\n}";
  return out;
}

}  // namespace fannr::net
