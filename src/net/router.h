// FannRouter: the multi-node front door for sharded FANN_R serving.
//
// A deployment splits the object set P across N shard servers by the
// G-tree partitioner (net/shard_plan.h); every shard loads the full
// graph and answers FANN queries over its P-subset only. The router
// speaks the same FNRP wire protocol on both sides: clients connect to
// it exactly as they would to a single FannServer, and it fans each
// query out to the shards that own the query's P-candidates, merges the
// per-shard answers with the canonical (distance, vertex id) total
// order, and relays one response. Because every exact solver returns
// the canonical minimum within its P-subset, the min-merge over shards
// reproduces the single-node answer bitwise — the property the 2-shard
// differential test enforces.
//
// Weight updates are replicated, not broadcast: the router forwards
// each batch as REPL_APPLY positioned at the fleet's graph epoch, so
// every replica walks the identical epoch sequence. A replica that
// restarted (epoch behind) answers with a position mismatch instead of
// applying out of order; the router then replays its update history —
// durable in an UpdateWal — from the replica's epoch forward until the
// replica rejoins the fleet epoch. Queries detect stragglers the same
// way: shard answers carrying disagreeing epochs trigger one
// sync-and-retry, and a persistent disagreement is surfaced to the
// client as the engine's mid-batch epoch rejection rather than an
// answer silently mixing weights from different epochs.
//
// Threading: the router is a handler behind the epoll front end of
// net/front_end.h, with one loop that owns the client connections and
// one pipelined link per shard. Every QUERY and BATCH cut in one loop
// pass joins a *burst*, sent as one BATCH sub-batch per shard; the burst
// is the unit of failure and of the epoch sync-and-retry. Everything
// that blocks on a shard (replication, catch-up, syncs, dials) runs on
// one control thread. Frames behind an UPDATE_WEIGHTS wait for it, and
// it waits for the earlier requests of its connection (DESIGN.md §2.13).

#ifndef FANNR_NET_ROUTER_H_
#define FANNR_NET_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dynamic/wal.h"
#include "net/client.h"
#include "net/front_end.h"
#include "net/protocol.h"
#include "net/shard_plan.h"
#include "obs/metrics.h"

namespace fannr::net {

/// Where one shard server listens. Index i in RouterConfig::shards is
/// shard id i of the plan.
struct ShardAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct RouterConfig {
  std::string host = "127.0.0.1";
  /// Port to listen on; 0 lets the kernel pick (read back via port()).
  uint16_t port = 0;
  std::vector<ShardAddress> shards;
  /// Durable history of replicated update batches. Optional (nullptr =
  /// in-memory history only), but without it a router restart forgets
  /// the updates it replicated and cannot catch restarted replicas up.
  /// Non-owning; must outlive the router.
  dynamic::UpdateWal* wal = nullptr;
};

/// One shard's contribution to a fanned-out query, as the merge sees
/// it. `shard` is the plan's shard id, never an array position — the
/// merge is a function of the set, not the arrival order.
struct ShardAnswer {
  uint32_t shard = 0;
  bool transport_ok = false;  ///< Frame round-tripped and decoded.
  bool is_error = false;      ///< Shard answered with a kError frame.
  ErrorCode error_code = ErrorCode::kNone;
  std::string error_message;
  uint64_t graph_epoch = 0;  ///< Epoch the shard computed under.
  WireResult result;         ///< Valid when transport_ok && !is_error.
};

/// The routers's one merged reply for a fanned-out query.
struct MergedAnswer {
  /// True = answer with a kError frame (code + message below), the
  /// same surface a single FannServer uses for overload and faults.
  bool is_error = false;
  ErrorCode error_code = ErrorCode::kNone;
  std::string error_message;
  /// True when the per-shard answers were computed under different
  /// graph epochs — the result would mix weights, so the caller must
  /// sync + retry (and reject if the disagreement persists).
  bool epochs_disagree = false;
  uint64_t graph_epoch = 0;  ///< Max epoch seen across answers.
  WireResult result;
};

/// Merges per-shard answers of one FANN query whose P was partitioned
/// across the answering shards. Deterministic and order-independent:
/// permuting `answers` never changes the outcome (every selection is by
/// canonical (distance, vertex id) order or lowest shard id).
///
/// Priority, most severe first: any transport failure -> kInternal
/// error; any shard OVERLOADED -> kOverloaded (retryable, so it beats
/// other shard errors); any other shard error -> relayed from the
/// lowest shard id; otherwise epoch disagreement is flagged; then a
/// rejected / timed-out per-job status is relayed (lowest shard id);
/// all-ok merges by canonical order with gphi_evaluations summed.
MergedAnswer MergeShardAnswers(const std::vector<ShardAnswer>& answers);

class FannRouter : private FrameHandler {
 public:
  /// `plan.num_shards()` must equal `config.shards.size()`.
  FannRouter(const ShardPlan& plan, RouterConfig config);
  ~FannRouter();

  FannRouter(const FannRouter&) = delete;
  FannRouter& operator=(const FannRouter&) = delete;

  /// Connects to every shard, catches stragglers up to the history's
  /// end epoch (replaying the WAL tail when a replica restarted), and
  /// starts accepting clients. False + reason on any failure — all
  /// shards must be reachable at start.
  bool Start(std::string* error);

  /// Begins shutdown: stops accepting and refuses new work with
  /// SHUTTING_DOWN. Async-signal-safe. Shards are NOT shut down — they
  /// belong to the operator.
  void RequestShutdown();

  /// Blocks until a shutdown is requested, lets unanswered requests
  /// finish (bounded), then closes every connection and joins the loop
  /// and the control thread. Returns at once when not started.
  void Wait();

  uint16_t port() const { return front_end_->port(); }

  /// The fleet's replication position: the epoch every in-sync replica
  /// is at.
  uint64_t repl_epoch() const { return repl_epoch_.load(); }

  /// Router observability snapshot (counters + replication position).
  std::string StatsJson() const;

 private:
  struct Burst;
  struct ShardLink;

  // --- Event loop (FrameHandler) ---
  void OnFrame(const std::shared_ptr<Connection>& conn,
               FrameCut& cut) override;
  /// Sends the burst built during this pass.
  void OnPassEnd() override;
  /// A closed shard link fails every sub-batch in flight on it.
  void OnClose(const std::shared_ptr<Connection>& conn) override;

  /// Appends one client request's jobs to the open burst.
  void AddRequest(const std::shared_ptr<Connection>& client,
                  uint64_t request_id, bool is_query,
                  std::vector<WireQuery> jobs);
  /// Sends (or re-sends) every sub-batch of `burst`.
  void Dispatch(const std::shared_ptr<Burst>& burst);
  /// Sends shard `shard`'s sub-batch, or parks it until the link is up.
  void SendSubBatch(const std::shared_ptr<Burst>& burst, uint32_t shard);
  /// The control thread's dial of `shard` finished.
  void OnDialed(uint32_t shard, Socket sock, const std::string& error);
  void OnShardReply(uint32_t shard, FrameCut& cut);
  /// Fails every sub-batch parked on or in flight over `shard`'s link.
  void FailLink(uint32_t shard, const std::string& error);
  /// Counts one answered fan-out of `client`; its last one lets a held
  /// UPDATE_WEIGHTS go out.
  void Answered(const std::shared_ptr<Connection>& client);
  /// Once every shard of `burst` has answered: merges and answers its
  /// client requests (or syncs the fleet and re-issues it once on epoch
  /// disagreement).
  void Complete(const std::shared_ptr<Burst>& burst);

  void ReplyError(const std::shared_ptr<Connection>& conn,
                  uint64_t request_id, ErrorCode code, std::string message);

  // --- Control thread ---
  void ControlMain();
  void RunOnControl(std::function<void()> task);

  /// Replicates one update batch to every shard (REPL_APPLY at the
  /// current fleet epoch), appends it to the durable history, and
  /// advances the fleet epoch. Unreachable shards are skipped — they
  /// catch up from the history when they return.
  void HandleUpdate(const UpdateWeightsRequest& request,
                    UpdateWeightsResponse& response, ErrorCode* error_code,
                    std::string* error_message);

  /// Brings every reachable shard to repl_epoch_. Used by the query
  /// path when shard answers disagree.
  void SyncShards();

  // All Locked methods require repl_mu_.
  bool EnsureReplClientLocked(size_t shard);
  bool CatchUpShardLocked(size_t shard, std::string* error);

  const ShardPlan& plan_;
  RouterConfig config_;

  /// Blocking eventfd RequestShutdown writes and Wait() reads.
  int drain_wake_fd_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  /// Client requests (fan-outs and updates) not yet answered. Written on
  /// the loop, read by Wait to let the drain finish them.
  std::atomic<size_t> unanswered_{0};

  // Loop-thread-only fan-out state.
  std::vector<ShardLink> links_;
  /// Per client connection with fan-outs unanswered: their count, and
  /// the UPDATE_WEIGHTS send waiting for it to reach zero.
  struct ClientState {
    size_t fanouts = 0;
    std::function<void()> held_update;
  };
  std::unordered_map<const Connection*, ClientState> clients_;
  std::shared_ptr<Burst> open_burst_;
  uint64_t next_sub_batch_id_ = 1;
  Outbox outbox_;  ///< A completed burst's answers, per client.

  std::mutex control_mu_;
  std::condition_variable control_cv_;
  std::deque<std::function<void()>> control_tasks_;
  bool control_stop_ = false;

  /// Replication state: one shared client per shard plus the ordered
  /// history of every replicated batch, all under repl_mu_.
  std::mutex repl_mu_;
  std::vector<FannClient> repl_clients_;
  std::vector<dynamic::WalRecord> history_;
  std::atomic<uint64_t> repl_epoch_{0};

  mutable obs::MetricsRegistry metrics_{1};
  obs::CounterId m_queries_;
  obs::CounterId m_batches_;
  obs::CounterId m_updates_;
  obs::CounterId m_fanouts_;
  obs::CounterId m_fanout_jobs_;
  obs::CounterId m_retries_;
  obs::CounterId m_stale_rejections_;
  obs::CounterId m_catch_up_records_;
  obs::CounterId m_shard_errors_;
  obs::CounterId m_errors_;

  std::thread control_thread_;
  /// Declared last: destroyed first, while everything its loop calls
  /// back into is still alive.
  std::unique_ptr<FrontEnd> front_end_;
};

}  // namespace fannr::net

#endif  // FANNR_NET_ROUTER_H_
