// FannServer: the FANN_R query engine behind a TCP socket.
//
// A production deployment answers streams of queries arriving over time
// from many clients, interleaved with live weight updates — the setting
// the epoch machinery of src/dynamic/ exists for. The server speaks the
// length-prefixed binary protocol of net/protocol.h and is structured as
// two thread roles:
//
//   * the epoll event loops of net/front_end.h (num_io_threads,
//     default 1; threads named fannr-loop<i>), which own every socket
//     and cut pipelined frames: responses are tagged by request_id and
//     may complete out of order (a PING answered inline can overtake a
//     queued QUERY's response; work responses themselves stay FIFO per
//     connection because one executor drains the queue in order).
//     Backpressure and connection shedding are the front end's;
//   * one executor thread (fannr-exec), which drains the admission
//     queue FIFO and is the only thread that touches the
//     BatchQueryEngine or applies weight updates. This serialization is
//     load-bearing: the Graph contract forbids ApplyWeightUpdates racing
//     readers, and Run() must not be called concurrently. Queries never
//     see torn weights by construction, and every response reports the
//     epoch it was computed under. Runs of consecutive QUERY items
//     admitted under the same epoch (up to 64, across connections)
//     are executed through ONE engine Run so pipelined small queries
//     amortize dispatch — per-job results are bitwise-independent of
//     batch composition (the engine's determinism contract), so
//     merging never changes an answer.
//     The executor is the engine's worker 0: an engine of N workers
//     runs its jobs on the executor plus N - 1 pool threads
//     (fannr-pool<i>), woken only for a burst of more than one job.
//
// Who wakes whom, once per batch of work rather than per frame:
//
//   * loop -> executor: a loop admits frames without waking anyone and
//     notifies the executor once at the end of its pass (OnPassEnd) if
//     the pass admitted anything; with several loops, whichever pass end
//     sees the pending flag first delivers the wake, so none is lost.
//     A pass that queues a full burst (64 items, or max_queue_depth
//     if smaller) also notifies at once, so a long pass over one
//     pipelining client is drained while it reads instead of filling
//     the queue and shedding the rest of the write;
//   * executor -> pool: one wake per engine Run of more than one job
//     (ThreadPool::ParallelFor), none for a one-worker engine;
//   * executor -> loop: a burst's answers (and a subscription wave's
//     pushes) are collected in one buffer per connection (Outbox, in
//     net/front_end.h) and handed over once per connection, and a
//     loop's eventfd is written only when its dirty list was empty.
//
// Every wire job reaches the engine through one path, SolveWire: a
// QUERY burst, a BATCH, a SUBSCRIBE's initial answer and a
// subscription wave are screened alike (stale admission, enumerators,
// vertex ids, deadlines spent queued) and answer with the same status
// and error text.
//
// Admission into the bounded queue happens on the event-loop thread as
// frames decode; a full queue is answered with OVERLOADED (the server
// sheds load explicitly instead of buffering without limit).
//
// Admission epochs: a QUERY/BATCH item records the graph epoch at
// enqueue. If an UPDATE_WEIGHTS lands in between (FIFO order), the item
// is rejected with the engine's canonical mid-batch reason instead of
// being silently answered under weights the client never observed at
// admission — the same re-submit contract in-process callers get.
//
// Deadlines are end-to-end: a request's deadline_ms counts from
// admission, queue wait is subtracted before the engine runs, and
// expiry anywhere along the path yields QueryStatus::kTimedOut.
//
// Graceful drain (SIGTERM via RequestShutdown, or a SHUTDOWN frame):
// stop accepting connections, refuse new work frames (SHUTTING_DOWN),
// finish queued work until the drain deadline (aborting the remainder),
// flush responses, close connections, and expose the final
// observability snapshot in the DrainStats.

#ifndef FANNR_NET_SERVER_H_
#define FANNR_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "engine/batch_engine.h"
#include "net/front_end.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace fannr::cont {
class SubscriptionTable;
}  // namespace fannr::cont

namespace fannr::dynamic {
class UpdateWal;
}  // namespace fannr::dynamic

namespace fannr::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = kernel assigns an ephemeral port (read it back via port()).
  uint16_t port = 0;

  /// Event-loop threads. One loop comfortably serves hundreds of
  /// connections (the engine, not I/O, is the bottleneck); raise only
  /// when profiles show the loop saturated.
  size_t num_io_threads = 1;

  /// Connections beyond this are answered with OVERLOADED and closed.
  size_t max_connections = 64;

  /// Bounded admission queue: work frames arriving while `queue_depth`
  /// items are pending are answered with OVERLOADED instead of buffered.
  size_t max_queue_depth = 128;

  /// Write-side backpressure: a connection whose un-flushed transmit
  /// backlog exceeds this stops being read until it drains below half.
  size_t max_outbound_bytes = 4u << 20;

  /// Standing-subscription bounds (see src/cont/subscription.h): a
  /// SUBSCRIBE past either limit is answered OVERLOADED instead of
  /// registered, so subscribers cannot grow executor-side state without
  /// limit. 0 = that limit disabled.
  size_t max_subscriptions_per_connection = 8;
  size_t max_subscriptions_total = 1024;

  /// Default end-to-end deadline for work items without their own
  /// (<= 0 = none). Counted from admission into the queue.
  double default_deadline_ms = 0.0;

  /// Wall-clock budget for finishing queued work during drain; items
  /// still queued past it are answered with SHUTTING_DOWN.
  double drain_deadline_ms = 10'000.0;

  /// Engine configuration (worker threads, g_phi oracle, cache sizing,
  /// metrics). The server forces enable_metrics on so STATS and the
  /// slow-query log always work.
  BatchOptions engine_options;

  /// Optional durability: when set, every applied update batch
  /// (UPDATE_WEIGHTS and REPL_APPLY alike) is appended — with its epoch
  /// position — before the response is sent, so a restarted server
  /// replays its way back to the epoch it crashed at. Not owned; must
  /// outlive the server. Only the executor thread touches it.
  dynamic::UpdateWal* wal = nullptr;

  /// Test-only: invoked by the executor thread before processing each
  /// dequeued item (including each item merged into a query burst).
  /// Lets tests hold the executor to fill the admission queue
  /// deterministically. Leave empty in production.
  std::function<void()> test_execution_gate;
};

/// Final accounting of a graceful drain, returned by Wait().
struct DrainStats {
  double drain_ms = 0.0;      ///< RequestShutdown to fully drained.
  size_t drained_items = 0;   ///< Queued items executed during drain.
  size_t aborted_items = 0;   ///< Queued items past the drain deadline.
  bool within_deadline = false;
  std::string final_stats_json;  ///< Last observability snapshot.
};

/// The server. Construct, Start(), then Wait() (blocks until a shutdown
/// is requested and the drain completes). `graph` is mutated by
/// UPDATE_WEIGHTS frames and must outlive the server, as must every
/// index inside `resources` (resources.graph must equal `graph`).
class FannServer : private FrameHandler {
 public:
  FannServer(Graph* graph, const GphiResources& resources,
             ServerConfig config);
  ~FannServer();

  FannServer(const FannServer&) = delete;
  FannServer& operator=(const FannServer&) = delete;

  /// Binds, listens, and spawns the event-loop + executor threads.
  /// False (with a reason) on socket errors; the server is then inert.
  bool Start(std::string* error);

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return front_end_->port(); }

  /// Initiates graceful drain. Async-signal-safe (eventfd writes plus a
  /// relaxed atomic store) — call it straight from a SIGTERM handler.
  /// Idempotent.
  void RequestShutdown();

  /// Blocks until a shutdown is requested and the drain completes,
  /// joins every thread, and returns the drain accounting. Call at most
  /// once, after Start().
  DrainStats Wait();

  /// True once a shutdown has been requested.
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Current observability snapshot (server registry + engine) as JSON.
  /// Safe to call from any thread; counters may be mid-update while
  /// traffic flows (exact once quiesced).
  std::string StatsJson() const;

  /// Threads serving connections — the fixed event-loop pool, sized at
  /// Start() and independent of connection count or churn
  /// (tests/net_server_test.cc asserts the bound under churn).
  size_t tracked_connection_threads() const;

  /// The underlying engine (test/bench access; do not call Run on it
  /// while the server is serving).
  BatchQueryEngine& engine() { return *engine_; }

  /// Server-side registry: per-opcode request counters, queue depth
  /// gauge, end-to-end latency histograms.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct WorkItem;

  /// One wire job on its way to the engine: the query as it came off
  /// the wire, the default deadline of its batch, the clock its deadline
  /// counts from and the graph epoch it was admitted at.
  struct WireJob {
    const WireQuery* query = nullptr;
    double batch_deadline_ms = 0.0;
    const Timer* clock = nullptr;
    GraphEpoch admission_epoch = 0;
  };

  // --- Event-loop side (FrameHandler; runs on the loop threads) ---
  void OnFrame(const std::shared_ptr<Connection>& conn,
               FrameCut& cut) override;
  /// Wakes the executor once per loop pass that admitted work.
  void OnPassEnd() override;

  // --- Executor side ---
  void ExecutorMain();
  void Execute(WorkItem& item);
  /// Executes a run of same-epoch QUERY items through one engine Run
  /// and scatters per-item QUERY_RESULT responses.
  void ExecuteQueryBurst(const std::vector<WorkItem*>& items);
  void ExecuteBatch(WorkItem& item);
  /// The one path from the wire to the engine, shared by QUERY bursts,
  /// BATCH, SUBSCRIBE and subscription re-evaluation. Screens every job
  /// (stale admission, unknown enumerators, invalid vertex sets, a
  /// deadline already spent), solves the survivors in one engine Run
  /// tagged `tag`, and returns every answer in job order; screened-out
  /// jobs carry their rejection or timeout in place.
  std::vector<WireResult> SolveWire(std::span<const WireJob> jobs,
                                    std::string_view tag);
  /// Applies an UPDATE_WEIGHTS or REPL_APPLY batch. A REPL_APPLY
  /// applies only when the graph is exactly at its position (status 2
  /// otherwise), which keeps every replica walking the same epoch
  /// sequence, and one without entries is a pure position probe.
  void ExecuteUpdate(WorkItem& item);
  void ExecuteStats(WorkItem& item);
  /// Registers a standing query (opcode kSubscribe): screens it, solves
  /// the initial answer, and registers iff that answer is kOk. The
  /// SUBSCRIBE frame's request_id becomes the subscription id.
  void ExecuteSubscribe(WorkItem& item);
  void ExecuteUnsubscribe(WorkItem& item);
  /// Re-solves every live subscription against the current (just
  /// bumped) graph epoch through one tagged engine Run, then pushes the
  /// answers that visibly changed (or all of them, for force_push
  /// subscriptions). Called by the executor right after an applied
  /// weight update, so pushes are solved at exactly the epoch they are
  /// stamped with.
  void ReevaluateSubscriptions();
  /// Whether a re-evaluated answer may be pushed to `conn`: false when
  /// the connection is closed or its transmit backlog, counting the
  /// pushes already collected for it in this wave, exceeds
  /// max_outbound_bytes — then the push is dropped (conflated: delivery
  /// state does not advance, so the next re-evaluation retries).
  bool PushFits(const std::shared_ptr<Connection>& conn);

  Graph* graph_;
  GphiResources resources_;
  ServerConfig config_;
  std::unique_ptr<BatchQueryEngine> engine_;
  /// Live standing queries. Executor-thread-only, like the engine.
  std::unique_ptr<cont::SubscriptionTable> subs_;

  /// Blocking eventfd RequestShutdown writes and Wait() reads: a wake
  /// can never be silently dropped the way a full pipe drops writes
  /// (the counter stays readable until consumed), and writing it stays
  /// async-signal-safe.
  int drain_wake_fd_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  std::thread executor_thread_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  bool executor_stop_ = false;  // set once drain wants the executor out
  /// Work was admitted since the executor was last woken; the pass end
  /// of whichever loop sees it first delivers the wake.
  std::atomic<bool> wake_pending_{false};
  // Executor thread only: the jobs SolveWire is handed and the answers
  // of a burst or wave, both reused from one to the next.
  std::vector<WireJob> wire_jobs_;
  Outbox outbox_;

  // Drain accounting (written by Wait/executor, read by Wait).
  Timer drain_timer_;
  std::atomic<size_t> drained_items_{0};
  std::atomic<size_t> aborted_items_{0};

  // Server registry (single shard: event-loop threads contend only on
  // relaxed atomics, never a lock).
  obs::MetricsRegistry metrics_{1};
  obs::CounterId m_req_query_, m_req_batch_, m_req_update_, m_req_stats_,
      m_req_ping_, m_req_shutdown_, m_req_repl_, m_errors_, m_overloaded_,
      m_stale_admission_, m_req_subscribe_, m_req_unsubscribe_,
      m_pushes_sent_, m_pushes_suppressed_, m_pushes_dropped_;
  obs::GaugeId m_queue_depth_, m_subs_active_;
  obs::HistogramId m_e2e_query_ms_, m_e2e_batch_ms_, m_e2e_update_ms_,
      m_queue_wait_ms_, m_push_latency_ms_;

  /// Declared last: destroyed first, while everything its loops call
  /// back into is still alive.
  std::unique_ptr<FrontEnd> front_end_;
};

}  // namespace fannr::net

#endif  // FANNR_NET_SERVER_H_
