// FrontEnd: the epoll event-loop front end shared by FannServer and
// FannRouter (DESIGN.md §2.12).
//
// A fixed pool of event loops owns every socket in nonblocking mode.
// Loop 0 also owns the listener: it accepts, places connections
// round-robin, and sheds those over max_connections with OVERLOADED.
// Bytes are cut into frames incrementally (net/iobuf.h), so clients may
// pipeline; each frame goes to the FrameHandler on its loop thread.
// Responses are appended to a per-connection transmit queue from any
// thread (one frame, or a writer's whole burst for that connection at
// once) and flushed as the kernel accepts them. A connection whose
// backlog exceeds max_outbound_bytes stops being read until it drains
// below half. Other threads reach a loop through its eventfd-woken
// mailbox; a writer wakes a loop only when its dirty list was empty, so
// a burst of answers costs the loop one wake. Outbound links (Adopt) are
// upstream connections the router makes to its shards: served by the
// same machinery, but exempt from max_connections and from read-side
// backpressure.

#ifndef FANNR_NET_FRONT_END_H_
#define FANNR_NET_FRONT_END_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/iobuf.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace fannr::net {

/// One connection, owned by exactly one event loop. Receive-side state
/// is touched only by that loop's thread; the transmit queue is shared
/// with every writer under out_mu (appended anywhere, flushed only by
/// the loop thread so socket writes never interleave).
struct Connection {
  Socket sock;
  size_t loop_index = 0;
  /// An adopted outbound link (never shed, never read-paused).
  bool outbound = false;
  std::atomic<bool> open{true};

  // Loop-thread-only.
  ByteQueue in;
  bool read_paused = false;  ///< Backpressure: EPOLLIN disarmed.
  bool held = false;         ///< FrontEnd::Hold: no frames cut until Release.
  bool registered = false;   ///< In the loop's epoll set and conns map.
  bool want_write = false;   ///< EPOLLOUT armed (transmit queue nonempty).

  // Shared with response writers.
  std::mutex out_mu;
  ByteQueue out;
};

/// What a server built on the front end does with its frames. Every
/// callback runs on the connection's loop thread.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  /// One complete frame cut from `conn`; see FrontEnd::RejectEnvelope.
  virtual void OnFrame(const std::shared_ptr<Connection>& conn,
                       FrameCut& cut) = 0;
  /// End of one loop pass, after every ready socket was read.
  virtual void OnPassEnd() {}
  /// `conn` was closed (peer EOF, error, poisoned stream or Stop).
  virtual void OnClose(const std::shared_ptr<Connection>& /*conn*/) {}
};

struct FrontEndConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = kernel-assigned (read back via port()).
  size_t num_loops = 1;
  size_t max_connections = 64;
  size_t max_outbound_bytes = 4u << 20;
};

/// Counters (in the owner's registry) the front end bumps.
struct FrontEndCounters {
  obs::CounterId connections, accept_errors, overloaded, bad_frames, errors;
};

class FrontEnd {
 public:
  /// `handler` and `metrics` must outlive the front end.
  FrontEnd(FrontEndConfig config, FrameHandler* handler,
           obs::MetricsRegistry* metrics, FrontEndCounters counters);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds, listens and spawns the loops; false + reason on failure.
  bool Start(std::string* error);
  uint16_t port() const { return port_; }
  size_t num_loops() const { return loops_.size(); }

  /// Stops accepting new connections; existing ones keep being served.
  /// Async-signal-safe (a relaxed store plus eventfd writes).
  void StopAccepting();

  /// Flushes transmit queues (bounded), closes every connection and
  /// joins the loops. Idempotent.
  void Stop();

  /// Queues one frame on `conn` from any thread; no-op once closed.
  void Enqueue(const std::shared_ptr<Connection>& conn, Opcode opcode,
               uint64_t request_id, std::span<const uint8_t> payload);
  /// Queues `frames` — whole frames, already encoded back to back — on
  /// `conn` from any thread, under one out_mu lock with one dirty-list
  /// entry and at most one loop wake; no-op once closed.
  void EnqueueEncoded(const std::shared_ptr<Connection>& conn,
                      std::span<const uint8_t> frames);
  void EnqueueError(const std::shared_ptr<Connection>& conn,
                    uint64_t request_id, ErrorCode code, std::string message);

  /// Bytes waiting in `conn`'s transmit queue.
  static size_t Backlog(Connection& conn);

  /// Answers a request frame whose version or opcode cannot be served
  /// (counted as an error) and returns true; false = servable.
  bool RejectEnvelope(const std::shared_ptr<Connection>& conn,
                      const FrameCut& cut);

  /// Registers a connected socket on loop 0 as an outbound link.
  std::shared_ptr<Connection> Adopt(Socket sock);

  /// Runs `task` on loop 0's thread at its next pass.
  void Post(std::function<void()> task);

  /// Loop thread only: stop cutting frames from `conn` (and reading it)
  /// until Release, which resumes with the bytes already buffered.
  void Hold(Connection& conn);
  void Release(const std::shared_ptr<Connection>& conn);

 private:
  struct Loop;

  void LoopMain(Loop& loop, size_t index);
  void AcceptReady(Loop& loop);
  void Register(Loop& loop, const std::shared_ptr<Connection>& conn);
  void Read(Loop& loop, const std::shared_ptr<Connection>& conn);
  /// Hands every buffered frame to the handler; false = stop reading.
  bool ParseAndDispatch(Loop& loop, const std::shared_ptr<Connection>& conn);
  void Flush(Loop& loop, const std::shared_ptr<Connection>& conn);
  void UpdateInterest(Loop& loop, Connection& conn);
  void Close(Loop& loop, const std::shared_ptr<Connection>& conn);
  /// Registers mailed-in connections, runs posted tasks, then
  /// alternates OnPassEnd and flushes until nothing is left to send.
  void ProcessMail(Loop& loop);
  void DrainAndClose(Loop& loop);
  /// Registers `conn` on its loop, through the mailbox off that thread.
  void Place(const std::shared_ptr<Connection>& conn);
  static void Wake(Loop& loop);
  static bool OnLoopThread(const Loop& loop);

  FrontEndConfig config_;
  FrameHandler* handler_;
  obs::MetricsRegistry* metrics_;
  FrontEndCounters counters_;

  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_accepting_{false};
  std::atomic<bool> stop_{false};
  /// Fixed at Start(); the vector itself is immutable afterwards, which
  /// is what lets StopAccepting walk it from a signal handler.
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<size_t> live_connections_{0};
  std::atomic<size_t> next_loop_{0};  ///< Round-robin placement.
};

/// Frames of one burst (a server's query burst or subscription wave, a
/// router's merged answers), collected per connection in first-frame
/// order so each connection is handed to the front end once
/// (FrontEnd::EnqueueEncoded). One thread only; the buffers keep their
/// capacity from burst to burst.
class Outbox {
 public:
  /// `conn`'s frame buffer in this burst (appended to in place). The
  /// last connection asked for is checked first: a client's requests are
  /// consecutive in a burst, so that lookup is O(1) per frame.
  std::vector<uint8_t>& For(const std::shared_ptr<Connection>& conn);
  /// Bytes collected for `conn` so far in this burst.
  size_t Collected(const Connection& conn) const;
  /// Hands every connection's frames to `front_end` and empties the
  /// outbox.
  void HandOver(FrontEnd& front_end);

 private:
  struct Entry {
    std::shared_ptr<Connection> conn;
    std::vector<uint8_t> frames;
  };
  std::vector<Entry> entries_;
  size_t used_ = 0;  ///< entries_[0, used_) belong to this burst.
};

}  // namespace fannr::net

#endif  // FANNR_NET_FRONT_END_H_
