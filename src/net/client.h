// FannClient: a synchronous client for the FANN_R wire protocol.
//
// One connection, one outstanding request at a time: each call encodes
// a frame, writes it, and blocks for the matching response (request ids
// are checked, so a desynchronized stream surfaces as an error instead
// of a misattributed answer). Error frames (net/protocol.h ErrorCode)
// make the call return false with the code and message retained — the
// bench counts OVERLOADED shed through exactly this surface.
//
// Unsolicited frames: a connection with live subscriptions receives
// PUSH_ANSWER frames at the server's pace, interleaved arbitrarily with
// response frames. EVERY read path routes them — a push arriving while
// a synchronous call awaits its response is decoded and buffered (or
// handed to the push handler), never dropped — and TakePush/WaitPush
// drain the buffer. The buffer is bounded (kMaxBufferedPushes, oldest
// dropped first, pushes_dropped() counts); the server's own delta
// semantics make a dropped push recoverable at the next change.
//
// Thread-compatibility: a FannClient is not thread-safe; open one per
// thread (the throughput bench does).

#ifndef FANNR_NET_CLIENT_H_
#define FANNR_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"

namespace fannr::net {

/// One buffered PUSH_ANSWER: which subscription it answers plus the
/// epoch-stamped result.
struct ReceivedPush {
  uint64_t subscription_id = 0;
  PushAnswer answer;
};

class FannClient {
 public:
  /// Buffered-push bound; beyond it the oldest buffered push is dropped
  /// (counted). Suppression keeps real push rates far below this.
  static constexpr size_t kMaxBufferedPushes = 4096;

  FannClient() = default;

  /// Connects to a running FannServer. False (reason in last_error())
  /// on failure; the client may retry Connect.
  bool Connect(const std::string& host, uint16_t port);

  bool connected() const { return sock_.valid(); }
  void Close() { sock_.Close(); }

  /// Round-trips a PING.
  bool Ping();

  /// Runs one query; on true, `response` holds the result and the graph
  /// epoch it was computed under.
  bool Query(const WireQuery& query, QueryResponse& response);

  /// Runs a batch of queries in one frame (one engine Run server-side).
  bool Batch(const BatchRequest& request, BatchResponse& response);

  /// Applies edge-weight updates. True when the frame round-tripped and
  /// the server answered (response.status says whether it applied).
  bool UpdateWeights(const UpdateWeightsRequest& request,
                     UpdateWeightsResponse& response);

  /// Replicates an update batch at an exact graph epoch (router →
  /// shard). True when the frame round-tripped; response.status is 0
  /// (applied / position probe ok), 1 (rejected), or 2 (position
  /// mismatch, response.new_epoch = the replica's current epoch).
  bool ReplApply(const ReplApplyRequest& request,
                 UpdateWeightsResponse& response);

  /// Fetches the server's observability snapshot as JSON.
  bool Stats(std::string& json);

  /// Requests a graceful server drain; true once the ack arrives.
  bool Shutdown();

  // --- Subscriptions (continuous queries; see src/cont/) ---

  /// Registers a standing query. On true, `response` carries the
  /// initial answer and the epoch it was solved at, and
  /// `*subscription_id` the id future pushes (and Unsubscribe) use.
  /// Registration succeeded iff response.result.status == kOk.
  /// force_push disables server-side suppression of unchanged answers.
  bool Subscribe(const WireQuery& query, bool force_push,
                 uint64_t* subscription_id, SubscribeResponse& response);

  /// Cancels a subscription. On true, response.status is 0 (removed,
  /// response.pushes_sent = its lifetime push count) or 1 (unknown id).
  bool Unsubscribe(uint64_t subscription_id, UnsubscribeResponse& response);

  /// Pops the oldest buffered push; false when none is buffered. Never
  /// reads the socket.
  bool TakePush(ReceivedPush& push);

  /// Pops the oldest buffered push, blocking on the socket until one
  /// arrives. Only call while no request is outstanding: a response
  /// frame read while waiting has no requester and is skipped.
  bool WaitPush(ReceivedPush& push);

  /// When set, pushes are delivered to `handler` at the moment their
  /// frame is read (from inside whichever call read it) instead of
  /// being buffered; TakePush/WaitPush then never see them. Pass
  /// nullptr to return to buffering.
  void SetPushHandler(std::function<void(const ReceivedPush&)> handler) {
    push_handler_ = std::move(handler);
  }

  size_t buffered_pushes() const { return pushes_.size(); }
  /// Pushes discarded because the buffer was full (never resets).
  uint64_t pushes_dropped() const { return pushes_dropped_; }

  // --- Pipelined mode ---
  //
  // Send* writes a request frame WITHOUT waiting for its response, so
  // many requests can be in flight on the one connection; ReadAny then
  // collects responses in whatever order the server completes them.
  // The caller correlates by request_id — the server may answer out of
  // order (a PING overtakes queued work; work responses themselves
  // arrive FIFO per connection). Do not interleave pipelined calls with
  // the synchronous API above while responses are outstanding.

  /// Writes one QUERY frame; on true, `*request_id` identifies the
  /// eventual QUERY_RESULT (or error) frame.
  bool SendQuery(const WireQuery& query, uint64_t* request_id);

  /// Writes one BATCH frame.
  bool SendBatch(const BatchRequest& request, uint64_t* request_id);

  /// Writes one PING frame (answered inline by the server's event loop,
  /// ahead of queued work — a pipelined liveness probe).
  bool SendPing(uint64_t* request_id);

  /// Writes one SHUTDOWN frame.
  bool SendShutdown(uint64_t* request_id);

  /// Blocks for the next response frame of any request. Validates the
  /// envelope; a fatal envelope or EOF closes the socket and returns
  /// false. Error frames are returned (opcode kError in `header`), not
  /// converted to false — pipelined callers decode per id. PUSH_ANSWER
  /// frames are routed to the push buffer/handler, never returned.
  bool ReadAny(FrameHeader& header, std::vector<uint8_t>& payload);

  /// After a false return: the error code of the server's error frame
  /// (kNone for transport/decode failures) and a human-readable reason.
  ErrorCode last_error_code() const { return last_error_code_; }
  const std::string& last_error() const { return last_error_; }

 private:
  /// Writes one request frame and reads frames until the response with
  /// the matching id arrives. On success fills `payload` and returns
  /// true iff the response opcode equals `expect` (an error frame sets
  /// last_error_* and returns false). `request_id_out` (optional)
  /// reports the id the frame was sent under.
  bool RoundTrip(Opcode request, std::span<const uint8_t> request_payload,
                 Opcode expect, std::vector<uint8_t>& payload,
                 uint64_t* request_id_out = nullptr);

  /// Writes one request frame without reading anything back; assigns
  /// and reports the request id.
  bool SendFrame(Opcode request, std::span<const uint8_t> request_payload,
                 uint64_t* request_id);

  /// Reads exactly one validated frame (any opcode, pushes included).
  /// Shared by every read path; false closes the socket.
  bool ReadFrame(FrameHeader& header, std::vector<uint8_t>& payload);

  /// Routes one PUSH_ANSWER frame into the buffer or handler. False
  /// (socket closed) when the payload does not decode — a frame claiming
  /// the push opcode with a garbled body means the stream is untrustworthy.
  bool RoutePush(const FrameHeader& header,
                 const std::vector<uint8_t>& payload);

  bool Fail(std::string message);

  Socket sock_;
  uint64_t next_request_id_ = 1;
  ErrorCode last_error_code_ = ErrorCode::kNone;
  std::string last_error_;
  std::deque<ReceivedPush> pushes_;
  uint64_t pushes_dropped_ = 0;
  std::function<void(const ReceivedPush&)> push_handler_;
};

}  // namespace fannr::net

#endif  // FANNR_NET_CLIENT_H_
