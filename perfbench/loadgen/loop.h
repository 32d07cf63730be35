// The load generator's client side: one thread drives every connection
// of a run through a single ppoll(2) loop over nonblocking sockets.
// Query connections carry pipelined QUERY frames, one update connection
// carries UPDATE_WEIGHTS waves, and subscriber connections receive
// PUSH_ANSWER frames. Every request keeps its scheduled send time, its
// decoded answer and the epoch the answer was computed under, so the
// load generator can check each one bitwise afterwards.
//
// Failure accounting follows the serving contract: a stale-admission
// rejection is re-submitted once (the retry keeps the original due
// time); OVERLOADED, a second stale rejection, a timeout, any other
// rejection and a transport error each fail the request.

#ifndef PERFBENCH_LOOP_H_
#define PERFBENCH_LOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/iobuf.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "trace.h"

namespace perfbench {

namespace net = fannr::net;

enum class Role : uint8_t { kQuery, kUpdate, kSubscriber };

struct Request {
  uint32_t job = 0;
  uint8_t phase = 0;
  uint16_t conn = 0;
  bool resubmitted = false;
  bool done = false;
  bool ok = false;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  uint64_t epoch = 0;
  net::WireResult result;
};

struct Push {
  uint64_t subscription = 0;  ///< Server-side id (the SUBSCRIBE request id).
  int64_t at_ns = 0;
  uint64_t epoch = 0;
  net::WireResult result;
};

struct WaveRecord {
  uint32_t wave = 0;  ///< Index into the pre-generated waves.
  int64_t sent_ns = 0;
  int64_t ack_ns = 0;
  uint64_t new_epoch = 0;
  bool ok = false;
};

struct FailureCounts {
  size_t overloaded = 0;
  size_t stale_twice = 0;
  size_t timed_out = 0;
  size_t rejected = 0;  ///< Any other rejection of a generated query.
  size_t transport = 0;
};

class Loop {
 public:
  /// `jobs` is the pre-generated query list requests index into.
  Loop(const std::vector<net::WireQuery>& jobs, Tracer& tracer)
      : jobs_(jobs), tracer_(tracer) {}

  /// Opens one connection; returns its index or -1.
  int Connect(uint16_t port, Role role, std::string* error);

  /// Queues a QUERY for `job` on connection `conn`; `due_ns` is the
  /// scheduled send time latency is measured from. With `flush` false
  /// the frame leaves with the connection's next flush (the end of the
  /// poll round that queued it), so replacements for a round's answers
  /// share one write.
  uint32_t SendQuery(uint16_t conn, uint32_t job, uint8_t phase, int64_t due_ns,
                     bool flush = true);

  /// Queues one UPDATE_WEIGHTS wave on the update connection.
  void SendWave(uint32_t wave, const net::UpdateWeightsRequest& request);

  /// Synchronous round trip on `conn` (subscription set-up, STATS):
  /// other traffic keeps flowing meanwhile. False on transport failure,
  /// timeout, or an unexpected opcode.
  bool RoundTrip(uint16_t conn, net::Opcode op,
                 const std::vector<uint8_t>& payload, net::Opcode expect,
                 std::vector<uint8_t>* response, uint64_t* request_id,
                 double timeout_s = 60.0);

  /// One poll round: flush, wait up to `timeout_ns` for input, handle
  /// every complete frame.
  void PollOnce(int64_t timeout_ns);

  /// Polls until every request and wave is answered (or `timeout_s`).
  bool Drain(double timeout_s);

  /// Called for each finished query (ok or failed) and each push.
  std::function<void(uint32_t request)> on_done;
  std::function<void(const Push&)> on_push;

  size_t inflight_total() const;
  bool failed() const { return transport_failed_; }
  const std::string& failure() const { return failure_; }

  std::vector<Request>& requests() { return requests_; }
  const std::vector<Push>& pushes() const { return pushes_; }
  const std::vector<WaveRecord>& waves() const { return waves_; }
  const FailureCounts& failures() const { return failures_; }
  size_t stale_resubmits() const { return stale_resubmits_; }

 private:
  struct Conn {
    net::Socket sock;
    net::ByteQueue in;
    net::ByteQueue out;
    Role role = Role::kQuery;
    std::unordered_map<uint64_t, uint32_t> inflight;  ///< id -> request/wave
  };

  uint64_t Enqueue(Conn& conn, net::Opcode op,
                   const std::vector<uint8_t>& payload);
  void Flush(Conn& conn);
  void Fail(const std::string& why);
  void HandleFrame(uint16_t conn_index, const net::FrameHeader& header,
                   const std::vector<uint8_t>& payload);
  void FinishQuery(uint32_t index, bool ok);

  const std::vector<net::WireQuery>& jobs_;
  Tracer& tracer_;
  std::vector<Conn> conns_;
  std::vector<Request> requests_;
  std::vector<Push> pushes_;
  std::vector<WaveRecord> waves_;
  FailureCounts failures_;
  size_t stale_resubmits_ = 0;
  size_t waves_outstanding_ = 0;
  uint64_t next_id_ = 1;
  bool transport_failed_ = false;
  std::string failure_;

  // RoundTrip's pending answer.
  uint64_t sync_id_ = 0;
  bool sync_done_ = false;
  net::FrameHeader sync_header_;
  std::vector<uint8_t> sync_payload_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOOP_H_
