#include "loop.h"

#include <poll.h>

#include <cerrno>
#include <ctime>

#include "fann/query.h"

namespace perfbench {

using fannr::QueryStatus;

int Loop::Connect(uint16_t port, Role role, std::string* error) {
  Conn conn;
  conn.sock = net::TcpConnect("127.0.0.1", port, error);
  if (!conn.sock.valid() || !conn.sock.SetNonBlocking()) {
    if (error->empty()) *error = "cannot make the socket nonblocking";
    return -1;
  }
  conn.role = role;
  conns_.push_back(std::move(conn));
  return static_cast<int>(conns_.size() - 1);
}

uint64_t Loop::Enqueue(Conn& conn, net::Opcode op,
                       const std::vector<uint8_t>& payload) {
  const uint64_t id = next_id_++;
  const std::vector<uint8_t> frame =
      net::EncodeFrame(static_cast<uint16_t>(op), id, payload);
  conn.out.Append(frame.data(), frame.size());
  return id;
}

uint32_t Loop::SendQuery(uint16_t conn, uint32_t job, uint8_t phase,
                         int64_t due_ns, bool flush) {
  const uint32_t index = static_cast<uint32_t>(requests_.size());
  Request request;
  request.job = job;
  request.phase = phase;
  request.conn = conn;
  request.due_ns = due_ns;
  request.sent_ns = NowNs();
  requests_.push_back(std::move(request));
  const int64_t span = tracer_.Begin("client.send", -1, index);
  net::QueryRequest frame;
  frame.query = jobs_[job];
  const uint64_t id =
      Enqueue(conns_[conn], net::Opcode::kQuery, net::EncodeQueryRequest(frame));
  conns_[conn].inflight.emplace(id, index);
  if (flush) Flush(conns_[conn]);
  tracer_.End(span);
  return index;
}

void Loop::SendWave(uint32_t wave, const net::UpdateWeightsRequest& request) {
  for (size_t c = 0; c < conns_.size(); ++c) {
    if (conns_[c].role != Role::kUpdate) continue;
    WaveRecord record;
    record.wave = wave;
    record.sent_ns = NowNs();
    const uint64_t id = Enqueue(conns_[c], net::Opcode::kUpdateWeights,
                                net::EncodeUpdateWeightsRequest(request));
    conns_[c].inflight.emplace(id, static_cast<uint32_t>(waves_.size()));
    waves_.push_back(record);
    ++waves_outstanding_;
    Flush(conns_[c]);
    return;
  }
  Fail("no update connection");
}

bool Loop::RoundTrip(uint16_t conn, net::Opcode op,
                     const std::vector<uint8_t>& payload, net::Opcode expect,
                     std::vector<uint8_t>* response, uint64_t* request_id,
                     double timeout_s) {
  sync_id_ = Enqueue(conns_[conn], op, payload);
  sync_done_ = false;
  if (request_id != nullptr) *request_id = sync_id_;
  Flush(conns_[conn]);
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (!sync_done_ && !transport_failed_ && NowNs() < deadline) {
    PollOnce(deadline - NowNs());
  }
  const bool ok = sync_done_ &&
                  sync_header_.opcode == static_cast<uint16_t>(expect);
  sync_id_ = 0;
  if (!ok) {
    if (!transport_failed_) Fail("round trip failed or timed out");
    return false;
  }
  *response = std::move(sync_payload_);
  return true;
}

size_t Loop::inflight_total() const {
  size_t total = 0;
  for (const Conn& c : conns_) total += c.inflight.size();
  return total;
}

void Loop::Fail(const std::string& why) {
  if (!transport_failed_) failure_ = why;
  transport_failed_ = true;
}

void Loop::Flush(Conn& conn) {
  while (!conn.out.empty()) {
    const ssize_t sent = conn.sock.SendSome(conn.out.data(), conn.out.size());
    if (sent > 0) {
      conn.out.Consume(static_cast<size_t>(sent));
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    Fail("send failed");
    return;
  }
}

void Loop::PollOnce(int64_t timeout_ns) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t c = 0; c < conns_.size(); ++c) {
    fds[c].fd = conns_[c].sock.fd();
    fds[c].events = POLLIN;
    if (!conns_[c].out.empty()) fds[c].events |= POLLOUT;
    fds[c].revents = 0;
  }
  if (timeout_ns < 0) timeout_ns = 0;
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
              static_cast<long>(timeout_ns % 1000000000)};
  const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (rc < 0) {
    if (errno != EINTR) Fail("ppoll failed");
    return;
  }
  uint8_t scratch[64 * 1024];
  for (size_t c = 0; c < conns_.size() && !transport_failed_; ++c) {
    if (fds[c].revents == 0) continue;
    Conn& conn = conns_[c];
    if ((fds[c].revents & POLLOUT) != 0) Flush(conn);
    if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    for (;;) {
      const ssize_t got = conn.sock.RecvSome(scratch, sizeof(scratch));
      if (got > 0) {
        conn.in.Append(scratch, static_cast<size_t>(got));
        if (static_cast<size_t>(got) < sizeof(scratch)) break;
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Fail("connection closed by the server");
      return;
    }
    while (!transport_failed_) {
      net::FrameCut cut = net::CutFrame(conn.in);
      if (cut.kind == net::FrameCut::Kind::kNeedMore) break;
      if (cut.kind == net::FrameCut::Kind::kPoisoned) {
        Fail("poisoned frame from the server");
        return;
      }
      HandleFrame(static_cast<uint16_t>(c), cut.header, cut.payload);
    }
    Flush(conn);  // a resubmission queued above leaves now
  }
}

bool Loop::Drain(double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while ((inflight_total() > 0 || waves_outstanding_ > 0) &&
         !transport_failed_) {
    const int64_t left = deadline - NowNs();
    if (left <= 0) {
      Fail("timed out draining responses");
      return false;
    }
    PollOnce(left);
  }
  return !transport_failed_;
}

void Loop::FinishQuery(uint32_t index, bool ok) {
  Request& r = requests_[index];
  r.done = true;
  r.ok = ok;
  r.done_ns = NowNs();
  tracer_.Add("client.request", r.due_ns, r.done_ns, -1, index);
  if (on_done) on_done(index);
}

void Loop::HandleFrame(uint16_t conn_index, const net::FrameHeader& header,
                       const std::vector<uint8_t>& payload) {
  Conn& conn = conns_[conn_index];
  if (header.opcode == static_cast<uint16_t>(net::Opcode::kPushAnswer)) {
    Push push;
    push.subscription = header.request_id;
    push.at_ns = NowNs();
    net::PushAnswer answer;
    if (!net::DecodePushAnswer(payload, answer)) {
      Fail("undecodable push");
      return;
    }
    push.epoch = answer.graph_epoch;
    push.result = std::move(answer.result);
    pushes_.push_back(std::move(push));
    if (on_push) on_push(pushes_.back());
    return;
  }
  if (sync_id_ != 0 && header.request_id == sync_id_) {
    sync_done_ = true;
    sync_header_ = header;
    sync_payload_ = payload;
    return;
  }
  auto it = conn.inflight.find(header.request_id);
  if (it == conn.inflight.end()) {
    Fail("response for no outstanding request");
    return;
  }
  const uint32_t index = it->second;
  conn.inflight.erase(it);

  if (conn.role == Role::kUpdate) {
    WaveRecord& wave = waves_[index];
    wave.ack_ns = NowNs();
    --waves_outstanding_;
    net::UpdateWeightsResponse response;
    if (header.opcode != static_cast<uint16_t>(net::Opcode::kUpdateResult) ||
        !net::DecodeUpdateWeightsResponse(payload, response)) {
      Fail("update wave not acknowledged");
      return;
    }
    wave.ok = response.status == 0;
    wave.new_epoch = response.new_epoch;
    if (!wave.ok) Fail("update wave rejected: " + response.error);
    return;
  }

  const int64_t span = tracer_.Begin("client.decode", -1, index);
  if (header.opcode == static_cast<uint16_t>(net::Opcode::kError)) {
    net::ErrorResponse error;
    const bool decoded = net::DecodeErrorResponse(payload, error);
    tracer_.End(span);
    if (decoded && error.code == net::ErrorCode::kOverloaded) {
      ++failures_.overloaded;
    } else {
      ++failures_.transport;
    }
    FinishQuery(index, false);
    return;
  }
  net::QueryResponse response;
  if (header.opcode != static_cast<uint16_t>(net::Opcode::kQueryResult) ||
      !net::DecodeQueryResponse(payload, response)) {
    tracer_.End(span);
    ++failures_.transport;
    FinishQuery(index, false);
    return;
  }
  tracer_.End(span);
  Request& r = requests_[index];
  const auto status = static_cast<QueryStatus>(response.result.status);
  if (status == QueryStatus::kRejected &&
      response.result.error.find("epoch advanced") != std::string::npos) {
    if (!r.resubmitted) {
      // Stale admission: one re-submit under the new epoch, keeping the
      // original due time so the retry costs latency like any request.
      ++stale_resubmits_;
      r.resubmitted = true;
      net::QueryRequest frame;
      frame.query = jobs_[r.job];
      const uint64_t id =
          Enqueue(conn, net::Opcode::kQuery, net::EncodeQueryRequest(frame));
      conn.inflight.emplace(id, index);
      return;
    }
    ++failures_.stale_twice;
    FinishQuery(index, false);
    return;
  }
  r.epoch = response.graph_epoch;
  r.result = std::move(response.result);
  if (status != QueryStatus::kOk) {
    ++(status == QueryStatus::kTimedOut ? failures_.timed_out
                                        : failures_.rejected);
    FinishQuery(index, false);
    return;
  }
  FinishQuery(index, true);
}

}  // namespace perfbench
