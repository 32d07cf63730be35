#include "net/protocol.h"

#include <cmath>
#include <utility>

namespace fannr::net {

namespace {

// Shared by the single-query, batch, and subscribe encodings.
void EncodeWireQuery(const WireQuery& query, WireWriter& w) {
  w.U8(query.algorithm);
  w.U8(query.aggregate);
  w.F64(query.phi);
  w.F64(query.deadline_ms);
  w.VecU32(query.p);
  w.VecU32(query.q);
  w.VecF64(query.weights);
}

bool DecodeWireQuery(WireReader& r, WireQuery& query) {
  if (!(r.U8(query.algorithm) && r.U8(query.aggregate) && r.F64(query.phi) &&
        r.F64(query.deadline_ms) && r.VecU32(query.p) && r.VecU32(query.q) &&
        r.VecF64(query.weights))) {
    return false;
  }
  // Weights are either absent or exactly one per query point; any other
  // count is a malformed frame, not a job to screen later.
  return query.weights.empty() || query.weights.size() == query.q.size();
}

void EncodeWireResult(const WireResult& result, WireWriter& w) {
  w.U8(result.status);
  if (result.status == static_cast<uint8_t>(QueryStatus::kOk)) {
    w.U32(result.best);
    w.F64(result.distance);
    w.U64(result.gphi_evaluations);
    w.VecU32(result.subset);
  } else {
    w.String(result.error);
  }
}

bool DecodeWireResult(WireReader& r, WireResult& result) {
  if (!r.U8(result.status)) return false;
  // Only the three QueryStatus enumerators are valid on the wire; any
  // other value is corruption, not a status to cast blindly.
  if (result.status > static_cast<uint8_t>(QueryStatus::kTimedOut)) {
    return false;
  }
  if (result.status == static_cast<uint8_t>(QueryStatus::kOk)) {
    return r.U32(result.best) && r.F64(result.distance) &&
           r.U64(result.gphi_evaluations) && r.VecU32(result.subset);
  }
  return r.String(result.error);
}

}  // namespace

bool IsRequestOpcode(uint16_t opcode) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kQuery:
    case Opcode::kBatch:
    case Opcode::kUpdateWeights:
    case Opcode::kStats:
    case Opcode::kPing:
    case Opcode::kShutdown:
    case Opcode::kReplApply:
    case Opcode::kSubscribe:
    case Opcode::kUnsubscribe:
      return true;
    default:
      return false;
  }
}

std::string_view OpcodeName(uint16_t opcode) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kQuery:
      return "QUERY";
    case Opcode::kBatch:
      return "BATCH";
    case Opcode::kUpdateWeights:
      return "UPDATE_WEIGHTS";
    case Opcode::kStats:
      return "STATS";
    case Opcode::kPing:
      return "PING";
    case Opcode::kShutdown:
      return "SHUTDOWN";
    case Opcode::kReplApply:
      return "REPL_APPLY";
    case Opcode::kSubscribe:
      return "SUBSCRIBE";
    case Opcode::kUnsubscribe:
      return "UNSUBSCRIBE";
    case Opcode::kQueryResult:
      return "QUERY_RESULT";
    case Opcode::kBatchResult:
      return "BATCH_RESULT";
    case Opcode::kUpdateResult:
      return "UPDATE_RESULT";
    case Opcode::kStatsResult:
      return "STATS_RESULT";
    case Opcode::kPong:
      return "PONG";
    case Opcode::kShutdownAck:
      return "SHUTDOWN_ACK";
    case Opcode::kReplApplyResult:
      return "REPL_APPLY_RESULT";
    case Opcode::kSubscribeResult:
      return "SUBSCRIBE_RESULT";
    case Opcode::kUnsubscribeResult:
      return "UNSUBSCRIBE_RESULT";
    case Opcode::kPushAnswer:
      return "PUSH_ANSWER";
    case Opcode::kError:
      return "ERROR";
  }
  return "?";
}

std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "NONE";
    case ErrorCode::kMalformedPayload:
      return "MALFORMED_PAYLOAD";
    case ErrorCode::kUnsupportedVersion:
      return "UNSUPPORTED_VERSION";
    case ErrorCode::kUnknownOpcode:
      return "UNKNOWN_OPCODE";
    case ErrorCode::kOverloaded:
      return "OVERLOADED";
    case ErrorCode::kShuttingDown:
      return "SHUTTING_DOWN";
    case ErrorCode::kInternal:
      return "INTERNAL";
  }
  return "?";
}

void EncodeFrameHeader(const FrameHeader& header, WireWriter& out) {
  out.U32(header.magic);
  out.U16(header.version);
  out.U16(header.opcode);
  out.U64(header.request_id);
  out.U32(header.payload_length);
  out.U32(header.reserved);
}

bool DecodeFrameHeader(std::span<const uint8_t> bytes, FrameHeader& header) {
  WireReader r(bytes);
  return r.U32(header.magic) && r.U16(header.version) &&
         r.U16(header.opcode) && r.U64(header.request_id) &&
         r.U32(header.payload_length) && r.U32(header.reserved);
}

std::string FrameEnvelopeError(const FrameHeader& header, bool* fatal) {
  if (fatal != nullptr) *fatal = false;
  if (header.magic != kMagic) {
    // The stream is not speaking this protocol (or lost sync): there is
    // no trustworthy frame boundary to resume from.
    if (fatal != nullptr) *fatal = true;
    return "bad magic";
  }
  if (header.payload_length > kMaxPayloadBytes) {
    if (fatal != nullptr) *fatal = true;
    return "declared payload length " + std::to_string(header.payload_length) +
           " exceeds the " + std::to_string(kMaxPayloadBytes) + "-byte limit";
  }
  if (header.reserved != 0) {
    if (fatal != nullptr) *fatal = true;
    return "reserved header field is nonzero";
  }
  if (header.version != kProtocolVersion) {
    return "unsupported protocol version " + std::to_string(header.version) +
           " (this server speaks " + std::to_string(kProtocolVersion) + ")";
  }
  if (!IsRequestOpcode(header.opcode) &&
      static_cast<Opcode>(header.opcode) != Opcode::kError &&
      OpcodeName(header.opcode) == "?") {
    return "unknown opcode " + std::to_string(header.opcode);
  }
  return std::string();
}

std::vector<uint8_t> EncodeFrame(uint16_t opcode, uint64_t request_id,
                                 std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(opcode, request_id, payload, out);
  return out;
}

void AppendFrame(uint16_t opcode, uint64_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>& out) {
  FrameHeader header;
  header.opcode = opcode;
  header.request_id = request_id;
  header.payload_length = static_cast<uint32_t>(payload.size());
  WireWriter w;
  EncodeFrameHeader(header, w);
  const std::vector<uint8_t>& head = w.bytes();
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request) {
  WireWriter w;
  EncodeWireQuery(request.query, w);
  return w.Take();
}

std::vector<uint8_t> EncodeBatchRequest(const BatchRequest& request) {
  WireWriter w;
  w.F64(request.deadline_ms);
  w.U32(static_cast<uint32_t>(request.jobs.size()));
  for (const WireQuery& job : request.jobs) EncodeWireQuery(job, w);
  return w.Take();
}

std::vector<uint8_t> EncodeUpdateWeightsRequest(
    const UpdateWeightsRequest& request) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(request.entries.size()));
  for (const UpdateWeightsRequest::Entry& e : request.entries) {
    w.U32(e.u);
    w.U32(e.v);
    w.F64(e.weight);
  }
  return w.Take();
}

std::vector<uint8_t> EncodeReplApplyRequest(const ReplApplyRequest& request) {
  WireWriter w;
  w.U64(request.position);
  w.U32(static_cast<uint32_t>(request.entries.size()));
  for (const UpdateWeightsRequest::Entry& e : request.entries) {
    w.U32(e.u);
    w.U32(e.v);
    w.F64(e.weight);
  }
  return w.Take();
}

std::vector<uint8_t> EncodeSubscribeRequest(const SubscribeRequest& request) {
  WireWriter w;
  EncodeWireQuery(request.query, w);
  w.U8(request.force_push);
  return w.Take();
}

std::vector<uint8_t> EncodeUnsubscribeRequest(
    const UnsubscribeRequest& request) {
  WireWriter w;
  w.U64(request.subscription_id);
  return w.Take();
}

std::vector<uint8_t> EncodeSubscribeResponse(
    const SubscribeResponse& response) {
  WireWriter w;
  w.U64(response.graph_epoch);
  EncodeWireResult(response.result, w);
  return w.Take();
}

std::vector<uint8_t> EncodeUnsubscribeResponse(
    const UnsubscribeResponse& response) {
  WireWriter w;
  w.U8(response.status);
  w.U64(response.pushes_sent);
  return w.Take();
}

std::vector<uint8_t> EncodePushAnswer(const PushAnswer& push) {
  WireWriter w;
  w.U64(push.graph_epoch);
  EncodeWireResult(push.result, w);
  return w.Take();
}

std::vector<uint8_t> EncodeQueryResponse(const QueryResponse& response) {
  WireWriter w;
  w.U64(response.graph_epoch);
  EncodeWireResult(response.result, w);
  return w.Take();
}

std::vector<uint8_t> EncodeBatchResponse(const BatchResponse& response) {
  WireWriter w;
  w.U64(response.graph_epoch);
  w.U32(static_cast<uint32_t>(response.results.size()));
  for (const WireResult& r : response.results) EncodeWireResult(r, w);
  return w.Take();
}

std::vector<uint8_t> EncodeUpdateWeightsResponse(
    const UpdateWeightsResponse& response) {
  WireWriter w;
  w.U8(response.status);
  if (response.status == 0) {
    w.U64(response.applied);
    w.U64(response.missing);
    w.U64(response.old_epoch);
    w.U64(response.new_epoch);
  } else if (response.status == 2) {
    // Replication position mismatch: the replica's current epoch rides
    // along so the sender can decide how far behind/ahead it is.
    w.U64(response.new_epoch);
    w.String(response.error);
  } else {
    w.String(response.error);
  }
  return w.Take();
}

std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& response) {
  WireWriter w;
  w.String(response.json);
  return w.Take();
}

std::vector<uint8_t> EncodeErrorResponse(const ErrorResponse& response) {
  WireWriter w;
  w.U16(static_cast<uint16_t>(response.code));
  w.String(response.message);
  return w.Take();
}

bool DecodeQueryRequest(std::span<const uint8_t> payload,
                        QueryRequest& request) {
  WireReader r(payload);
  return DecodeWireQuery(r, request.query) && r.AtEnd();
}

bool DecodeBatchRequest(std::span<const uint8_t> payload,
                        BatchRequest& request) {
  WireReader r(payload);
  uint32_t count = 0;
  if (!r.F64(request.deadline_ms) || !r.U32(count)) return false;
  // A WireQuery takes at least 30 bytes (2 + 8 + 8 + three u32 counts);
  // bound the reserve by what the payload could actually hold.
  if (static_cast<uint64_t>(count) * 30 > payload.size()) return false;
  request.jobs.resize(count);
  for (WireQuery& job : request.jobs) {
    if (!DecodeWireQuery(r, job)) return false;
  }
  return r.AtEnd();
}

bool DecodeUpdateWeightsRequest(std::span<const uint8_t> payload,
                                UpdateWeightsRequest& request) {
  WireReader r(payload);
  uint32_t count = 0;
  if (!r.U32(count)) return false;
  if (static_cast<uint64_t>(count) * 16 > r.Remaining()) return false;
  request.entries.resize(count);
  for (UpdateWeightsRequest::Entry& e : request.entries) {
    if (!r.U32(e.u) || !r.U32(e.v) || !r.F64(e.weight)) return false;
  }
  return r.AtEnd();
}

bool DecodeReplApplyRequest(std::span<const uint8_t> payload,
                            ReplApplyRequest& request) {
  WireReader r(payload);
  uint32_t count = 0;
  if (!r.U64(request.position) || !r.U32(count)) return false;
  if (static_cast<uint64_t>(count) * 16 > r.Remaining()) return false;
  request.entries.resize(count);
  for (UpdateWeightsRequest::Entry& e : request.entries) {
    if (!r.U32(e.u) || !r.U32(e.v) || !r.F64(e.weight)) return false;
  }
  return r.AtEnd();
}

bool DecodeSubscribeRequest(std::span<const uint8_t> payload,
                            SubscribeRequest& request) {
  WireReader r(payload);
  if (!DecodeWireQuery(r, request.query) || !r.U8(request.force_push) ||
      !r.AtEnd()) {
    return false;
  }
  // force_push is a boolean on the wire; any other value is corruption.
  return request.force_push <= 1;
}

bool DecodeUnsubscribeRequest(std::span<const uint8_t> payload,
                              UnsubscribeRequest& request) {
  WireReader r(payload);
  return r.U64(request.subscription_id) && r.AtEnd();
}

bool DecodeSubscribeResponse(std::span<const uint8_t> payload,
                             SubscribeResponse& response) {
  WireReader r(payload);
  return r.U64(response.graph_epoch) && DecodeWireResult(r, response.result) &&
         r.AtEnd();
}

bool DecodeUnsubscribeResponse(std::span<const uint8_t> payload,
                               UnsubscribeResponse& response) {
  WireReader r(payload);
  if (!r.U8(response.status) || !r.U64(response.pushes_sent) || !r.AtEnd()) {
    return false;
  }
  return response.status <= 1;
}

bool DecodePushAnswer(std::span<const uint8_t> payload, PushAnswer& push) {
  WireReader r(payload);
  return r.U64(push.graph_epoch) && DecodeWireResult(r, push.result) &&
         r.AtEnd();
}

bool DecodeQueryResponse(std::span<const uint8_t> payload,
                         QueryResponse& response) {
  WireReader r(payload);
  return r.U64(response.graph_epoch) && DecodeWireResult(r, response.result) &&
         r.AtEnd();
}

bool DecodeBatchResponse(std::span<const uint8_t> payload,
                         BatchResponse& response) {
  WireReader r(payload);
  uint32_t count = 0;
  if (!r.U64(response.graph_epoch) || !r.U32(count)) return false;
  if (static_cast<uint64_t>(count) > payload.size()) return false;
  response.results.resize(count);
  for (WireResult& result : response.results) {
    if (!DecodeWireResult(r, result)) return false;
  }
  return r.AtEnd();
}

bool DecodeUpdateWeightsResponse(std::span<const uint8_t> payload,
                                 UpdateWeightsResponse& response) {
  WireReader r(payload);
  if (!r.U8(response.status)) return false;
  if (response.status == 0) {
    if (!r.U64(response.applied) || !r.U64(response.missing) ||
        !r.U64(response.old_epoch) || !r.U64(response.new_epoch)) {
      return false;
    }
  } else if (response.status == 2) {
    if (!r.U64(response.new_epoch) || !r.String(response.error)) return false;
  } else if (!r.String(response.error)) {
    return false;
  }
  return r.AtEnd();
}

bool DecodeStatsResponse(std::span<const uint8_t> payload,
                         StatsResponse& response) {
  WireReader r(payload);
  return r.String(response.json) && r.AtEnd();
}

bool DecodeErrorResponse(std::span<const uint8_t> payload,
                         ErrorResponse& response) {
  WireReader r(payload);
  uint16_t code = 0;
  if (!r.U16(code) || !r.String(response.message) || !r.AtEnd()) return false;
  response.code = static_cast<ErrorCode>(code);
  return true;
}

WireResult ToWire(const FannResult& result) {
  WireResult wire;
  wire.status = static_cast<uint8_t>(result.status);
  if (result.status == QueryStatus::kOk) {
    wire.best = result.best;
    wire.distance = result.distance;
    wire.gphi_evaluations = result.gphi_evaluations;
    wire.subset.assign(result.subset.begin(), result.subset.end());
  } else {
    wire.error = result.error;
  }
  return wire;
}

WireResult RejectedWire(std::string error) {
  WireResult r;
  r.status = static_cast<uint8_t>(QueryStatus::kRejected);
  r.error = std::move(error);
  return r;
}

WireResult TimedOutWire(std::string error) {
  WireResult r;
  r.status = static_cast<uint8_t>(QueryStatus::kTimedOut);
  r.error = std::move(error);
  return r;
}

double EffectiveDeadlineMs(double job_ms, double batch_ms,
                           double server_default_ms) {
  auto usable = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (usable(job_ms)) return job_ms;
  if (usable(batch_ms)) return batch_ms;
  if (usable(server_default_ms)) return server_default_ms;
  return 0.0;
}

bool SameVisibleAnswer(const WireResult& a, const WireResult& b) {
  if (a.status != b.status) return false;
  if (a.status == static_cast<uint8_t>(QueryStatus::kOk)) {
    // Distance compared through its bit pattern: the differential tests
    // demand bitwise answers, so suppression must too (and NaN-free
    // doubles make memcmp-of-bits equivalent to == except for ±0, which
    // no distance computation distinguishes).
    return a.best == b.best && a.distance == b.distance &&
           a.subset == b.subset;
  }
  return a.error == b.error;
}

FannResult FromWire(const WireResult& wire) {
  FannResult result;
  result.status = static_cast<QueryStatus>(wire.status);
  if (result.status == QueryStatus::kOk) {
    result.best = wire.best;
    result.distance = wire.distance;
    result.gphi_evaluations = wire.gphi_evaluations;
    result.subset.assign(wire.subset.begin(), wire.subset.end());
  } else {
    result.error = wire.error;
  }
  return result;
}

}  // namespace fannr::net
