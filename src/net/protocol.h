// The FANN_R binary wire protocol: framing, opcodes, and typed
// request/response payloads.
//
// The protocol puts the batch query engine behind a socket (see
// net/server.h) while staying algorithm-agnostic: frames carry vertex
// ids, phi, and an algorithm selector — nothing about how the answer is
// computed — so future index hierarchies slot in behind the same wire
// format. Framing follows the iproto school (Tarantool): every message
// is one length-prefixed frame with a fixed self-describing header
// (magic + version + request id + opcode), so a reader can validate the
// envelope before trusting a single payload byte, and a client can
// match responses to requests by id.
//
// The byte-for-byte layout (endianness, limits, error codes, version
// rules) is specified in DESIGN.md §2.9; this header is its one
// implementation. Decoders are total: any byte sequence either decodes
// into a validated struct or yields a false return — never undefined
// behavior (tests/net_protocol_test.cc flips bytes to enforce this).

#ifndef FANNR_NET_PROTOCOL_H_
#define FANNR_NET_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fann/dispatch.h"
#include "fann/query.h"
#include "net/wire.h"

namespace fannr::net {

/// First four bytes of every frame: 'F' 'N' 'R' 'P' on the wire (read
/// as a little-endian u32).
inline constexpr uint32_t kMagic = 0x50524E46;  // "FNRP"

/// Protocol version this build speaks. A server answers a frame whose
/// version it does not speak with kUnsupportedVersion and keeps the
/// connection (framing is version-independent). Version 2 added
/// per-query-point weights to WireQuery and the subscription opcodes
/// (SUBSCRIBE / UNSUBSCRIBE / PUSH_ANSWER).
inline constexpr uint16_t kProtocolVersion = 2;

/// Hard ceiling on a frame's payload length. A header declaring more is
/// unframeable corruption: the receiver closes the connection instead
/// of buffering an attacker-chosen allocation.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;  // 64 MiB

/// Frame header: 24 bytes on the wire, fields little-endian.
///   offset 0  u32 magic          = kMagic
///   offset 4  u16 version        = kProtocolVersion
///   offset 6  u16 opcode         (Opcode)
///   offset 8  u64 request_id     (echoed verbatim in the response)
///   offset 16 u32 payload_length (bytes following the header)
///   offset 20 u32 reserved       (must be zero)
struct FrameHeader {
  uint32_t magic = kMagic;
  uint16_t version = kProtocolVersion;
  uint16_t opcode = 0;
  uint64_t request_id = 0;
  uint32_t payload_length = 0;
  uint32_t reserved = 0;
};

inline constexpr size_t kFrameHeaderBytes = 24;

/// Request and response opcodes. Responses set the high bit of the
/// request opcode they answer; kError answers any request.
enum class Opcode : uint16_t {
  // Requests.
  kQuery = 1,
  kBatch = 2,
  kUpdateWeights = 3,
  kStats = 4,
  kPing = 5,
  kShutdown = 6,
  /// Replication: apply an update batch at an exact graph epoch. Sent
  /// by the router to shard replicas so every replica walks the same
  /// epoch sequence; a replica whose epoch != position answers status 2
  /// with its current epoch instead of applying out of order.
  kReplApply = 7,
  /// Registers a standing query (src/cont/): the server re-solves it on
  /// every graph-epoch bump and pushes changed answers. The request id
  /// doubles as the subscription id for the connection's lifetime.
  kSubscribe = 8,
  /// Cancels a standing query by subscription id.
  kUnsubscribe = 9,
  // Responses.
  kQueryResult = 0x81,
  kBatchResult = 0x82,
  kUpdateResult = 0x83,
  kStatsResult = 0x84,
  kPong = 0x85,
  kShutdownAck = 0x86,
  kReplApplyResult = 0x87,
  kSubscribeResult = 0x88,
  kUnsubscribeResult = 0x89,
  /// Unsolicited server→client frame: a subscription's re-evaluated
  /// answer. header.request_id carries the subscription id; it answers
  /// no request, so IsRequestOpcode() is false for it.
  kPushAnswer = 0x8A,
  kError = 0xFF,
};

/// True for the opcodes a client may send.
bool IsRequestOpcode(uint16_t opcode);

/// Display name ("QUERY", "QUERY_RESULT", ...) or "?" when unknown.
std::string_view OpcodeName(uint16_t opcode);

/// Error codes carried by kError frames.
enum class ErrorCode : uint16_t {
  kNone = 0,
  kMalformedPayload = 1,    ///< Header fine, payload failed to decode.
  kUnsupportedVersion = 2,  ///< Header version != kProtocolVersion.
  kUnknownOpcode = 3,       ///< Opcode is not a request opcode.
  kOverloaded = 4,          ///< Admission queue full — retry later.
  kShuttingDown = 5,        ///< Server is draining; no new work.
  kInternal = 6,
};

std::string_view ErrorCodeName(ErrorCode code);

// --- typed payloads -------------------------------------------------------

/// One query as it travels the wire. Vertex ids are validated against
/// the server's graph at decode time by the server (out-of-range or
/// duplicate ids reject the job, mirroring in-process screening).
struct WireQuery {
  uint8_t algorithm = 0;  ///< FannAlgorithm enumerator value.
  uint8_t aggregate = 0;  ///< Aggregate enumerator value.
  double phi = 0.5;
  /// Per-job deadline in milliseconds; <= 0 or non-finite = none.
  double deadline_ms = 0.0;
  std::vector<uint32_t> p;  ///< Data point vertex ids.
  std::vector<uint32_t> q;  ///< Query point vertex ids.
  /// Optional per-query-point weights, aligned with `q`. Empty means
  /// unweighted; otherwise the size must equal |q| (the decoder rejects
  /// any other size) and each weight must be finite and positive (the
  /// server screens values at admission, mirroring in-process
  /// validation).
  std::vector<double> weights;
};

struct QueryRequest {
  WireQuery query;
};

struct BatchRequest {
  /// Batch-wide default deadline; <= 0 or non-finite = none. A job's own
  /// deadline_ms, when positive, overrides it.
  double deadline_ms = 0.0;
  std::vector<WireQuery> jobs;
};

struct UpdateWeightsRequest {
  struct Entry {
    uint32_t u = 0;
    uint32_t v = 0;
    double weight = 0.0;
  };
  std::vector<Entry> entries;
};

/// Positioned replication of one update batch: "apply these entries to
/// a graph currently at epoch `position`". Entries are absolute weight
/// sets (idempotent), so a batch may be re-sent safely — the position
/// check is what prevents double-application and reordering. An empty
/// entry list is a pure position probe: it never applies anything and
/// never bumps the epoch, but still reports mismatches.
struct ReplApplyRequest {
  uint64_t position = 0;  ///< Graph epoch the entries apply on top of.
  std::vector<UpdateWeightsRequest::Entry> entries;
};

/// Registers a standing query. The frame's request_id becomes the
/// subscription id: it must be unique among the connection's live
/// subscriptions, and every PUSH_ANSWER for this subscription echoes it
/// in header.request_id.
struct SubscribeRequest {
  WireQuery query;
  /// 0 = delta semantics (a re-evaluation whose answer is unchanged
  /// since the last push is suppressed); 1 = push every re-evaluation.
  uint8_t force_push = 0;
};

struct UnsubscribeRequest {
  uint64_t subscription_id = 0;
};

/// One query's answer on the wire.
struct WireResult {
  uint8_t status = 0;  ///< QueryStatus enumerator value.
  // status == kOk:
  uint32_t best = 0xFFFFFFFFu;  ///< kInvalidVertex when no feasible answer.
  double distance = 0.0;
  uint64_t gphi_evaluations = 0;
  std::vector<uint32_t> subset;
  // status != kOk:
  std::string error;
};

struct QueryResponse {
  /// Graph epoch the answer was computed under (see dynamic/update.h).
  uint64_t graph_epoch = 0;
  WireResult result;
};

struct BatchResponse {
  uint64_t graph_epoch = 0;
  std::vector<WireResult> results;
};

/// Answers kSubscribe with the subscription's initial answer, solved at
/// registration time — the client has a consistent baseline before the
/// first push.
struct SubscribeResponse {
  uint64_t graph_epoch = 0;
  WireResult result;
};

struct UnsubscribeResponse {
  uint8_t status = 0;      ///< 0 = removed, 1 = no such subscription.
  uint64_t pushes_sent = 0;  ///< PUSH_ANSWER frames this subscription got.
};

/// One pushed re-evaluation (opcode kPushAnswer, subscription id in
/// header.request_id), stamped with the graph epoch it was solved at.
struct PushAnswer {
  uint64_t graph_epoch = 0;
  WireResult result;
};

/// Answers both kUpdateWeights and kReplApply (same shape, different
/// opcode). Status 2 is only ever produced for kReplApply.
struct UpdateWeightsResponse {
  /// 0 = applied, 1 = rejected (reason in error), 2 = replication
  /// position mismatch (new_epoch = the replica's current epoch, error
  /// explains; nothing was applied).
  uint8_t status = 0;
  uint64_t applied = 0;
  uint64_t missing = 0;
  uint64_t old_epoch = 0;
  uint64_t new_epoch = 0;
  std::string error;
};

struct StatsResponse {
  std::string json;  ///< Server + engine observability snapshot.
};

struct ErrorResponse {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};

// --- encode / decode ------------------------------------------------------

/// Appends the 24 header bytes to `out`.
void EncodeFrameHeader(const FrameHeader& header, WireWriter& out);

/// Decodes a header from exactly kFrameHeaderBytes. Pure framing — does
/// not judge magic/version/opcode; returns false only on short input.
bool DecodeFrameHeader(std::span<const uint8_t> bytes, FrameHeader& header);

/// Validates the envelope of a decoded header. Returns empty when the
/// frame may be read further; otherwise a reason. A bad magic or a
/// payload_length above kMaxPayloadBytes poisons the stream (the
/// connection must close); version/opcode problems are answerable
/// in-band — the caller distinguishes via `fatal`.
std::string FrameEnvelopeError(const FrameHeader& header, bool* fatal);

/// One complete frame: header + payload, ready to write to a socket.
std::vector<uint8_t> EncodeFrame(uint16_t opcode, uint64_t request_id,
                                 std::span<const uint8_t> payload);

/// Appends the same frame to `out`, after whatever it already holds;
/// for writers that collect many frames per connection.
void AppendFrame(uint16_t opcode, uint64_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>& out);

// Payload encoders (payload bytes only; wrap with EncodeFrame).
std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request);
std::vector<uint8_t> EncodeBatchRequest(const BatchRequest& request);
std::vector<uint8_t> EncodeUpdateWeightsRequest(
    const UpdateWeightsRequest& request);
std::vector<uint8_t> EncodeReplApplyRequest(const ReplApplyRequest& request);
std::vector<uint8_t> EncodeSubscribeRequest(const SubscribeRequest& request);
std::vector<uint8_t> EncodeUnsubscribeRequest(
    const UnsubscribeRequest& request);
std::vector<uint8_t> EncodeSubscribeResponse(const SubscribeResponse& response);
std::vector<uint8_t> EncodeUnsubscribeResponse(
    const UnsubscribeResponse& response);
std::vector<uint8_t> EncodePushAnswer(const PushAnswer& push);
std::vector<uint8_t> EncodeQueryResponse(const QueryResponse& response);
std::vector<uint8_t> EncodeBatchResponse(const BatchResponse& response);
std::vector<uint8_t> EncodeUpdateWeightsResponse(
    const UpdateWeightsResponse& response);
std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& response);
std::vector<uint8_t> EncodeErrorResponse(const ErrorResponse& response);

// Payload decoders. Return false on any malformed input (short buffer,
// lying length headers, trailing junk).
bool DecodeQueryRequest(std::span<const uint8_t> payload,
                        QueryRequest& request);
bool DecodeBatchRequest(std::span<const uint8_t> payload,
                        BatchRequest& request);
bool DecodeUpdateWeightsRequest(std::span<const uint8_t> payload,
                                UpdateWeightsRequest& request);
bool DecodeReplApplyRequest(std::span<const uint8_t> payload,
                            ReplApplyRequest& request);
bool DecodeSubscribeRequest(std::span<const uint8_t> payload,
                            SubscribeRequest& request);
bool DecodeUnsubscribeRequest(std::span<const uint8_t> payload,
                              UnsubscribeRequest& request);
bool DecodeSubscribeResponse(std::span<const uint8_t> payload,
                             SubscribeResponse& response);
bool DecodeUnsubscribeResponse(std::span<const uint8_t> payload,
                               UnsubscribeResponse& response);
bool DecodePushAnswer(std::span<const uint8_t> payload, PushAnswer& push);
bool DecodeQueryResponse(std::span<const uint8_t> payload,
                         QueryResponse& response);
bool DecodeBatchResponse(std::span<const uint8_t> payload,
                         BatchResponse& response);
bool DecodeUpdateWeightsResponse(std::span<const uint8_t> payload,
                                 UpdateWeightsResponse& response);
bool DecodeStatsResponse(std::span<const uint8_t> payload,
                         StatsResponse& response);
bool DecodeErrorResponse(std::span<const uint8_t> payload,
                         ErrorResponse& response);

/// Converts a solved FannResult to its wire form (and back). The mapping
/// is lossless for everything the protocol carries, which is exactly
/// what the loopback differential test compares bitwise.
WireResult ToWire(const FannResult& result);
FannResult FromWire(const WireResult& wire);

/// A job's answer when it never reached the engine: rejected at
/// screening, or timed out before it ran.
WireResult RejectedWire(std::string error);
WireResult TimedOutWire(std::string error);

/// Effective deadline of one wire job: its own value when positive and
/// finite, else the batch default, else the server default; 0 = none.
double EffectiveDeadlineMs(double job_ms, double batch_ms,
                           double server_default_ms);

/// True when two results carry the same visible answer: status, best,
/// bitwise distance, subset, and error — but NOT gphi_evaluations (a
/// work counter: two epochs can produce the identical answer with
/// different amounts of search). Delta-push suppression keys off this.
bool SameVisibleAnswer(const WireResult& a, const WireResult& b);

}  // namespace fannr::net

#endif  // FANNR_NET_PROTOCOL_H_
