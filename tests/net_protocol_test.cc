// The wire-protocol decoders must be total: any byte sequence either
// decodes into a validated struct or returns false — never a crash, an
// out-of-bounds read (the ASan/UBSan CI jobs run this file), or an
// attacker-sized allocation. Style follows mmap_index_test.cc: build
// a valid artifact, then corrupt every region in turn — truncations,
// oversized declared lengths, bad magic/version/opcode, and a
// single-byte-flip sweep over every payload type.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace fannr::net {
namespace {

WireQuery MakeWireQuery() {
  WireQuery query;
  query.algorithm = 1;
  query.aggregate = 1;
  query.phi = 0.625;
  query.deadline_ms = 40.0;
  query.p = {3, 1, 4, 15, 9, 26};
  query.q = {5, 35, 8, 97, 93};
  // Aligned with q; exactly representable so round-trips are bitwise.
  query.weights = {0.5, 2.0, 1.0, 0.25, 4.0};
  return query;
}

void ExpectWireQueryEq(const WireQuery& a, const WireQuery& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.aggregate, b.aggregate);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.weights, b.weights);
}

WireResult MakeOkResult() {
  WireResult result;
  result.status = 0;
  result.best = 12;
  result.distance = 345.75;
  result.gphi_evaluations = 99;
  result.subset = {5, 8, 35};
  return result;
}

// One payload type: a valid encoding plus a decoder that returns
// whether the bytes parsed. Type-erased so the corruption sweeps below
// run against every payload format.
struct PayloadKind {
  std::string name;
  std::vector<uint8_t> valid;
  std::function<bool(std::span<const uint8_t>)> decodes;
};

std::vector<PayloadKind> AllPayloadKinds() {
  std::vector<PayloadKind> kinds;

  QueryRequest query_request;
  query_request.query = MakeWireQuery();
  kinds.push_back({"QueryRequest", EncodeQueryRequest(query_request),
                   [](std::span<const uint8_t> bytes) {
                     QueryRequest out;
                     return DecodeQueryRequest(bytes, out);
                   }});

  BatchRequest batch_request;
  batch_request.deadline_ms = 100.0;
  batch_request.jobs = {MakeWireQuery(), MakeWireQuery()};
  batch_request.jobs[1].p = {42};
  kinds.push_back({"BatchRequest", EncodeBatchRequest(batch_request),
                   [](std::span<const uint8_t> bytes) {
                     BatchRequest out;
                     return DecodeBatchRequest(bytes, out);
                   }});

  UpdateWeightsRequest update_request;
  update_request.entries = {{0, 1, 2.5}, {3, 4, 0.125}};
  kinds.push_back({"UpdateWeightsRequest",
                   EncodeUpdateWeightsRequest(update_request),
                   [](std::span<const uint8_t> bytes) {
                     UpdateWeightsRequest out;
                     return DecodeUpdateWeightsRequest(bytes, out);
                   }});

  ReplApplyRequest repl_request;
  repl_request.position = 41;
  repl_request.entries = {{0, 1, 2.5}, {3, 4, 0.125}};
  kinds.push_back({"ReplApplyRequest", EncodeReplApplyRequest(repl_request),
                   [](std::span<const uint8_t> bytes) {
                     ReplApplyRequest out;
                     return DecodeReplApplyRequest(bytes, out);
                   }});

  QueryResponse query_response;
  query_response.graph_epoch = 7;
  query_response.result.status = 0;
  query_response.result.best = 12;
  query_response.result.distance = 345.75;
  query_response.result.gphi_evaluations = 99;
  query_response.result.subset = {5, 8, 35};
  kinds.push_back({"QueryResponse", EncodeQueryResponse(query_response),
                   [](std::span<const uint8_t> bytes) {
                     QueryResponse out;
                     return DecodeQueryResponse(bytes, out);
                   }});

  BatchResponse batch_response;
  batch_response.graph_epoch = 3;
  batch_response.results.resize(2);
  batch_response.results[0].status = 0;
  batch_response.results[0].best = 1;
  batch_response.results[1].status = 1;
  batch_response.results[1].error = "rejected: example";
  kinds.push_back({"BatchResponse", EncodeBatchResponse(batch_response),
                   [](std::span<const uint8_t> bytes) {
                     BatchResponse out;
                     return DecodeBatchResponse(bytes, out);
                   }});

  UpdateWeightsResponse update_response;
  update_response.status = 0;
  update_response.applied = 5;
  update_response.missing = 1;
  update_response.old_epoch = 2;
  update_response.new_epoch = 3;
  kinds.push_back({"UpdateWeightsResponse",
                   EncodeUpdateWeightsResponse(update_response),
                   [](std::span<const uint8_t> bytes) {
                     UpdateWeightsResponse out;
                     return DecodeUpdateWeightsResponse(bytes, out);
                   }});

  UpdateWeightsResponse mismatch_response;
  mismatch_response.status = 2;  // replication position mismatch
  mismatch_response.new_epoch = 9;
  mismatch_response.error = "position 5 does not match graph epoch 9";
  kinds.push_back({"UpdateWeightsResponse(status=2)",
                   EncodeUpdateWeightsResponse(mismatch_response),
                   [](std::span<const uint8_t> bytes) {
                     UpdateWeightsResponse out;
                     return DecodeUpdateWeightsResponse(bytes, out);
                   }});

  StatsResponse stats_response;
  stats_response.json = "{\"graph_epoch\": 3}";
  kinds.push_back({"StatsResponse", EncodeStatsResponse(stats_response),
                   [](std::span<const uint8_t> bytes) {
                     StatsResponse out;
                     return DecodeStatsResponse(bytes, out);
                   }});

  ErrorResponse error_response;
  error_response.code = ErrorCode::kOverloaded;
  error_response.message = "admission queue full";
  kinds.push_back({"ErrorResponse", EncodeErrorResponse(error_response),
                   [](std::span<const uint8_t> bytes) {
                     ErrorResponse out;
                     return DecodeErrorResponse(bytes, out);
                   }});

  SubscribeRequest subscribe_request;
  subscribe_request.query = MakeWireQuery();
  subscribe_request.force_push = 1;
  kinds.push_back({"SubscribeRequest",
                   EncodeSubscribeRequest(subscribe_request),
                   [](std::span<const uint8_t> bytes) {
                     SubscribeRequest out;
                     return DecodeSubscribeRequest(bytes, out);
                   }});

  UnsubscribeRequest unsubscribe_request;
  unsubscribe_request.subscription_id = 0xFEEDFACE01234567ull;
  kinds.push_back({"UnsubscribeRequest",
                   EncodeUnsubscribeRequest(unsubscribe_request),
                   [](std::span<const uint8_t> bytes) {
                     UnsubscribeRequest out;
                     return DecodeUnsubscribeRequest(bytes, out);
                   }});

  SubscribeResponse subscribe_response;
  subscribe_response.graph_epoch = 11;
  subscribe_response.result = MakeOkResult();
  kinds.push_back({"SubscribeResponse",
                   EncodeSubscribeResponse(subscribe_response),
                   [](std::span<const uint8_t> bytes) {
                     SubscribeResponse out;
                     return DecodeSubscribeResponse(bytes, out);
                   }});

  UnsubscribeResponse unsubscribe_response;
  unsubscribe_response.status = 0;
  unsubscribe_response.pushes_sent = 42;
  kinds.push_back({"UnsubscribeResponse",
                   EncodeUnsubscribeResponse(unsubscribe_response),
                   [](std::span<const uint8_t> bytes) {
                     UnsubscribeResponse out;
                     return DecodeUnsubscribeResponse(bytes, out);
                   }});

  PushAnswer push_answer;
  push_answer.graph_epoch = 12;
  push_answer.result = MakeOkResult();
  kinds.push_back({"PushAnswer", EncodePushAnswer(push_answer),
                   [](std::span<const uint8_t> bytes) {
                     PushAnswer out;
                     return DecodePushAnswer(bytes, out);
                   }});

  return kinds;
}

// --- round-trips ----------------------------------------------------------

TEST(NetProtocolTest, QueryRequestRoundTrips) {
  QueryRequest request;
  request.query = MakeWireQuery();
  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(EncodeQueryRequest(request), decoded));
  ExpectWireQueryEq(request.query, decoded.query);
}

TEST(NetProtocolTest, BatchRequestRoundTrips) {
  BatchRequest request;
  request.deadline_ms = 250.0;
  request.jobs = {MakeWireQuery(), MakeWireQuery(), MakeWireQuery()};
  // An empty-Q job must shed its weights too: the decoder enforces
  // |weights| == |Q| whenever weights are present.
  request.jobs[2].q.clear();
  request.jobs[2].weights.clear();
  BatchRequest decoded;
  ASSERT_TRUE(DecodeBatchRequest(EncodeBatchRequest(request), decoded));
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  ASSERT_EQ(decoded.jobs.size(), request.jobs.size());
  for (size_t i = 0; i < request.jobs.size(); ++i) {
    ExpectWireQueryEq(request.jobs[i], decoded.jobs[i]);
  }
}

TEST(NetProtocolTest, UpdateWeightsRoundTrips) {
  UpdateWeightsRequest request;
  request.entries = {{0, 1, 2.5}, {7, 9, 0.001}};
  UpdateWeightsRequest decoded;
  ASSERT_TRUE(DecodeUpdateWeightsRequest(EncodeUpdateWeightsRequest(request),
                                         decoded));
  ASSERT_EQ(decoded.entries.size(), request.entries.size());
  for (size_t i = 0; i < request.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].u, request.entries[i].u);
    EXPECT_EQ(decoded.entries[i].v, request.entries[i].v);
    EXPECT_EQ(decoded.entries[i].weight, request.entries[i].weight);
  }
}

TEST(NetProtocolTest, ReplApplyRoundTrips) {
  ReplApplyRequest request;
  request.position = 0xABCDEF0123456789ull;
  request.entries = {{0, 1, 2.5}, {7, 9, 0.001}};
  ReplApplyRequest decoded;
  ASSERT_TRUE(DecodeReplApplyRequest(EncodeReplApplyRequest(request),
                                     decoded));
  EXPECT_EQ(decoded.position, request.position);
  ASSERT_EQ(decoded.entries.size(), request.entries.size());
  for (size_t i = 0; i < request.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].u, request.entries[i].u);
    EXPECT_EQ(decoded.entries[i].v, request.entries[i].v);
    EXPECT_EQ(decoded.entries[i].weight, request.entries[i].weight);
  }

  // The empty entry list (a pure position probe) is a valid encoding.
  ReplApplyRequest probe;
  probe.position = 3;
  ReplApplyRequest probe_decoded;
  ASSERT_TRUE(DecodeReplApplyRequest(EncodeReplApplyRequest(probe),
                                     probe_decoded));
  EXPECT_EQ(probe_decoded.position, 3u);
  EXPECT_TRUE(probe_decoded.entries.empty());
}

TEST(NetProtocolTest, PositionMismatchResponseRoundTrips) {
  UpdateWeightsResponse response;
  response.status = 2;
  response.new_epoch = 17;
  response.error = "position 12 does not match graph epoch 17";
  UpdateWeightsResponse decoded;
  ASSERT_TRUE(DecodeUpdateWeightsResponse(
      EncodeUpdateWeightsResponse(response), decoded));
  EXPECT_EQ(decoded.status, 2);
  EXPECT_EQ(decoded.new_epoch, 17u);
  EXPECT_EQ(decoded.error, response.error);
}

TEST(NetProtocolTest, FannResultConvertsLosslessly) {
  FannResult result;
  result.best = 42;
  result.distance = 123.4375;  // exactly representable
  result.gphi_evaluations = 17;
  result.subset = {3, 1, 4};
  result.status = QueryStatus::kOk;
  const FannResult back = FromWire(ToWire(result));
  EXPECT_EQ(back.best, result.best);
  EXPECT_EQ(back.distance, result.distance);  // bitwise: no rounding allowed
  EXPECT_EQ(back.gphi_evaluations, result.gphi_evaluations);
  EXPECT_EQ(back.subset, result.subset);
  EXPECT_EQ(back.status, result.status);

  FannResult rejected;
  rejected.status = QueryStatus::kRejected;
  rejected.error = "example reason";
  const FannResult rejected_back = FromWire(ToWire(rejected));
  EXPECT_EQ(rejected_back.status, QueryStatus::kRejected);
  EXPECT_EQ(rejected_back.error, rejected.error);
}

// --- frame envelope -------------------------------------------------------

TEST(NetProtocolTest, FrameHeaderRoundTrips) {
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(Opcode::kBatch);
  header.request_id = 0x0123456789ABCDEFull;
  header.payload_length = 4096;
  WireWriter writer;
  EncodeFrameHeader(header, writer);
  const std::vector<uint8_t> bytes = writer.Take();
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);

  FrameHeader decoded;
  ASSERT_TRUE(DecodeFrameHeader(bytes, decoded));
  EXPECT_EQ(decoded.magic, kMagic);
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.opcode, header.opcode);
  EXPECT_EQ(decoded.request_id, header.request_id);
  EXPECT_EQ(decoded.payload_length, header.payload_length);
  bool fatal = true;
  EXPECT_TRUE(FrameEnvelopeError(decoded, &fatal).empty());
}

TEST(NetProtocolTest, TruncatedHeaderRejected) {
  WireWriter writer;
  EncodeFrameHeader(FrameHeader{}, writer);
  const std::vector<uint8_t> bytes = writer.Take();
  for (size_t len = 0; len < bytes.size(); ++len) {
    FrameHeader header;
    EXPECT_FALSE(DecodeFrameHeader(
        std::span<const uint8_t>(bytes.data(), len), header))
        << "header decoded from " << len << " bytes";
  }
}

TEST(NetProtocolTest, BadMagicIsFatal) {
  FrameHeader header;
  header.magic = kMagic ^ 1;
  bool fatal = false;
  EXPECT_FALSE(FrameEnvelopeError(header, &fatal).empty());
  EXPECT_TRUE(fatal);
}

TEST(NetProtocolTest, OversizedDeclaredLengthIsFatal) {
  FrameHeader header;
  header.payload_length = kMaxPayloadBytes + 1;
  bool fatal = false;
  EXPECT_FALSE(FrameEnvelopeError(header, &fatal).empty());
  EXPECT_TRUE(fatal) << "an unframeable length must close the connection";
}

TEST(NetProtocolTest, NonzeroReservedIsFatal) {
  FrameHeader header;
  header.reserved = 0xDEADBEEF;
  bool fatal = false;
  EXPECT_FALSE(FrameEnvelopeError(header, &fatal).empty());
  EXPECT_TRUE(fatal);
}

TEST(NetProtocolTest, WrongVersionIsNonFatal) {
  FrameHeader header;
  header.version = kProtocolVersion + 1;
  bool fatal = true;
  EXPECT_FALSE(FrameEnvelopeError(header, &fatal).empty());
  EXPECT_FALSE(fatal) << "version mismatch is answered in-band";
}

TEST(NetProtocolTest, ResponseOpcodesAreNotRequests) {
  EXPECT_TRUE(IsRequestOpcode(static_cast<uint16_t>(Opcode::kQuery)));
  EXPECT_TRUE(IsRequestOpcode(static_cast<uint16_t>(Opcode::kShutdown)));
  EXPECT_TRUE(IsRequestOpcode(static_cast<uint16_t>(Opcode::kSubscribe)));
  EXPECT_TRUE(IsRequestOpcode(static_cast<uint16_t>(Opcode::kUnsubscribe)));
  EXPECT_FALSE(IsRequestOpcode(static_cast<uint16_t>(Opcode::kQueryResult)));
  EXPECT_FALSE(IsRequestOpcode(static_cast<uint16_t>(Opcode::kError)));
  EXPECT_FALSE(
      IsRequestOpcode(static_cast<uint16_t>(Opcode::kSubscribeResult)));
  EXPECT_FALSE(
      IsRequestOpcode(static_cast<uint16_t>(Opcode::kUnsubscribeResult)));
  EXPECT_FALSE(IsRequestOpcode(static_cast<uint16_t>(Opcode::kPushAnswer)))
      << "PUSH_ANSWER is server-to-client only; a client must not be able "
         "to submit one as a request";
  EXPECT_FALSE(IsRequestOpcode(0));
  EXPECT_FALSE(IsRequestOpcode(0x7777));
}

// --- subscription opcodes (PR 10) -----------------------------------------

TEST(NetProtocolTest, SubscribeRequestRoundTrips) {
  for (const uint8_t force_push : {uint8_t{0}, uint8_t{1}}) {
    SubscribeRequest request;
    request.query = MakeWireQuery();
    request.force_push = force_push;
    SubscribeRequest decoded;
    ASSERT_TRUE(
        DecodeSubscribeRequest(EncodeSubscribeRequest(request), decoded));
    ExpectWireQueryEq(request.query, decoded.query);
    EXPECT_EQ(decoded.force_push, force_push);
  }
}

TEST(NetProtocolTest, NonBooleanForcePushRejected) {
  SubscribeRequest request;
  request.query = MakeWireQuery();
  request.force_push = 1;
  std::vector<uint8_t> bytes = EncodeSubscribeRequest(request);
  // force_push is the final byte of the payload.
  bytes.back() = 2;
  SubscribeRequest out;
  EXPECT_FALSE(DecodeSubscribeRequest(bytes, out));
}

TEST(NetProtocolTest, UnsubscribeRoundTrips) {
  UnsubscribeRequest request;
  request.subscription_id = 0x0123456789ABCDEFull;
  UnsubscribeRequest decoded;
  ASSERT_TRUE(
      DecodeUnsubscribeRequest(EncodeUnsubscribeRequest(request), decoded));
  EXPECT_EQ(decoded.subscription_id, request.subscription_id);

  UnsubscribeResponse response;
  response.status = 0;
  response.pushes_sent = 7;
  UnsubscribeResponse decoded_response;
  ASSERT_TRUE(DecodeUnsubscribeResponse(EncodeUnsubscribeResponse(response),
                                        decoded_response));
  EXPECT_EQ(decoded_response.status, 0);
  EXPECT_EQ(decoded_response.pushes_sent, 7u);
}

TEST(NetProtocolTest, UnsubscribeResponseStatusRangeEnforced) {
  UnsubscribeResponse response;
  response.status = 1;  // unknown id
  std::vector<uint8_t> bytes = EncodeUnsubscribeResponse(response);
  bytes[0] = 2;  // outside {0 = removed, 1 = unknown}
  UnsubscribeResponse out;
  EXPECT_FALSE(DecodeUnsubscribeResponse(bytes, out));
}

TEST(NetProtocolTest, SubscribeResponseRoundTrips) {
  SubscribeResponse response;
  response.graph_epoch = 1234567;
  response.result = MakeOkResult();
  SubscribeResponse decoded;
  ASSERT_TRUE(
      DecodeSubscribeResponse(EncodeSubscribeResponse(response), decoded));
  EXPECT_EQ(decoded.graph_epoch, response.graph_epoch);
  EXPECT_EQ(decoded.result.best, response.result.best);
  EXPECT_EQ(decoded.result.distance, response.result.distance);
  EXPECT_EQ(decoded.result.subset, response.result.subset);
}

TEST(NetProtocolTest, PushAnswerRoundTrips) {
  PushAnswer push;
  push.graph_epoch = 99;
  push.result = MakeOkResult();
  PushAnswer decoded;
  ASSERT_TRUE(DecodePushAnswer(EncodePushAnswer(push), decoded));
  EXPECT_EQ(decoded.graph_epoch, 99u);
  EXPECT_EQ(decoded.result.best, push.result.best);
  EXPECT_EQ(decoded.result.distance, push.result.distance);
  EXPECT_EQ(decoded.result.gphi_evaluations, push.result.gphi_evaluations);
  EXPECT_EQ(decoded.result.subset, push.result.subset);

  // An error-carrying push (a subscription whose re-evaluation was
  // rejected) round-trips too.
  PushAnswer rejected;
  rejected.graph_epoch = 100;
  rejected.result.status = 1;
  rejected.result.error = "stale admission epoch";
  PushAnswer rejected_decoded;
  ASSERT_TRUE(DecodePushAnswer(EncodePushAnswer(rejected), rejected_decoded));
  EXPECT_EQ(rejected_decoded.result.status, 1);
  EXPECT_EQ(rejected_decoded.result.error, rejected.result.error);
}

TEST(NetProtocolTest, WeightCountMismatchRejected) {
  // weights must be empty or exactly |q| long; anything else is refused
  // at decode time, before the query can reach the engine.
  WireQuery query = MakeWireQuery();
  query.weights.pop_back();
  QueryRequest request;
  request.query = query;
  QueryRequest out;
  EXPECT_FALSE(DecodeQueryRequest(EncodeQueryRequest(request), out));

  query.weights.clear();
  request.query = query;
  EXPECT_TRUE(DecodeQueryRequest(EncodeQueryRequest(request), out));
  EXPECT_TRUE(out.query.weights.empty());
}

TEST(NetProtocolTest, SameVisibleAnswerMatchesDeltaSemantics) {
  const WireResult a = MakeOkResult();
  WireResult b = a;
  EXPECT_TRUE(SameVisibleAnswer(a, b));

  // gphi_evaluations is cost accounting, not part of the visible answer.
  b.gphi_evaluations = a.gphi_evaluations + 5;
  EXPECT_TRUE(SameVisibleAnswer(a, b));

  b = a;
  b.distance = a.distance + 1.0;
  EXPECT_FALSE(SameVisibleAnswer(a, b));

  b = a;
  b.best = a.best + 1;
  EXPECT_FALSE(SameVisibleAnswer(a, b));

  b = a;
  b.subset = {5, 8};
  EXPECT_FALSE(SameVisibleAnswer(a, b));

  WireResult err_a;
  err_a.status = 1;
  err_a.error = "reason";
  WireResult err_b = err_a;
  EXPECT_FALSE(SameVisibleAnswer(a, err_a));
  EXPECT_TRUE(SameVisibleAnswer(err_a, err_b));
  err_b.error = "another reason";
  EXPECT_FALSE(SameVisibleAnswer(err_a, err_b));
}

// --- corruption sweeps ----------------------------------------------------

TEST(NetProtocolTest, IntactPayloadsDecode) {
  for (const PayloadKind& kind : AllPayloadKinds()) {
    EXPECT_TRUE(kind.decodes(kind.valid)) << kind.name;
  }
}

TEST(NetProtocolTest, EveryTruncationRejected) {
  for (const PayloadKind& kind : AllPayloadKinds()) {
    for (size_t len = 0; len < kind.valid.size(); ++len) {
      EXPECT_FALSE(kind.decodes(
          std::span<const uint8_t>(kind.valid.data(), len)))
          << kind.name << " decoded from a " << len << "-byte prefix of "
          << kind.valid.size() << " bytes";
    }
  }
}

TEST(NetProtocolTest, TrailingJunkRejected) {
  for (const PayloadKind& kind : AllPayloadKinds()) {
    std::vector<uint8_t> padded = kind.valid;
    padded.push_back(0);
    EXPECT_FALSE(kind.decodes(padded)) << kind.name;
  }
}

// Flip every byte through every of three corruption patterns. Most flips
// must fail to decode; some produce a different-but-valid payload (a
// changed vertex id, a changed double) — that is fine. What the sweep
// enforces, together with ASan/UBSan, is: no crash, no out-of-bounds
// access, no runaway allocation.
TEST(NetProtocolTest, SingleByteFlipSweepNeverCrashes) {
  for (const PayloadKind& kind : AllPayloadKinds()) {
    for (size_t pos = 0; pos < kind.valid.size(); ++pos) {
      for (const uint8_t pattern : {uint8_t{0xFF}, uint8_t{0x80},
                                    uint8_t{0x01}}) {
        std::vector<uint8_t> corrupted = kind.valid;
        corrupted[pos] ^= pattern;
        (void)kind.decodes(corrupted);  // must return, not crash
      }
    }
  }
}

TEST(NetProtocolTest, LyingVectorLengthRejectedWithoutAllocating) {
  // A payload whose u32 element count claims far more elements than the
  // buffer holds must fail the bounds check before any allocation.
  WireWriter writer;
  writer.U8(1);           // algorithm
  writer.U8(0);           // aggregate
  writer.F64(0.5);        // phi
  writer.F64(0.0);        // deadline
  writer.U32(0xFFFFFFFF);  // |P| — lie
  const std::vector<uint8_t> bytes = writer.Take();
  QueryRequest out;
  EXPECT_FALSE(DecodeQueryRequest(bytes, out));
}

TEST(NetProtocolTest, InvalidStatusByteRejected) {
  WireResult result;
  result.status = 1;  // rejected
  result.error = "x";
  QueryResponse response;
  response.result = result;
  std::vector<uint8_t> bytes = EncodeQueryResponse(response);
  // The status byte is the first payload byte after the u64 epoch.
  bytes[8] = 3;  // one past kTimedOut
  QueryResponse out;
  EXPECT_FALSE(DecodeQueryResponse(bytes, out))
      << "a status byte outside the QueryStatus range must not be cast "
         "into the enum";
}

TEST(NetProtocolTest, EncodeFrameProducesValidEnvelope) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> frame =
      EncodeFrame(static_cast<uint16_t>(Opcode::kStats), 77, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(
      std::span<const uint8_t>(frame.data(), kFrameHeaderBytes), header));
  EXPECT_EQ(header.opcode, static_cast<uint16_t>(Opcode::kStats));
  EXPECT_EQ(header.request_id, 77u);
  EXPECT_EQ(header.payload_length, payload.size());
  bool fatal = false;
  EXPECT_TRUE(FrameEnvelopeError(header, &fatal).empty());
}

}  // namespace
}  // namespace fannr::net
