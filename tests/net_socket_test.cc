// Transmit-path correctness of net/socket.h under injected faults:
// WriteFull must deliver byte-exact streams when every send(2) is
// chopped into short writes and interrupted by synthetic EINTRs — the
// failure mode that, unhandled, interleaves garbage into the framed
// stream and desyncs the receiver.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"

namespace fannr::net {
namespace {

/// A connected loopback pair (client end + accepted server end).
struct LoopbackPair {
  Socket client;
  Socket server;
};

LoopbackPair MakePair() {
  LoopbackPair pair;
  uint16_t port = 0;
  std::string error;
  Socket listener = TcpListen("127.0.0.1", 0, &port, &error);
  EXPECT_TRUE(listener.valid()) << error;
  pair.client = TcpConnect("127.0.0.1", port, &error);
  EXPECT_TRUE(pair.client.valid()) << error;
  pair.server = Socket(::accept(listener.fd(), nullptr, nullptr));
  EXPECT_TRUE(pair.server.valid());
  return pair;
}

TEST(NetSocket, WriteFullSurvivesShortWritesAndEintr) {
  LoopbackPair pair = MakePair();

  // 256 KiB of patterned bytes, far beyond any single send the faults
  // allow: every transmit is capped at 7 bytes and every 5th attempt is
  // a synthetic EINTR.
  std::vector<uint8_t> sent(256 * 1024);
  std::iota(sent.begin(), sent.end(), uint8_t{0});

  std::vector<uint8_t> received(sent.size());
  std::thread reader([&] {
    EXPECT_TRUE(pair.server.ReadFull(received.data(), received.size()));
  });

  {
    ScopedWriteFaultInjection faults({.max_chunk_bytes = 7,
                                      .eintr_period = 5});
    ASSERT_TRUE(pair.client.WriteFull(sent.data(), sent.size()));
  }
  reader.join();
  EXPECT_EQ(received, sent) << "short writes corrupted the byte stream";
}

TEST(NetSocket, FramedStreamStaysAlignedUnderShortWrites) {
  LoopbackPair pair = MakePair();

  // Many frames of varying payload sizes written back-to-back under
  // 3-byte transmit chunks; the receiver must find every frame boundary.
  std::vector<std::vector<uint8_t>> frames;
  for (uint64_t id = 1; id <= 20; ++id) {
    std::vector<uint8_t> payload(id * 37);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(id + i);
    }
    frames.push_back(EncodeFrame(static_cast<uint16_t>(Opcode::kQuery), id,
                                 payload));
  }

  std::thread reader([&] {
    for (uint64_t id = 1; id <= 20; ++id) {
      uint8_t header_bytes[kFrameHeaderBytes];
      ASSERT_TRUE(pair.server.ReadFull(header_bytes, sizeof(header_bytes)));
      FrameHeader header;
      ASSERT_TRUE(DecodeFrameHeader(header_bytes, header));
      EXPECT_EQ(header.magic, kMagic) << "framing desynced at frame " << id;
      EXPECT_EQ(header.request_id, id);
      std::vector<uint8_t> payload(header.payload_length);
      ASSERT_TRUE(pair.server.ReadFull(payload.data(), payload.size()));
      ASSERT_EQ(payload.size(), id * 37);
      EXPECT_EQ(payload[0], static_cast<uint8_t>(id));
    }
  });

  {
    ScopedWriteFaultInjection faults({.max_chunk_bytes = 3,
                                      .eintr_period = 4});
    for (const std::vector<uint8_t>& frame : frames) {
      ASSERT_TRUE(pair.client.WriteFull(frame.data(), frame.size()));
    }
  }
  reader.join();
}

TEST(NetSocket, WriteToClosedPeerFailsWithoutSigpipe) {
  LoopbackPair pair = MakePair();
  pair.server.Close();

  // The first write may land in the kernel buffer; keep writing until
  // the RST surfaces. Without MSG_NOSIGNAL this raises SIGPIPE and
  // kills the process — the test passing at all is the assertion.
  std::vector<uint8_t> chunk(4096, 0xAB);
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i) {
    failed = !pair.client.WriteFull(chunk.data(), chunk.size());
  }
  EXPECT_TRUE(failed) << "writes to a closed peer never reported failure";
}

}  // namespace
}  // namespace fannr::net
