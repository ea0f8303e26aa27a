// Malformed packets against live servers on real sockets. The decode sweep
// (decode_sweep_test.cc) proves each decoder is total in isolation; these
// tests prove the property end to end: a BIND, Clearinghouse, portmapper, or
// HNS server fed truncated and garbage frames over 127.0.0.1 must answer
// with a protocol-level error reply or drop the frame cleanly — never crash,
// desynchronize, or wedge the reactor. Liveness is asserted after every
// storm by a well-formed call on the same endpoint.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/bindns/protocol.h"
#include "src/bindns/server.h"
#include "src/ch/server.h"
#include "src/hns/hns.h"
#include "src/hns/servers.h"
#include "src/hns/wire_protocol.h"
#include "src/rpc/control.h"
#include "src/rpc/portmapper.h"
#include "src/rpc/ports.h"
#include "src/rpc/server.h"
#include "src/rpc/stream_transport.h"
#include "src/rpc/udp_transport.h"
#include "src/sim/world.h"

namespace hcs {
namespace {

// One live server endpoint under attack.
struct Target {
  std::string label;
  RpcServer* rpc = nullptr;
  uint32_t program = 0;
  uint32_t procedure = 0;
};

Bytes PatternBytes(size_t n) {
  Bytes out(n, 0);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  return out;
}

// A structurally valid call whose args are empty: it reaches the handler,
// which fails to decode the args and answers with an in-protocol error.
Bytes ValidCall(const Target& target) {
  RpcCall call;
  call.xid = 7;
  call.program = target.program;
  call.version = 2;
  call.procedure = target.procedure;
  return GetControlProtocol(target.rpc->control_kind()).EncodeCall(call);
}

std::vector<Bytes> AttackFrames(const Target& target) {
  Bytes valid = ValidCall(target);
  std::vector<Bytes> frames;
  frames.push_back(Bytes{});  // an empty datagram is a garbled request too
  frames.push_back(Bytes{0xde, 0xad, 0xbe, 0xef});
  frames.push_back(PatternBytes(64));
  frames.push_back(Bytes(valid.begin(), valid.begin() + static_cast<long>(valid.size() / 3)));
  frames.push_back(Bytes(valid.begin(), valid.begin() + static_cast<long>(2 * valid.size() / 3)));
  for (size_t offset : {size_t{0}, valid.size() / 2, valid.size() - 1}) {
    Bytes corrupted = valid;
    corrupted[offset] = static_cast<uint8_t>(corrupted[offset] ^ 0xff);
    frames.push_back(corrupted);
  }
  return frames;
}

// Builds one world with all four server flavors and serves each over the
// given host. Returns the (target, port) list.
class MalformedPacketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(world_.network().AddHost("ns", MachineType::kMicroVax, OsType::kUnix).ok());
    ASSERT_TRUE(world_.network().AddHost("ch", MachineType::kXeroxD, OsType::kXde).ok());
    ASSERT_TRUE(world_.network().AddHost("hub", MachineType::kMicroVax, OsType::kUnix).ok());

    BindServer* bind = BindServer::InstallOn(&world_, "ns", BindServerOptions{}).value();
    targets_.push_back({"bind", bind->rpc(), kBindProgram, kBindProcQuery});

    ChServerOptions ch_options;
    ch_options.require_authentication = false;
    ChServer* ch = ChServer::InstallOn(&world_, "ch", ch_options).value();
    targets_.push_back({"clearinghouse", ch->rpc(), kClearinghouseProgram,
                        kChProcRetrieveItem});

    PortMapper* pmap = PortMapper::InstallOn(&world_, "hub").value();
    targets_.push_back({"portmapper", pmap->server(), kPortmapperProgram,
                        kPmapProcGetPort});

    HnsOptions hns_options;
    hns_options.meta_server_host = "ns";
    HnsServer* hns = HnsServer::InstallOn(&world_, "hub", hns_options).value();
    targets_.push_back({"hns", hns->rpc(), kHnsProgram, kHnsProcFindNsm});
  }

  World world_;
  std::vector<Target> targets_;
};

TEST_F(MalformedPacketTest, UdpServersSurviveGarbageAndStayLive) {
  UdpServerHost host;
  UdpTransport transport;

  for (Target& target : targets_) {
    SCOPED_TRACE(target.label);
    Result<uint16_t> port = host.Serve(target.rpc, 0);
    ASSERT_TRUE(port.ok()) << port.status();
    const ControlProtocol& control = GetControlProtocol(target.rpc->control_kind());

    // The server drops exactly the frames whose call header does not
    // decode, the empty datagram among them, and answers the rest.
    uint64_t undecodable = 0;
    for (const Bytes& frame : AttackFrames(target)) {
      if (!control.DecodeCallView(frame.data(), frame.size()).ok()) {
        ++undecodable;
      }
    }
    ASSERT_FALSE(control.DecodeCallView(Bytes{}.data(), 0).ok())
        << "the empty datagram must be one of the drops";

    for (const Bytes& frame : AttackFrames(target)) {
      SCOPED_TRACE("frame size " + std::to_string(frame.size()));
      // Short budget: the common outcome for garbage is a silent drop, and
      // each drop costs the client its full wait.
      Result<Bytes> reply =
          transport.RoundTripWithBudget("client", "localhost", *port, frame,
                                        /*budget_ms=*/150);
      if (reply.ok()) {
        // Whatever came back must be a well-formed reply (an in-protocol
        // error is the expected answer to structurally valid junk).
        EXPECT_TRUE(control.DecodeReply(*reply).ok())
            << target.label << " answered garbage with garbage";
      } else {
        // Clean drop: silence, not a crashed endpoint (liveness below).
        EXPECT_TRUE(reply.status().code() == StatusCode::kTimeout ||
                    reply.status().code() == StatusCode::kUnavailable)
            << reply.status().ToString();
      }
    }

    // The storm must leave the endpoint serving: a well-formed call gets a
    // well-formed reply (app-level error is fine — the args were empty).
    Result<Bytes> reply =
        transport.RoundTrip("client", "localhost", *port, ValidCall(target));
    ASSERT_TRUE(reply.ok())
        << target.label << " wedged after garbage: " << reply.status();
    EXPECT_TRUE(control.DecodeReply(*reply).ok());
    // The endpoint is serial, so the answered liveness call ran after every
    // garbage frame had been counted.
    EXPECT_EQ(host.dropped_by_endpoint()[*port], undecodable);
  }
  host.StopAll();
}

// Sends raw bytes to a TCP port and closes without reading; used to poison
// stream connections mid-frame.
void BlindTcpSend(uint16_t port, const Bytes& data) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  if (!data.empty()) {
    (void)send(fd, data.data(), data.size(), MSG_NOSIGNAL);
  }
  close(fd);
}

Bytes FramedStream(const Bytes& payload, uint32_t announced_size) {
  Bytes out;
  out.push_back(static_cast<uint8_t>(announced_size >> 24));
  out.push_back(static_cast<uint8_t>(announced_size >> 16));
  out.push_back(static_cast<uint8_t>(announced_size >> 8));
  out.push_back(static_cast<uint8_t>(announced_size));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST_F(MalformedPacketTest, StreamServersSurviveGarbageAndStayLive) {
  // Stream connections are parsed on the reactor's loop thread: one
  // poisoned connection must never stall the loop that every other
  // endpoint depends on.
  UdpServerHost host;

  for (Target& target : targets_) {
    SCOPED_TRACE(target.label);
    Result<uint16_t> port = host.ServeStream(target.rpc, 0);
    ASSERT_TRUE(port.ok()) << port.status();

    // An absurd frame-length announcement, then silence.
    BlindTcpSend(*port, FramedStream(Bytes{}, 0xffffffffu));
    // A frame that promises 64 bytes and delivers 3, then closes mid-frame.
    BlindTcpSend(*port, FramedStream(Bytes{1, 2, 3}, 64));
    // Garbage with a plausible header: 60 bytes of junk, correctly framed.
    BlindTcpSend(*port, FramedStream(PatternBytes(60), 60));
    // No header at all: the connection dies after two bytes.
    BlindTcpSend(*port, Bytes{0xff, 0x00});

    // The reactor must still serve this endpoint: a well-formed framed call
    // over a fresh connection gets a well-formed reply.
    TcpStreamTransport transport(/*timeout_ms=*/4000);
    Result<Bytes> reply =
        transport.RoundTrip("client", "localhost", *port, ValidCall(target));
    ASSERT_TRUE(reply.ok())
        << target.label << " stream endpoint wedged: " << reply.status();
    const ControlProtocol& control = GetControlProtocol(target.rpc->control_kind());
    EXPECT_TRUE(control.DecodeReply(*reply).ok());
  }
  host.StopAll();
}

}  // namespace
}  // namespace hcs
