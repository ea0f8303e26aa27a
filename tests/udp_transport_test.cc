// Real-socket tests: the same RpcServer objects served over 127.0.0.1 UDP,
// called through the unmodified RpcClient — the HRPC transport component
// swapped for a real one.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/bindns/protocol.h"
#include "src/bindns/record.h"
#include "src/bindns/resolver.h"
#include "src/bindns/server.h"
#include "src/hns/meta_store.h"
#include "src/rpc/client.h"
#include "src/rpc/mmsg.h"
#include "src/rpc/ports.h"
#include "src/rpc/server.h"
#include "src/rpc/udp_transport.h"
#include "src/wire/xdr.h"

namespace hcs {
namespace {

HrpcBinding UdpBinding(uint16_t port, uint32_t program, ControlKind control) {
  HrpcBinding b;
  b.service_name = "udp-test";
  b.host = "localhost";
  b.port = port;
  b.program = program;
  b.version = 2;
  b.control = control;
  b.transport = TransportKind::kUdp;
  return b;
}

TEST(UdpTransportTest, EndToEndEchoOverAllControlProtocols) {
  UdpServerHost host;
  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);

  for (ControlKind kind : {ControlKind::kSunRpc, ControlKind::kCourier, ControlKind::kRaw}) {
    SCOPED_TRACE(ControlKindName(kind));
    auto server = std::make_unique<RpcServer>(kind, "udp-echo");
    server->RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> {
      Bytes out = args.ToBytes();
      out.push_back(0x42);
      return out;
    });
    Result<uint16_t> port = host.Serve(server.get(), 0);
    ASSERT_TRUE(port.ok()) << port.status();

    Result<Bytes> reply = client.Call(UdpBinding(*port, 7, kind), 1, Bytes{1, 2, 3});
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, (Bytes{1, 2, 3, 0x42}));

    // Keep the server alive until the host stops.
    static std::vector<std::unique_ptr<RpcServer>> keepalive;
    keepalive.push_back(std::move(server));
  }
  host.StopAll();
}

TEST(UdpTransportTest, ErrorsRoundTripOverRealSockets) {
  UdpServerHost host;
  RpcServer server(ControlKind::kSunRpc, "udp-fail");
  server.RegisterProcedure(7, 1, [](BytesView) -> Result<Bytes> {
    return NotFoundError("nothing here");
  });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  Result<Bytes> reply = client.Call(UdpBinding(*port, 7, ControlKind::kSunRpc), 1, Bytes{});
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reply.status().message(), "nothing here");
  host.StopAll();
}

TEST(UdpTransportTest, DeadPortTimesOut) {
  UdpTransport transport(/*timeout_ms=*/200);
  RpcClient client(nullptr, "localclient", &transport);
  // Nothing listens here; ICMP refusal may surface as UNAVAILABLE, silence
  // as TIMEOUT — both are acceptable failure classes.
  Result<Bytes> reply =
      client.Call(UdpBinding(1, 7, ControlKind::kRaw), 1, Bytes{1});
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().code() == StatusCode::kTimeout ||
              reply.status().code() == StatusCode::kUnavailable)
      << reply.status();
}

// The blocking exchange reports its syscalls to the UDP I/O counters like
// the batched paths do. The peer is a raw socket echo, whose own
// recvfrom/sendto are not counted, so the deltas are the client's alone.
TEST(UdpTransportTest, BlockingExchangeIsCountedOnce) {
  int server_fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(server_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(bind(server_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(getsockname(server_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::thread echo([server_fd] {
    uint8_t buf[2048];
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    ssize_t n = recvfrom(server_fd, buf, sizeof(buf), 0, reinterpret_cast<sockaddr*>(&peer),
                         &peer_len);
    if (n > 0) {
      (void)sendto(server_fd, buf, static_cast<size_t>(n), 0,
                   reinterpret_cast<sockaddr*>(&peer),
                   peer_len);  // hcs:ignore-status(test echo; a lost reply fails the exchange)
    }
  });

  UdpTransport transport(/*timeout_ms=*/2000);
  const UdpIoSnapshot before = SnapshotUdpIoCounters();
  Result<Bytes> reply = transport.RoundTrip("client", "server", ntohs(addr.sin_port),
                                            Bytes{1, 2, 3});
  const UdpIoSnapshot after = SnapshotUdpIoCounters();
  echo.join();
  close(server_fd);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, (Bytes{1, 2, 3}));
  EXPECT_EQ(after.send_syscalls - before.send_syscalls, 1u);
  EXPECT_EQ(after.send_datagrams - before.send_datagrams, 1u);
  EXPECT_EQ(after.recv_syscalls - before.recv_syscalls, 1u);
  EXPECT_EQ(after.recv_datagrams - before.recv_datagrams, 1u);
}

TEST(UdpTransportTest, ConcurrentClientsAreServedCorrectly) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "udp-concurrent");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> {
    return args.ToBytes();  // echo
  });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      UdpTransport transport;
      RpcClient client(nullptr, "localclient", &transport);
      for (int i = 0; i < kCallsPerThread; ++i) {
        XdrEncoder enc;
        enc.PutUint32(static_cast<uint32_t>(t * 1000 + i));
        Bytes args = enc.Take();
        Result<Bytes> reply = client.Call(UdpBinding(*port, 7, ControlKind::kRaw), 1, args);
        if (!reply.ok() || *reply != args) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  host.StopAll();
}

// A fake modified-BIND on a real socket. Every answer carries {"ns": ...}
// and costs `delay_ms` of real time; NXDOMAIN names contain "missing".
class FakeMetaBind {
 public:
  explicit FakeMetaBind(int delay_ms)
      : server_(ControlKind::kRaw, "fake-meta-bind") {
    server_.RegisterProcedure(
        kBindProgram, kBindProcQuery, [this, delay_ms](BytesView args) -> Result<Bytes> {
          ++queries_;
          HCS_ASSIGN_OR_RETURN(BindQueryRequest request, BindQueryRequest::Decode(args));
          std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
          BindQueryResponse response;
          if (request.name.find("missing") != std::string::npos) {
            response.rcode = Rcode::kNxDomain;
          } else {
            response.rcode = Rcode::kNoError;
            response.answers = UnspecRecordsFromValue(
                request.name, RecordBuilder().Str("ns", "UW-BIND").Build(), 300);
          }
          return response.Encode();
        });
  }

  Result<uint16_t> Serve() { return host_.Serve(&server_, 0); }
  int queries() const { return queries_.load(); }
  void Stop() { host_.StopAll(); }

 private:
  RpcServer server_;
  UdpServerHost host_;
  std::atomic<int> queries_{0};
};

TEST(UdpTransportTest, MetaStoreCoalescesConcurrentMisses) {
  FakeMetaBind upstream(/*delay_ms=*/100);
  Result<uint16_t> port = upstream.Serve();
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient rpc(/*world=*/nullptr, "localclient", &transport);
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled);
  MetaStore meta(&rpc, "localhost", "", &cache);
  meta.set_meta_port(*port);

  constexpr int kFollowers = 7;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // The leader goes first; the followers arrive while its fetch is held up
  // in the 100 ms upstream, so every one of them must wait, not re-fetch.
  threads.emplace_back([&] {
    Result<std::string> ns = meta.ContextToNameService("SharedContext");
    if (!ns.ok() || *ns != "UW-BIND") ++failures;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (int t = 0; t < kFollowers; ++t) {
    threads.emplace_back([&] {
      Result<std::string> ns = meta.ContextToNameService("SharedContext");
      if (!ns.ok() || *ns != "UW-BIND") ++failures;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  upstream.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(upstream.queries(), 1) << "all concurrent misses share one upstream fetch";
  EXPECT_EQ(meta.remote_lookups(), 1u);
  EXPECT_EQ(cache.stats().coalesced_misses, static_cast<uint64_t>(kFollowers));
}

TEST(UdpTransportTest, MetaStoreNegativeCachingOverRealSockets) {
  FakeMetaBind upstream(/*delay_ms=*/0);
  Result<uint16_t> port = upstream.Serve();
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient rpc(/*world=*/nullptr, "localclient", &transport);
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled);
  MetaStore meta(&rpc, "localhost", "", &cache);
  meta.set_meta_port(*port);

  EXPECT_EQ(meta.ContextToNameService("missing-context").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(meta.ContextToNameService("missing-context").status().code(),
            StatusCode::kNotFound);
  upstream.Stop();
  EXPECT_EQ(upstream.queries(), 1) << "the repeat NotFound is a negative cache hit";
  EXPECT_EQ(cache.stats().negative_hits, 1u);
}

TEST(UdpTransportTest, CacheTtlRunsOnRealClockWithoutWorld) {
  // With no simulated world the cache must still expire entries — on the
  // monotonic real clock.
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled);
  cache.Put("k", WireValue::OfUint32(7), /*ttl_seconds=*/1);
  EXPECT_TRUE(cache.Get("k").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  EXPECT_FALSE(cache.Get("k").ok()) << "entry outlived its TTL on the real clock";
  EXPECT_EQ(cache.stats().expirations, 1u);
}

TEST(UdpTransportTest, BindServerWorksOverRealSockets) {
  // A whole simulated subsystem served over real UDP: the BIND server still
  // charges its (now unobserved) virtual costs, and answers correctly.
  World world;
  ASSERT_TRUE(world.network().AddHost("ns", MachineType::kMicroVax, OsType::kUnix).ok());
  BindServer* bind_server = BindServer::InstallOn(&world, "ns", BindServerOptions{}).value();
  Zone* zone = bind_server->AddZone("cs.washington.edu").value();
  ASSERT_TRUE(zone->Add(ResourceRecord::MakeA("fiji.cs.washington.edu", 0xaa)).ok());

  UdpServerHost host;
  Result<uint16_t> port = host.Serve(bind_server->rpc(), 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient rpc(nullptr, "localclient", &transport);
  BindResolverOptions options;
  options.server_host = "localhost";
  options.server_port = *port;
  BindResolver resolver(&rpc, options);
  EXPECT_EQ(resolver.LookupAddress("fiji.cs.washington.edu").value(), 0xaau);
  host.StopAll();
}

}  // namespace
}  // namespace hcs
