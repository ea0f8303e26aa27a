// The async RPC client core over real sockets: CallAsync fan-out on UDP,
// stream pipelining on a single pooled connection, partial-frame
// reassembly with pipelined requests behind it, pool exhaustion, idle
// reaping racing in-flight calls, the sync-fallback channel, and the
// ResolveMany / PrefetchRecords layers built on top.
//
// Delay-bearing servers run on a host with a fixed worker pool, so the
// wall-clock assertions do not depend on the core count.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "src/bindns/protocol.h"
#include "src/bindns/record.h"
#include "src/hns/meta_store.h"
#include "src/hns/session.h"
#include "src/hns/wire_protocol.h"
#include "src/rpc/async_client.h"
#include "src/rpc/client.h"
#include "src/rpc/fault.h"
#include "src/rpc/ports.h"
#include "src/rpc/server.h"
#include "src/rpc/stream_transport.h"
#include "src/rpc/udp_transport.h"
#include "src/wire/xdr.h"

namespace hcs {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start).count();
}

HrpcBinding UdpBinding(uint16_t port, uint32_t program, ControlKind control) {
  HrpcBinding b;
  b.service_name = "async-test";
  b.host = "localhost";
  b.port = port;
  b.program = program;
  b.version = 2;
  b.control = control;
  b.transport = TransportKind::kUdp;
  return b;
}

HrpcBinding TcpBinding(uint16_t port, uint32_t program, ControlKind control) {
  HrpcBinding b = UdpBinding(port, program, control);
  b.transport = TransportKind::kTcp;
  return b;
}

TEST(AsyncClientTest, UdpFanOutCompletesEveryFuture) {
  UdpServerHost host;
  RpcServer server(ControlKind::kSunRpc, "async-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);

  constexpr int kCalls = 32;
  std::vector<RpcFuture> futures;
  std::vector<Bytes> payloads;
  futures.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    XdrEncoder enc;
    enc.PutUint32(static_cast<uint32_t>(i));
    payloads.push_back(enc.Take());
    futures.push_back(
        client.CallAsync(UdpBinding(*port, 7, ControlKind::kSunRpc), 1, payloads.back()));
  }
  for (int i = 0; i < kCalls; ++i) {
    Result<Bytes> reply = futures[i].Wait();
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, payloads[i]) << "reply " << i << " matched to the wrong call";
    EXPECT_GE(futures[i].info().attempts, 1u);
  }
  EXPECT_EQ(engine.stats().completed, static_cast<uint64_t>(kCalls));
  host.StopAll();
}

TEST(AsyncClientTest, UdpInFlightCallsShareTheWallClock) {
  constexpr int kCalls = 16;
  constexpr int kDelayMs = 25;
  UdpServerHost host(/*reactor_workers=*/8);
  RpcServer server(ControlKind::kRaw, "async-delay");
  server.RegisterProcedure(7, 1, [kDelayMs](BytesView args) -> Result<Bytes> {
    std::this_thread::sleep_for(std::chrono::milliseconds(kDelayMs));
    return args.ToBytes();
  });
  Result<uint16_t> port = host.ServeConcurrent(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);

  Clock::time_point start = Clock::now();
  std::vector<RpcFuture> futures;
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(client.CallAsync(UdpBinding(*port, 7, ControlKind::kRaw), 1, Bytes{1}));
  }
  for (RpcFuture& future : futures) {
    ASSERT_TRUE(future.Wait().ok());
  }
  int64_t elapsed = ElapsedMs(start);
  // Sequential would cost kCalls * kDelayMs = 400 ms; 16 in flight across 8
  // server workers cost ~2 delays. The bound leaves a wide scheduling margin
  // while still being unreachable by a serialized client.
  EXPECT_LT(elapsed, kCalls * kDelayMs / 2)
      << "async fan-out did not overlap server-side delays";
  host.StopAll();
}

TEST(AsyncClientTest, StreamPipeliningCompletesOutOfOrderOnOneConnection) {
  UdpServerHost host(/*reactor_workers=*/8);
  RpcServer server(ControlKind::kSunRpc, "pipeline");
  server.RegisterProcedure(9, 1, [](BytesView args) -> Result<Bytes> {
    // First byte selects the handler latency: the slow call goes out first
    // and must come back last without stalling the fast ones behind it.
    std::this_thread::sleep_for(std::chrono::milliseconds(args.empty() || args[0] != 1 ? 5 : 80));
    return args.ToBytes();
  });
  Result<uint16_t> port = host.ServeStreamConcurrent(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  AsyncEngineOptions options;
  options.max_conns_per_remote = 1;  // force every call onto one pipe
  AsyncClientEngine engine(options);
  TcpStreamTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  client.set_async_engine(&engine);

  constexpr int kCalls = 8;
  std::mutex order_mu;
  std::vector<int> completion_order;
  std::vector<RpcFuture> futures;
  for (int i = 0; i < kCalls; ++i) {
    Bytes payload{static_cast<uint8_t>(i == 0 ? 1 : 2), static_cast<uint8_t>(i)};
    futures.push_back(
        client.CallAsync(TcpBinding(*port, 9, ControlKind::kSunRpc), 1, payload));
    futures.back().OnComplete([&order_mu, &completion_order, i](const Result<Bytes>&,
                                                               const RpcCallInfo&) {
      std::lock_guard<std::mutex> lock(order_mu);
      completion_order.push_back(i);
    });
  }
  for (int i = 0; i < kCalls; ++i) {
    Result<Bytes> reply = futures[i].Wait();
    ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.status();
    ASSERT_EQ(reply->size(), 2u);
    EXPECT_EQ((*reply)[1], static_cast<uint8_t>(i)) << "pipelined reply misrouted";
  }
  EXPECT_EQ(engine.stats().stream_connects, 1u)
      << "pipelined calls must share one connection";
  // A future turns ready before its completion callback runs (both on the
  // loop thread), so the last callback may still be in flight when the
  // last Wait() returns: give it a bounded moment to land.
  for (int spin = 0; spin < 2000; ++spin) {
    {
      std::lock_guard<std::mutex> lock(order_mu);
      if (completion_order.size() == static_cast<size_t>(kCalls)) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(order_mu);
    ASSERT_EQ(completion_order.size(), static_cast<size_t>(kCalls));
    // The slow call was issued first; replies are matched by xid, so the
    // fast calls pipelined behind it complete before it does.
    EXPECT_EQ(completion_order.back(), 0) << "slow head-of-line call should finish last";
  }
  host.StopAll();
}

// A hand-rolled stream server: accepts one connection, reads two pipelined
// requests, then answers with the FIRST reply frame split across two
// writes (the straddle) and the SECOND reply packed into the same final
// write. The client must reassemble the partial frame and still match the
// pipelined reply sitting behind it in the same read.
TEST(AsyncClientTest, PartialFrameStraddlesTwoReadsWithPipelinedReplyBehind) {
  int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
  uint16_t port = ntohs(addr.sin_port);

  std::thread server([listen_fd] {
    const ControlProtocol& control = GetControlProtocol(ControlKind::kRaw);
    int conn = accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);

    // Read until two complete length-prefixed frames arrive.
    std::vector<uint8_t> buf;
    std::vector<Bytes> requests;
    while (requests.size() < 2) {
      uint8_t chunk[4096];
      ssize_t n = recv(conn, chunk, sizeof(chunk), 0);
      ASSERT_GT(n, 0);
      buf.insert(buf.end(), chunk, chunk + n);
      while (buf.size() >= 4) {
        uint32_t len = (static_cast<uint32_t>(buf[0]) << 24) |
                       (static_cast<uint32_t>(buf[1]) << 16) |
                       (static_cast<uint32_t>(buf[2]) << 8) | buf[3];
        if (buf.size() < 4 + len) {
          break;
        }
        requests.emplace_back(buf.begin() + 4, buf.begin() + 4 + len);
        buf.erase(buf.begin(), buf.begin() + 4 + len);
      }
    }

    auto frame = [&control](const Bytes& request) {
      Result<RpcCall> call = control.DecodeCall(request);
      EXPECT_TRUE(call.ok()) << call.status();
      RpcReplyMsg reply;
      reply.xid = call->xid;
      reply.results = call->args;  // echo
      Bytes body = control.EncodeReply(reply);
      Bytes framed;
      framed.push_back(static_cast<uint8_t>(body.size() >> 24));
      framed.push_back(static_cast<uint8_t>(body.size() >> 16));
      framed.push_back(static_cast<uint8_t>(body.size() >> 8));
      framed.push_back(static_cast<uint8_t>(body.size()));
      framed.insert(framed.end(), body.begin(), body.end());
      return framed;
    };
    Bytes first = frame(requests[0]);
    Bytes second = frame(requests[1]);

    // The straddle: header plus half of the first reply's payload, a pause
    // long enough for the client to drain its socket, then the remainder
    // with the whole second reply glued on.
    size_t split = 4 + (first.size() - 4) / 2;
    ASSERT_EQ(send(conn, first.data(), split, 0), static_cast<ssize_t>(split));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Bytes rest(first.begin() + split, first.end());
    rest.insert(rest.end(), second.begin(), second.end());
    ASSERT_EQ(send(conn, rest.data(), rest.size(), 0), static_cast<ssize_t>(rest.size()));
    // Hold the connection open until the client is done reading.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    close(conn);
  });

  AsyncEngineOptions options;
  options.max_conns_per_remote = 1;
  AsyncClientEngine engine(options);
  TcpStreamTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  client.set_async_engine(&engine);

  RpcFuture f1 = client.CallAsync(TcpBinding(port, 3, ControlKind::kRaw), 1, Bytes{10, 11, 12});
  RpcFuture f2 = client.CallAsync(TcpBinding(port, 3, ControlKind::kRaw), 1, Bytes{20, 21});
  Result<Bytes> r1 = f1.Wait();
  Result<Bytes> r2 = f2.Wait();
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(*r1, (Bytes{10, 11, 12}));
  EXPECT_EQ(*r2, (Bytes{20, 21}));

  server.join();
  close(listen_fd);
}

TEST(AsyncClientTest, PoolExhaustionQueuesAttemptsAndStillCompletes) {
  UdpServerHost host(/*reactor_workers=*/8);
  RpcServer server(ControlKind::kSunRpc, "pool");
  server.RegisterProcedure(9, 1, [](BytesView args) -> Result<Bytes> {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return args.ToBytes();
  });
  Result<uint16_t> port = host.ServeStreamConcurrent(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  AsyncEngineOptions options;
  options.max_conns_per_remote = 1;
  options.max_inflight_per_conn = 2;  // window of 2 → calls 3..6 must queue
  AsyncClientEngine engine(options);
  TcpStreamTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  client.set_async_engine(&engine);

  constexpr int kCalls = 6;
  std::vector<RpcFuture> futures;
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(client.CallAsync(TcpBinding(*port, 9, ControlKind::kSunRpc), 1,
                                       Bytes{static_cast<uint8_t>(i)}));
  }
  for (int i = 0; i < kCalls; ++i) {
    Result<Bytes> reply = futures[i].Wait();
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, Bytes{static_cast<uint8_t>(i)});
  }
  AsyncEngineStats stats = engine.stats();
  EXPECT_EQ(stats.stream_connects, 1u);
  EXPECT_GE(stats.pool_waits, 1u) << "6 calls through a window of 2 must queue";
  host.StopAll();
}

TEST(AsyncClientTest, IdleConnectionIsReapedAndNextCallRedials) {
  UdpServerHost host;
  RpcServer server(ControlKind::kSunRpc, "reap");
  server.RegisterProcedure(9, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.ServeStream(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  AsyncEngineOptions options;
  options.idle_reap_ms = 50;
  options.reap_interval_ms = 20;
  AsyncClientEngine engine(options);
  TcpStreamTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  client.set_async_engine(&engine);

  ASSERT_TRUE(client.CallAsync(TcpBinding(*port, 9, ControlKind::kSunRpc), 1, Bytes{1})
                  .Wait()
                  .ok());
  EXPECT_EQ(engine.stats().stream_connects, 1u);

  Clock::time_point start = Clock::now();
  while (engine.stats().stream_reaped == 0 && ElapsedMs(start) < 2000) {
    engine.ReapIdleNow();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(engine.stats().stream_reaped, 1u) << "idle connection was never reaped";

  ASSERT_TRUE(client.CallAsync(TcpBinding(*port, 9, ControlKind::kSunRpc), 1, Bytes{2})
                  .Wait()
                  .ok());
  EXPECT_EQ(engine.stats().stream_connects, 2u) << "post-reap call should redial";
  host.StopAll();
}

TEST(AsyncClientTest, AggressiveReapingNeverFailsInFlightCalls) {
  UdpServerHost host;
  RpcServer server(ControlKind::kSunRpc, "reap-race");
  server.RegisterProcedure(9, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.ServeStream(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  AsyncEngineOptions options;
  options.idle_reap_ms = 1;
  options.reap_interval_ms = 1;
  AsyncClientEngine engine(options);
  TcpStreamTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  client.set_async_engine(&engine);

  // A connection goes idle (and is eligible for reaping) between every
  // pair of calls; reaping must only ever hit idle connections, never a
  // call mid-flight.
  for (int i = 0; i < 40; ++i) {
    RpcFuture future = client.CallAsync(TcpBinding(*port, 9, ControlKind::kSunRpc), 1,
                                        Bytes{static_cast<uint8_t>(i)});
    engine.ReapIdleNow();
    Result<Bytes> reply = future.Wait();
    ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.status();
    EXPECT_EQ(*reply, Bytes{static_cast<uint8_t>(i)});
    if (i % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  }
  EXPECT_GE(engine.stats().stream_reaped, 1u);
  host.StopAll();
}

TEST(AsyncClientTest, ChannellessTransportCompletesInline) {
  LoopbackTransport loopback;
  RpcServer server(ControlKind::kSunRpc, "loopback-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  ASSERT_TRUE(loopback.Register(9000, &server).ok());

  RpcClient client(nullptr, "localclient", &loopback);
  HrpcBinding binding = UdpBinding(9000, 7, ControlKind::kSunRpc);
  RpcFuture future = client.CallAsync(binding, 1, Bytes{5, 6});
  // No async channel → the call ran to completion inside CallAsync.
  EXPECT_TRUE(future.ready());
  Result<Bytes> async_reply = future.Wait();
  Result<Bytes> sync_reply = client.Call(binding, 1, Bytes{5, 6});
  ASSERT_TRUE(async_reply.ok());
  ASSERT_TRUE(sync_reply.ok());
  EXPECT_EQ(*async_reply, *sync_reply);
}

TEST(AsyncClientTest, ResolveManyIssuesRemoteFindNsmConcurrently) {
  constexpr int kUnique = 8;
  // Large enough that the overlap signal dominates sanitizer slowdown: the
  // TSan build adds ~100 ms of instrumentation overhead to the batch, which
  // must stay well under the half-serial-cost bound below.
  constexpr int kDelayMs = 50;
  UdpServerHost host(/*reactor_workers=*/8);
  RpcServer hns_server(ControlKind::kRaw, "hns-server");
  hns_server.RegisterProcedure(
      kHnsProgram, kHnsProcFindNsm, [kDelayMs](BytesView args) -> Result<Bytes> {
        HCS_ASSIGN_OR_RETURN(FindNsmRequest request, FindNsmRequest::Decode(args));
        std::this_thread::sleep_for(std::chrono::milliseconds(kDelayMs));
        FindNsmResponse response;
        response.nsm_name = "nsm-" + request.context;
        response.binding.service_name = response.nsm_name;
        response.binding.host = "server";
        response.binding.port = kNsmBasePort;
        response.binding.program = 1;
        return response.Encode();
      });
  // The session dials the well-known HNS port; this test runs as root in
  // the container, so the sub-1024 bind is available. Skip, not fail, when
  // another process owns it.
  Result<uint16_t> port = host.ServeConcurrent(&hns_server, kHnsServerPort);
  if (!port.ok()) {
    GTEST_SKIP() << "cannot bind HNS port " << kHnsServerPort << ": " << port.status();
  }

  UdpTransport transport;
  SessionOptions options;
  options.hns_location = HnsLocation::kRemote;
  options.hns_server_host = "localhost";
  HnsSession session(/*world=*/nullptr, "localclient", &transport, options);

  // 16 requests over 8 unique (context, class) pairs: duplicates share one
  // exchange, distinct pairs all go out before any is awaited.
  std::vector<HnsSession::ResolveRequest> requests;
  for (int i = 0; i < kUnique * 2; ++i) {
    HnsSession::ResolveRequest request;
    request.name.context = "ctx" + std::to_string(i % kUnique);
    request.name.individual = "host" + std::to_string(i);
    request.query_class = "HRPCBinding";
    requests.push_back(request);
  }

  Clock::time_point start = Clock::now();
  std::vector<Result<NsmHandle>> results = session.ResolveMany(requests);
  int64_t elapsed = ElapsedMs(start);

  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "request " << i << ": " << results[i].status();
    EXPECT_EQ(results[i]->nsm_name, "nsm-ctx" + std::to_string(i % kUnique));
  }
  // Sequential: kUnique * kDelayMs = 400 ms. Concurrent across 8 server
  // workers: ~1 delay. Well under half the serial cost proves the batch was
  // in flight together.
  EXPECT_LT(elapsed, kUnique * kDelayMs / 2)
      << "ResolveMany did not overlap its FindNSM exchanges";
  host.StopAll();
}

// Partial failure inside one batch: a FaultPlan lets the first few FindNSM
// exchanges through and then drops everything. The injector's phase clock is
// driven by a counting time function — one tick per decision — so which
// pairs resolve and which time out is a pure function of the plan, not of
// machine speed: per-name Statuses must map exactly, with no cross-talk
// between the names that resolved and the names that didn't.
TEST(AsyncClientTest, ResolveManyReportsPartialFailurePerName) {
  constexpr int kUnique = 8;
  constexpr int kHealthyCalls = 3;  // pairs 0..2 resolve; pairs 3..7 time out
  UdpServerHost host;
  RpcServer hns_server(ControlKind::kRaw, "hns-server");
  hns_server.RegisterProcedure(
      kHnsProgram, kHnsProcFindNsm, [](BytesView args) -> Result<Bytes> {
        HCS_ASSIGN_OR_RETURN(FindNsmRequest request, FindNsmRequest::Decode(args));
        FindNsmResponse response;
        response.nsm_name = "nsm-" + request.context;
        response.binding.service_name = response.nsm_name;
        response.binding.host = "server";
        response.binding.port = kNsmBasePort;
        response.binding.program = 1;
        return response.Encode();
      });
  Result<uint16_t> port = host.Serve(&hns_server, kHnsServerPort);
  if (!port.ok()) {
    GTEST_SKIP() << "cannot bind HNS port " << kHnsServerPort << ": " << port.status();
  }

  // The fault wrapper exposes no async channel, so each unique pair's
  // exchange runs inline in first-occurrence order — decision k belongs to
  // unique pair k. Every Decide reads the phase clock exactly once; ticking
  // it 100 "ms" per read puts decisions 0..2 in the healthy phase and every
  // later decision (first attempts and retries alike) in the terminal
  // drop-everything phase.
  FaultInjector injector(FaultConfig{/*seed=*/7, {}});
  std::atomic<int64_t> ticks{0};
  injector.SetTimeFn([&ticks] { return 100 * ticks.fetch_add(1); });
  FaultSpec drop_all;
  drop_all.drop = 1.0;
  injector.SetPlan(FaultPlan{
      "localhost",
      {FaultPhase{/*duration_ms=*/kHealthyCalls * 100 + 50, FaultSpec{}},
       FaultPhase{0, drop_all}}});

  UdpTransport transport(/*timeout_ms=*/500);
  FaultInjectingTransport faulty(&transport, &injector);
  SessionOptions options;
  options.hns_location = HnsLocation::kRemote;
  options.hns_server_host = "localhost";
  HnsSession session(/*world=*/nullptr, "localclient", &faulty, options);

  // 16 names over 8 unique (context, class) pairs, so every outcome — ok
  // and timeout — also has a memoized duplicate to check for cross-talk.
  std::vector<HnsSession::ResolveRequest> requests;
  for (int i = 0; i < kUnique * 2; ++i) {
    HnsSession::ResolveRequest request;
    request.name.context = "ctx" + std::to_string(i % kUnique);
    request.name.individual = "host" + std::to_string(i);
    request.query_class = "HRPCBinding";
    requests.push_back(request);
  }

  std::vector<Result<NsmHandle>> results =
      session.ResolveMany(requests, RequestContext::WithTimeout(1000));

  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    size_t pair = i % kUnique;
    if (pair < kHealthyCalls) {
      ASSERT_TRUE(results[i].ok())
          << "healthy-phase pair " << pair << " failed: " << results[i].status();
      EXPECT_EQ(results[i]->nsm_name, "nsm-ctx" + std::to_string(pair))
          << "request " << i << " mapped to the wrong pair's result";
    } else {
      ASSERT_FALSE(results[i].ok())
          << "drop-phase pair " << pair << " resolved anyway (request " << i << ")";
      EXPECT_EQ(results[i].status().code(), StatusCode::kTimeout)
          << "request " << i << ": " << results[i].status();
    }
    // Memoized duplicates of one pair must agree exactly — a timed-out
    // name must never borrow another name's resolution.
    if (i >= static_cast<size_t>(kUnique)) {
      EXPECT_EQ(results[i].ok(), results[pair].ok());
      if (results[i].ok()) {
        EXPECT_EQ(results[i]->nsm_name, results[pair]->nsm_name);
      }
    }
  }
  EXPECT_GT(injector.stats().drops, 0u) << "the drop phase never fired";
  host.StopAll();
}

// A delaying modified-BIND upstream served concurrently, for the meta-store
// prefetch wall-clock test.
class DelayedMetaBind {
 public:
  explicit DelayedMetaBind(int delay_ms)
      : host_(/*reactor_workers=*/8),
        server_(ControlKind::kRaw, "delayed-meta-bind") {
    server_.RegisterProcedure(
        kBindProgram, kBindProcQuery, [this, delay_ms](BytesView args) -> Result<Bytes> {
          ++queries_;
          HCS_ASSIGN_OR_RETURN(BindQueryRequest request, BindQueryRequest::Decode(args));
          std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
          BindQueryResponse response;
          response.rcode = Rcode::kNoError;
          response.answers = UnspecRecordsFromValue(
              request.name, RecordBuilder().Str("ns", "UW-BIND").Build(), 300);
          return response.Encode();
        });
  }

  Result<uint16_t> Serve() { return host_.ServeConcurrent(&server_, 0); }
  int queries() const { return queries_.load(); }
  void Stop() { host_.StopAll(); }

 private:
  UdpServerHost host_;
  RpcServer server_;
  std::atomic<int> queries_{0};
};

TEST(AsyncClientTest, PrefetchRecordsFetchesAWaveConcurrently) {
  constexpr int kRecords = 6;
  constexpr int kDelayMs = 40;
  DelayedMetaBind upstream(kDelayMs);
  Result<uint16_t> port = upstream.Serve();
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient rpc(/*world=*/nullptr, "localclient", &transport);
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled);
  MetaStore meta(&rpc, "localhost", "", &cache);
  meta.set_meta_port(*port);

  std::vector<std::string> names;
  std::vector<std::string> contexts;
  for (int i = 0; i < kRecords; ++i) {
    contexts.push_back("PrefetchCtx" + std::to_string(i));
    names.push_back(MetaStore::ContextRecordName(contexts.back()));
  }

  Clock::time_point start = Clock::now();
  meta.PrefetchRecords(names);
  int64_t elapsed = ElapsedMs(start);
  // Sequential: kRecords * kDelayMs = 240 ms; concurrent: ~1 delay.
  EXPECT_LT(elapsed, kRecords * kDelayMs / 2)
      << "prefetch fetched its wave sequentially";
  EXPECT_EQ(meta.remote_lookups(), static_cast<uint64_t>(kRecords));

  // Every follow-up read is a cache hit off the prefetched wave.
  for (const std::string& ctx : contexts) {
    Result<std::string> ns = meta.ContextToNameService(ctx);
    ASSERT_TRUE(ns.ok()) << ns.status();
    EXPECT_EQ(*ns, "UW-BIND");
  }
  EXPECT_EQ(meta.remote_lookups(), static_cast<uint64_t>(kRecords))
      << "post-prefetch reads went remote";
  EXPECT_EQ(upstream.queries(), kRecords);
  upstream.Stop();
}

// --- Completion-exactly-once under contention (DESIGN.md §15) ---------------

// Binds a UDP socket nobody ever reads: calls to it spend their full
// deadline budget and complete (kTimeout) on the engine's loop thread.
int BindBlackHole(uint16_t* port_out) {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return -1;
  }
  *port_out = ntohs(addr.sin_port);
  return fd;
}

// --- Sync datagram calls run on the caller's thread -------------------------
//
// RpcClient::Call over UdpTransport makes its exchange on the calling thread
// (DESIGN.md §14); these pin that it never touches the engine and that the
// blocking path keeps the retry and stale-reply rules.

TEST(AsyncClientTest, SyncUdpCallBypassesTheEngine) {
  UdpServerHost host(/*reactor_workers=*/2);
  RpcServer server(ControlKind::kSunRpc, "sync-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();
  UdpTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  HrpcBinding binding = UdpBinding(*port, 7, ControlKind::kSunRpc);

  const uint64_t before = GlobalAsyncClientEngine()->stats().calls;
  for (int i = 0; i < 5; ++i) {
    Result<Bytes> reply =
        client.Call(binding, 1, Bytes{static_cast<uint8_t>(i)}, RequestContext::WithTimeout(2000));
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, Bytes{static_cast<uint8_t>(i)});
  }
  EXPECT_EQ(GlobalAsyncClientEngine()->stats().calls, before)
      << "a sync datagram Call went through the engine";

  // Control: the same call made async is an engine call.
  ASSERT_TRUE(client.CallAsync(binding, 1, Bytes{9}).Wait().ok());
  EXPECT_EQ(GlobalAsyncClientEngine()->stats().calls, before + 1);
  host.StopAll();
}

// A raw datagram server for the retry tests below: `serve(fd)` runs on its
// own thread and sees every datagram the client sends.
struct RawUdpServer {
  int fd = -1;
  uint16_t port = 0;
  std::thread thread;

  template <typename Fn>
  explicit RawUdpServer(Fn serve) {
    fd = BindBlackHole(&port);
    if (fd >= 0) {
      thread = std::thread([this, serve] { serve(fd); });
    }
  }
  ~RawUdpServer() {
    if (thread.joinable()) {
      thread.join();
    }
    if (fd >= 0) {
      close(fd);
    }
  }
};

struct RawRequest {
  sockaddr_in peer{};
  socklen_t peer_len = sizeof(sockaddr_in);
  RpcCall call;
};

bool RecvRawCall(int fd, RawRequest* out) {
  uint8_t buf[2048];
  out->peer_len = sizeof(out->peer);
  ssize_t n = recvfrom(fd, buf, sizeof(buf), 0, reinterpret_cast<sockaddr*>(&out->peer),
                       &out->peer_len);
  if (n <= 0) {
    return false;
  }
  Result<RpcCall> call = GetControlProtocol(ControlKind::kRaw).DecodeCall(Bytes(buf, buf + n));
  if (!call.ok()) {
    return false;
  }
  out->call = std::move(call).value();
  return true;
}

void SendRawEcho(int fd, const RawRequest& request) {
  RpcReplyMsg reply;
  reply.xid = request.call.xid;
  reply.results = request.call.args;
  Bytes wire = GetControlProtocol(ControlKind::kRaw).EncodeReply(reply);
  (void)sendto(fd, wire.data(), wire.size(), 0,
               reinterpret_cast<const sockaddr*>(&request.peer),
               request.peer_len);  // hcs:ignore-status(test server; a lost reply fails the client's assertion)
}

TEST(AsyncClientTest, SyncCallRetriesADroppedFirstAttemptUnderTheSameXid) {
  std::vector<uint32_t> xids;
  std::vector<uint32_t> attempts;
  RawUdpServer server([&](int fd) {
    RawRequest first;
    RawRequest second;
    if (!RecvRawCall(fd, &first) || !RecvRawCall(fd, &second)) {
      return;
    }
    // The first attempt is dropped on the floor; only the retry is answered.
    xids = {first.call.xid, second.call.xid};
    attempts = {first.call.context.attempt, second.call.context.attempt};
    SendRawEcho(fd, second);
  });
  ASSERT_GE(server.fd, 0);

  UdpTransport transport(/*timeout_ms=*/100);
  RpcClient client(nullptr, "localclient", &transport);
  RpcCallInfo info;
  Result<Bytes> reply = client.Call(UdpBinding(server.port, 7, ControlKind::kRaw), 1,
                                    Bytes{4, 2}, RequestContext::WithTimeout(3000), &info);
  server.thread.join();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, (Bytes{4, 2}));
  EXPECT_EQ(info.attempts, 2u);
  EXPECT_EQ(info.retries, 1u);
  ASSERT_EQ(xids.size(), 2u);
  EXPECT_EQ(xids[0], xids[1]) << "a retry is the same call: it keeps its xid";
  EXPECT_EQ(attempts, (std::vector<uint32_t>{0, 1})) << "the attempt counter is re-marshalled";
}

TEST(AsyncClientTest, LateReplyToAnAbandonedAttemptIsNeverTheNextCallsAnswer) {
  RawUdpServer server([](int fd) {
    RawRequest stale;
    RawRequest next;
    if (!RecvRawCall(fd, &stale) || !RecvRawCall(fd, &next)) {
      return;
    }
    // Answer the first call only once the client gave up on it and moved
    // on, to the address it was sent from, then answer the second.
    SendRawEcho(fd, stale);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    SendRawEcho(fd, next);
  });
  ASSERT_GE(server.fd, 0);

  UdpTransport transport(/*timeout_ms=*/100);
  RpcClient client(nullptr, "localclient", &transport);
  HrpcBinding binding = UdpBinding(server.port, 7, ControlKind::kRaw);
  // No deadline: one attempt, which times out.
  Result<Bytes> first = client.Call(binding, 1, Bytes{1});
  EXPECT_EQ(first.status().code(), StatusCode::kTimeout) << first.status();
  Result<Bytes> second = client.Call(binding, 1, Bytes{2});
  server.thread.join();
  ASSERT_TRUE(second.ok()) << "the stale reply was read as this call's answer: "
                           << second.status();
  EXPECT_EQ(*second, Bytes{2});
}

TEST(AsyncClientTest, DuplicateReplyAfterASuccessIsNeverTheNextCallsAnswer) {
  RawUdpServer server([](int fd) {
    RawRequest first;
    RawRequest second;
    if (!RecvRawCall(fd, &first)) {
      return;
    }
    // The first call is answered twice: the duplicate sits in the client
    // socket's queue once the first call has its answer.
    SendRawEcho(fd, first);
    SendRawEcho(fd, first);
    if (!RecvRawCall(fd, &second)) {
      return;
    }
    // A third copy lands while the second call waits, before its answer.
    SendRawEcho(fd, first);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    SendRawEcho(fd, second);
  });
  ASSERT_GE(server.fd, 0);

  UdpTransport transport(/*timeout_ms=*/2000);
  RpcClient client(nullptr, "localclient", &transport);
  HrpcBinding binding = UdpBinding(server.port, 7, ControlKind::kRaw);
  Result<Bytes> first = client.Call(binding, 1, Bytes{1});
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, Bytes{1});
  RpcCallInfo info;
  Result<Bytes> second =
      client.Call(binding, 1, Bytes{2}, RequestContext::WithTimeout(3000), &info);
  server.thread.join();
  ASSERT_TRUE(second.ok()) << "a duplicate of the first reply was read as this call's answer: "
                           << second.status();
  EXPECT_EQ(*second, Bytes{2});
  EXPECT_EQ(info.attempts, 1u) << "the strays are dropped within the attempt, not retried past";
}

// 1k futures across four contention classes — plain success, tight deadline
// racing the reply, guaranteed timeout, and a final wave destroyed mid-
// flight with the engine — each counting its OnComplete firings. Every
// future must complete, and every callback must fire exactly once, no
// matter which of completion/timeout/engine-stop wins the race.
TEST(AsyncClientTest, OnCompleteFiresExactlyOnceUnderRaces) {
  UdpServerHost host(/*reactor_workers=*/8);
  RpcServer server(ControlKind::kSunRpc, "stress-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();
  uint16_t hole_port = 0;
  int hole_fd = BindBlackHole(&hole_port);
  ASSERT_GE(hole_fd, 0);

  constexpr int kFutures = 1000;
  std::vector<std::atomic<int>> fired(kFutures);
  std::vector<RpcFuture> futures(kFutures);
  UdpTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  HrpcBinding live = UdpBinding(*port, 7, ControlKind::kSunRpc);
  HrpcBinding hole = UdpBinding(hole_port, 7, ControlKind::kSunRpc);
  {
    AsyncClientEngine engine;
    client.set_async_engine(&engine);
    auto issue = [&](int i, const HrpcBinding& binding, const RequestContext& context) {
      futures[i] = client.CallAsync(binding, 1, Bytes{static_cast<uint8_t>(i & 0xff)}, context);
      futures[i].OnComplete([&fired, i](const Result<Bytes>&, const RpcCallInfo&) {
        fired[i].fetch_add(1, std::memory_order_relaxed);
      });
    };
    for (int i = 0; i < 250; ++i) {
      issue(i, live, RequestContext{});  // completes with the echo reply
    }
    for (int i = 250; i < 500; ++i) {
      // Deadline in the same band as the loopback RTT: the reply and the
      // attempt-timeout timer race for the one completion.
      issue(i, live, RequestContext::WithTimeout(1 + i % 3));
    }
    for (int i = 500; i < 750; ++i) {
      issue(i, hole, RequestContext::WithTimeout(20));  // guaranteed timeout
    }
    for (int i = 0; i < 750; ++i) {
      // hcs:ignore-status(outcome is class-dependent by design; the firing count is the assertion)
      (void)futures[i].Wait();
    }
    // The final wave is still in flight when the engine is destroyed: its
    // fail-all races any replies that beat the shutdown to the loop.
    for (int i = 750; i < kFutures; ++i) {
      issue(i, live, RequestContext{});
    }
  }
  for (int i = 0; i < kFutures; ++i) {
    ASSERT_TRUE(futures[i].ready()) << "future " << i << " never completed";
    EXPECT_EQ(fired[i].load(), 1)
        << "OnComplete fired " << fired[i].load() << " times for future " << i;
  }
  close(hole_fd);
  host.StopAll();
  client.set_async_engine(nullptr);
}

// --- Loop-affinity runtime enforcement (DESIGN.md §15) ----------------------
//
// The static half of the threading rules is tools/lint_loop.py; these death
// tests pin the runtime half: HCS_ASSERT_LOOP aborts on off-loop access to
// loop-owned state, and the Wait-on-loop-thread detector turns a silent
// self-deadlock into a diagnostic abort naming the future's birth site.

#if !HCS_LOOP_DEBUG_ENABLED

TEST(LoopAffinityDeathTest, DebugModeCompiledOut) {
  GTEST_SKIP() << "HCS_LOOP_DEBUG_ENABLED is 0 (NDEBUG without HCS_DEBUG_LOOP): "
                  "the loop-affinity aborts are compiled out of this build";
}

#else

// Waiting on a future from the engine's own loop thread (here: inside an
// OnComplete callback, which runs on the loop) would self-deadlock — the
// loop is the only thread that can complete the awaited future. The
// detector must abort instead, naming this file as the birth site.
void WaitOnLoopThread() {
  UdpServerHost host(/*reactor_workers=*/4);
  RpcServer server(ControlKind::kSunRpc, "wait-on-loop");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);
  // Prove the server answers before committing the violation.
  ASSERT_TRUE(client.CallAsync(UdpBinding(*port, 7, ControlKind::kSunRpc), 1, Bytes{1})
                  .Wait()
                  .ok());

  uint16_t hole_port = 0;
  int hole_fd = BindBlackHole(&hole_port);
  ASSERT_GE(hole_fd, 0);
  HrpcBinding hole = UdpBinding(hole_port, 7, ControlKind::kSunRpc);
  RpcFuture pending = client.CallAsync(hole, 1, Bytes{2}, RequestContext::WithTimeout(2000));
  RpcFuture doomed = client.CallAsync(hole, 1, Bytes{3}, RequestContext::WithTimeout(50));
  doomed.OnComplete([&pending](const Result<Bytes>&, const RpcCallInfo&) {
    // hcs:ignore-status(deliberate violation: the detector aborts inside this Wait)
    (void)pending.Wait();  // on the loop thread: the detector aborts here
  });
  // hcs:ignore-status(never returns — the child process aborts ~50 ms in)
  (void)pending.Wait();
  close(hole_fd);
}

// A sync Call made on the loop thread blocks the loop for the whole
// exchange; the detector aborts instead, naming the caller.
void SyncCallOnLoopThread() {
  UdpServerHost host(/*reactor_workers=*/2);
  RpcServer server(ControlKind::kSunRpc, "call-on-loop");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);
  HrpcBinding binding = UdpBinding(*port, 7, ControlKind::kSunRpc);

  uint16_t hole_port = 0;
  int hole_fd = BindBlackHole(&hole_port);
  ASSERT_GE(hole_fd, 0);
  // Still pending when OnComplete registers, so the callback runs on the
  // loop thread when the 50 ms budget expires.
  RpcFuture doomed = client.CallAsync(UdpBinding(hole_port, 7, ControlKind::kSunRpc), 1,
                                      Bytes{3}, RequestContext::WithTimeout(50));
  doomed.OnComplete([&client, binding](const Result<Bytes>&, const RpcCallInfo&) {
    // hcs:ignore-status(deliberate violation: the detector aborts inside this Call)
    (void)client.Call(binding, 1, Bytes{2});  // on the loop thread
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2000));  // the child aborts ~50 ms in
  close(hole_fd);
}

// Touching a running reactor's loop-owned state (the timer wheel) from off
// the loop thread must abort, naming the violating entry point.
void TouchLoopOwnedStateOffLoop() {
  UdpServerHost host(/*reactor_workers=*/4);
  RpcServer server(ControlKind::kSunRpc, "assert-loop");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  ASSERT_TRUE(host.Serve(&server, 0).ok());

  ReactorOptions options;
  options.workers = -1;  // client-only: the loop owns everything
  Reactor reactor(options);
  ASSERT_TRUE(reactor.Start().ok());
  // Wait until the loop thread has marked itself live: Start() returns as
  // soon as the thread is spawned, and HCS_ASSERT_LOOP deliberately passes
  // while the loop is not yet running (single-threaded setup is sanctioned).
  std::atomic<bool> loop_live{false};
  ASSERT_TRUE(reactor.Post([&loop_live] { loop_live.store(true); }));
  while (!loop_live.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // hcs:on-loop(deliberate violation: this death test proves HCS_ASSERT_LOOP aborts)
  (void)reactor.ScheduleAfter(1000, [] {});
  reactor.Stop();
}

TEST(LoopAffinityDeathTest, WaitOnLoopThreadAbortsWithBirthSite) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(WaitOnLoopThread(), "self-deadlocks.*async_client_test");
}

TEST(LoopAffinityDeathTest, SyncCallOnLoopThreadAbortsWithCallSite) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(SyncCallOnLoopThread(), "RpcClient::Call\\(\\) on the event-loop thread.*async_client_test");
}

TEST(LoopAffinityDeathTest, OffLoopTimerAccessAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(TouchLoopOwnedStateOffLoop(), "HCS_ASSERT_LOOP: ScheduleAfter");
}

#endif  // HCS_LOOP_DEBUG_ENABLED

}  // namespace
}  // namespace hcs
