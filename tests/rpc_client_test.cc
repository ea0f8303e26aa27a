// RpcClient over real sockets: every call runs on the caller's thread.
// CallMany waves on UDP (all requests out before any reply is read,
// replies matched by xid, unanswered calls re-sent under their own xids),
// the same waves run one call at a time on a transport without waves, the
// ResolveMany / PrefetchRecords layers built on them, the blocking call's
// retry and stray-reply rules, and the process-wide client counters
// (GlobalAsyncClientEngine()) that hnsbench reads.
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
  b.service_name = "client-test";
  b.host = "localhost";
  b.port = port;
  b.program = program;
  b.version = 2;
  b.control = control;
  b.transport = TransportKind::kUdp;
  return b;
}

AsyncEngineStats Counters() { return GlobalAsyncClientEngine()->stats(); }

TEST(RpcClientTest, UdpWaveCompletesEveryCall) {
  UdpServerHost host;
  RpcServer server(ControlKind::kSunRpc, "wave-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);

  constexpr int kCalls = 32;
  std::vector<Bytes> payloads;
  for (int i = 0; i < kCalls; ++i) {
    XdrEncoder enc;
    enc.PutUint32(static_cast<uint32_t>(i));
    payloads.push_back(enc.Take());
  }
  const AsyncEngineStats before = Counters();
  std::vector<Result<Bytes>> replies =
      client.CallMany(UdpBinding(*port, 7, ControlKind::kSunRpc), 1, payloads);
  const AsyncEngineStats after = Counters();
  ASSERT_EQ(replies.size(), payloads.size());
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(replies[i].ok()) << replies[i].status();
    EXPECT_EQ(*replies[i], payloads[i]) << "reply " << i << " matched to the wrong call";
  }
  // A wave of N is N calls on the wire, none re-sent, no stray read.
  EXPECT_EQ(after.calls - before.calls, static_cast<uint64_t>(kCalls));
  EXPECT_EQ(after.retries - before.retries, 0u);
  EXPECT_EQ(after.udp_unmatched - before.udp_unmatched, 0u);
  host.StopAll();
}

TEST(RpcClientTest, UdpWaveCallsShareTheWallClock) {
  constexpr int kCalls = 16;
  constexpr int kDelayMs = 25;
  UdpServerHost host(/*reactor_workers=*/8);
  RpcServer server(ControlKind::kRaw, "wave-delay");
  server.RegisterProcedure(7, 1, [kDelayMs](BytesView args) -> Result<Bytes> {
    std::this_thread::sleep_for(std::chrono::milliseconds(kDelayMs));
    return args.ToBytes();
  });
  Result<uint16_t> port = host.ServeConcurrent(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(nullptr, "localclient", &transport);

  Clock::time_point start = Clock::now();
  std::vector<Result<Bytes>> replies = client.CallMany(
      UdpBinding(*port, 7, ControlKind::kRaw), 1, std::vector<Bytes>(kCalls, Bytes{1}));
  int64_t elapsed = ElapsedMs(start);
  for (const Result<Bytes>& reply : replies) {
    ASSERT_TRUE(reply.ok()) << reply.status();
  }
  // Sequential would cost kCalls * kDelayMs = 400 ms; 16 in flight across 8
  // server workers cost ~2 delays. The bound leaves a wide scheduling margin
  // while still being unreachable by a serialized client.
  EXPECT_LT(elapsed, kCalls * kDelayMs / 2) << "the wave did not overlap server-side delays";
  host.StopAll();
}

// On a transport without waves, CallMany is N Calls: the same replies and
// exactly the same virtual-clock charges, in the same order.
TEST(RpcClientTest, WaveOnASimTransportChargesWhatItsCallsCharge) {
  auto run = [](bool many) {
    World world;
    EXPECT_TRUE(world.network().AddHost("client", MachineType::kSun, OsType::kUnix).ok());
    EXPECT_TRUE(world.network().AddHost("server", MachineType::kSun, OsType::kUnix).ok());
    RpcServer server(ControlKind::kCourier, "sim-echo");
    server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
    EXPECT_TRUE(world.RegisterService("server", 1000, &server).ok());
    SimNetTransport transport(&world);
    RpcClient client(&world, "client", &transport);
    HrpcBinding binding = UdpBinding(1000, 7, ControlKind::kCourier);
    binding.host = "server";
    std::vector<Bytes> bodies;
    for (uint8_t i = 0; i < 5; ++i) {
      bodies.push_back(Bytes(1 + 40 * i, i));
    }
    std::vector<Result<Bytes>> replies;
    if (many) {
      replies = client.CallMany(binding, 1, bodies);
    } else {
      for (const Bytes& body : bodies) {
        replies.push_back(client.Call(binding, 1, body));
      }
    }
    for (size_t i = 0; i < bodies.size(); ++i) {
      EXPECT_TRUE(replies[i].ok()) << replies[i].status();
      EXPECT_EQ(replies[i].ok() ? *replies[i] : Bytes{}, bodies[i]);
    }
    return world.clock().NowMs();
  };
  const double calls_ms = run(/*many=*/false);
  EXPECT_GT(calls_ms, 0.0);
  EXPECT_EQ(run(/*many=*/true), calls_ms);
}

TEST(RpcClientTest, ResolveManyIssuesRemoteFindNsmConcurrently) {
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
TEST(RpcClientTest, ResolveManyReportsPartialFailurePerName) {
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

  // The fault wrapper runs no waves, so each unique pair's exchange runs
  // on its own, in first-occurrence order — decision k belongs to
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

TEST(RpcClientTest, PrefetchRecordsFetchesAWaveConcurrently) {
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

// Binds a UDP socket for a raw test server (RawUdpServer below).
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

// --- Sync calls run on the caller's thread ----------------------------------
//
// RpcClient::Call makes its exchange on the calling thread (DESIGN.md §14);
// these pin its counters and its retry and stale-reply rules.

TEST(RpcClientTest, SyncCallsCountOneWireCallEach) {
  UdpServerHost host(/*reactor_workers=*/2);
  RpcServer server(ControlKind::kSunRpc, "sync-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();
  UdpTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  HrpcBinding binding = UdpBinding(*port, 7, ControlKind::kSunRpc);

  const AsyncEngineStats before = Counters();
  for (int i = 0; i < 5; ++i) {
    Result<Bytes> reply =
        client.Call(binding, 1, Bytes{static_cast<uint8_t>(i)}, RequestContext::WithTimeout(2000));
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, Bytes{static_cast<uint8_t>(i)});
  }
  const AsyncEngineStats after = Counters();
  EXPECT_EQ(after.calls - before.calls, 5u);
  EXPECT_EQ(after.retries - before.retries, 0u);
  EXPECT_EQ(after.udp_unmatched - before.udp_unmatched, 0u);
  host.StopAll();
}

TEST(RpcClientTest, SyncCallRetriesADroppedFirstAttemptUnderTheSameXid) {
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
  const AsyncEngineStats before = Counters();
  Result<Bytes> reply = client.Call(UdpBinding(server.port, 7, ControlKind::kRaw), 1,
                                    Bytes{4, 2}, RequestContext::WithTimeout(3000), &info);
  const AsyncEngineStats after = Counters();
  server.thread.join();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, (Bytes{4, 2}));
  EXPECT_EQ(after.calls - before.calls, 1u);
  EXPECT_EQ(after.retries - before.retries, 1u) << "one dropped attempt is one re-send";
  EXPECT_EQ(info.attempts, 2u);
  EXPECT_EQ(info.retries, 1u);
  ASSERT_EQ(xids.size(), 2u);
  EXPECT_EQ(xids[0], xids[1]) << "a retry is the same call: it keeps its xid";
  EXPECT_EQ(attempts, (std::vector<uint32_t>{0, 1})) << "the attempt counter is re-marshalled";
}

TEST(RpcClientTest, LateReplyToAnAbandonedAttemptIsNeverTheNextCallsAnswer) {
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

TEST(RpcClientTest, DuplicateReplyAfterASuccessIsNeverTheNextCallsAnswer) {
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
  const AsyncEngineStats before = Counters();
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
  // Both copies of the first reply were read, and dropped, by the second call.
  EXPECT_EQ(Counters().udp_unmatched - before.udp_unmatched, 2u);
}

// One call of a wave loses its first attempt: the wave re-sends only that
// call, under its own xid, with the attempt counter re-marshalled; the
// others are answered once.
TEST(RpcClientTest, WaveResendsOnlyTheUnansweredCallUnderItsXid) {
  constexpr int kCalls = 4;
  std::vector<RawRequest> seen;
  RawUdpServer server([&](int fd) {
    // The first round: answer every call but the first one received.
    for (int i = 0; i < kCalls; ++i) {
      RawRequest request;
      if (!RecvRawCall(fd, &request)) {
        return;
      }
      seen.push_back(request);
      if (i > 0) {
        SendRawEcho(fd, request);
      }
    }
    RawRequest resent;
    if (RecvRawCall(fd, &resent)) {
      seen.push_back(resent);
      SendRawEcho(fd, resent);
    }
  });
  ASSERT_GE(server.fd, 0);

  UdpTransport transport(/*timeout_ms=*/100);
  RpcClient client(nullptr, "localclient", &transport);
  std::vector<Bytes> bodies;
  for (int i = 0; i < kCalls; ++i) {
    bodies.push_back(Bytes{static_cast<uint8_t>(i), 0x11});
  }
  const AsyncEngineStats before = Counters();
  std::vector<Result<Bytes>> replies =
      client.CallMany(UdpBinding(server.port, 7, ControlKind::kRaw), 1, bodies,
                      RequestContext::WithTimeout(3000));
  const AsyncEngineStats after = Counters();
  server.thread.join();
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(replies[i].ok()) << "call " << i << ": " << replies[i].status();
    EXPECT_EQ(*replies[i], bodies[i]);
  }
  ASSERT_EQ(seen.size(), static_cast<size_t>(kCalls + 1));
  EXPECT_EQ(seen.back().call.xid, seen.front().call.xid) << "a re-send keeps its call's xid";
  EXPECT_EQ(seen.back().call.args, seen.front().call.args);
  EXPECT_EQ(seen.front().call.context.attempt, 0u);
  EXPECT_EQ(seen.back().call.context.attempt, 1u) << "the attempt counter is re-marshalled";
  EXPECT_EQ(after.calls - before.calls, static_cast<uint64_t>(kCalls));
  EXPECT_EQ(after.retries - before.retries, 1u);
}

}  // namespace
}  // namespace hcs
