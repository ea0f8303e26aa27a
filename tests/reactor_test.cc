// Reactor runtime tests (ctest label `concurrency`; TSan-clean under
// -DHCS_SANITIZE=thread):
//
//   - Start/Stop idempotence and restartability, including Serve after
//     StopAll on a UdpServerHost.
//   - End-to-end echo over the reactor for every control protocol, on both
//     UDP and length-prefixed stream endpoints.
//   - The FindNSM vs Register/Unregister storm from concurrency_test.cc,
//     re-run with the meta authority served by the reactor.
//   - The worker-read serving model: nested calls between endpoints of one
//     reactor, Stop() with handlers mid-flight, and loop-thread self-posts
//     that skip the eventfd wake.
//   - RequestContext deadline semantics: client-side shed before send,
//     dispatch-time shed when queue delay eats the budget, ambient
//     inheritance across a server hop, NSM budget checks, and per-attempt
//     retry with backoff against a flaky endpoint.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/bindns/server.h"
#include "src/hns/hns.h"
#include "src/hns/meta_store.h"
#include "src/hns/name.h"
#include "src/nsm/host_table.h"
#include "src/rpc/client.h"
#include "src/rpc/context.h"
#include "src/rpc/ports.h"
#include "src/rpc/reactor.h"
#include "src/rpc/server.h"
#include "src/rpc/stream_transport.h"
#include "src/rpc/udp_transport.h"
#include "src/sim/world.h"
#include "src/wire/value.h"

namespace hcs {
namespace {

HrpcBinding LoopbackBinding(uint16_t port, uint32_t program, ControlKind control,
                            TransportKind transport = TransportKind::kUdp) {
  HrpcBinding b;
  b.service_name = "reactor-test";
  b.host = "localhost";
  b.port = port;
  b.program = program;
  b.version = 2;
  b.control = control;
  b.transport = transport;
  return b;
}

TEST(ReactorTest, StartStopIdempotentAndRestartable) {
  Reactor reactor;
  EXPECT_FALSE(reactor.running());
  ASSERT_TRUE(reactor.Start().ok());
  ASSERT_TRUE(reactor.Start().ok()) << "second Start must be a no-op";
  EXPECT_TRUE(reactor.running());
  reactor.Stop();
  reactor.Stop();  // idempotent
  EXPECT_FALSE(reactor.running());
  ASSERT_TRUE(reactor.Start().ok()) << "a stopped reactor must restart";
  EXPECT_TRUE(reactor.running());
  reactor.Stop();
}

TEST(ReactorTest, ServeAfterStopAllRestartsTheReactor) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "restart-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    Result<uint16_t> port = host.Serve(&server, 0);
    ASSERT_TRUE(port.ok()) << port.status();
    Result<Bytes> reply =
        client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1, Bytes{9, 8, 7});
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, (Bytes{9, 8, 7}));
    host.StopAll();
  }
}

TEST(ReactorTest, EchoOverReactorAllControlProtocols) {
  UdpServerHost host;
  UdpTransport udp;
  TcpStreamTransport tcp;
  RpcClient udp_client(/*world=*/nullptr, "localclient", &udp);
  RpcClient tcp_client(/*world=*/nullptr, "localclient", &tcp);

  std::vector<std::unique_ptr<RpcServer>> keepalive;
  for (ControlKind kind : {ControlKind::kSunRpc, ControlKind::kCourier, ControlKind::kRaw}) {
    SCOPED_TRACE(ControlKindName(kind));
    auto server = std::make_unique<RpcServer>(kind, "reactor-echo");
    server->RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> {
      Bytes out = args.ToBytes();
      out.push_back(0x42);
      return out;
    });

    Result<uint16_t> udp_port = host.Serve(server.get(), 0);
    ASSERT_TRUE(udp_port.ok()) << udp_port.status();
    Result<Bytes> reply =
        udp_client.Call(LoopbackBinding(*udp_port, 7, kind), 1, Bytes{1, 2, 3});
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, (Bytes{1, 2, 3, 0x42}));

    Result<uint16_t> tcp_port = host.ServeStream(server.get(), 0);
    ASSERT_TRUE(tcp_port.ok()) << tcp_port.status();
    reply = tcp_client.Call(LoopbackBinding(*tcp_port, 7, kind, TransportKind::kTcp), 1,
                            Bytes{4, 5});
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, (Bytes{4, 5, 0x42}));

    keepalive.push_back(std::move(server));
  }
  EXPECT_GE(host.reactor()->dispatched(), 6u);
  host.StopAll();
}

// A linked HostAddress NSM answering from a fixed table (see
// concurrency_test.cc) — bounds the FindNSM recursion without the network.
class FixedAddressNsm : public Nsm {
 public:
  FixedAddressNsm(NsmInfo info, uint32_t address)
      : info_(std::move(info)), address_(address) {}

  const NsmInfo& info() const override { return info_; }

  Result<WireValue> Query(const HnsName& name, const WireValue&) override {
    return RecordBuilder().U32("address", address_).Str("host", name.individual).Build();
  }

 private:
  NsmInfo info_;
  uint32_t address_;
};

// The composite-invalidation storm from concurrency_test.cc, with the meta
// authority served by the reactor instead of a dedicated thread. The BIND
// server touches the (non-thread-safe) World, so it relies on the
// reactor's serial-per-endpoint dispatch contract.
TEST(ReactorTest, FindNsmStormAgainstReactorServedMetaStore) {
  World world;
  ASSERT_TRUE(world.network().AddHost("metahost", MachineType::kMicroVax, OsType::kUnix).ok());
  BindServerOptions meta_options;
  meta_options.allow_dynamic_update = true;
  meta_options.allow_unspecified_type = true;
  BindServer* meta_bind = BindServer::InstallOn(&world, "metahost", meta_options).value();
  ASSERT_TRUE(meta_bind->AddZone(MetaStore::kMetaZoneOrigin).ok());

  UdpServerHost server_host;
  Result<uint16_t> port = server_host.Serve(meta_bind->rpc(), 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  HnsOptions options;
  options.meta_server_host = "metahost";
  options.composite_cache = true;
  options.cache.negative_ttl_seconds = 1;
  Hns hns(/*world=*/nullptr, "client", &transport, options);
  hns.meta().set_meta_port(*port);

  NsmInfo addr_info;
  addr_info.nsm_name = "AddrNSM";
  addr_info.query_class = kQueryClassHostAddress;
  addr_info.ns_name = "UW-BIND";
  addr_info.host = "metahost";
  addr_info.host_context = "hostctx";
  ASSERT_TRUE(hns.LinkNsm(std::make_shared<FixedAddressNsm>(addr_info, 0x7f000001)).ok());

  NameServiceInfo ns_info;
  ns_info.name = "UW-BIND";
  ns_info.type = "BIND";
  ASSERT_TRUE(hns.RegisterNameService(ns_info).ok());
  ASSERT_TRUE(hns.RegisterContext("stormctx", "UW-BIND").ok());
  ASSERT_TRUE(hns.RegisterContext("hostctx", "UW-BIND").ok());
  ASSERT_TRUE(hns.RegisterNsm(addr_info).ok());
  NsmInfo storm_info;
  storm_info.nsm_name = "StormNSM";
  storm_info.query_class = kQueryClassHrpcBinding;
  storm_info.ns_name = "UW-BIND";
  storm_info.host = "nsmhost";
  storm_info.host_context = "hostctx";
  storm_info.program = 4242;
  storm_info.version = 1;
  storm_info.port = 999;
  ASSERT_TRUE(hns.RegisterNsm(storm_info).ok());

  HnsName name;
  name.context = "stormctx";
  name.individual = "anything";

  {
    Result<NsmHandle> warm = hns.FindNsm(name, kQueryClassHrpcBinding);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm->nsm_name, "StormNSM");
  }

  constexpr int kReaders = 4;
  constexpr int kReadsPerThread = 150;
  std::atomic<int> ok_results{0};
  std::atomic<int> clean_failures{0};
  std::atomic<int> wrong_results{0};

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        Result<NsmHandle> handle = hns.FindNsm(name, kQueryClassHrpcBinding);
        if (handle.ok()) {
          if (handle->nsm_name == "StormNSM" && handle->binding.program == 4242 &&
              handle->binding.port == 999 && handle->binding.address == 0x7f000001) {
            ++ok_results;
          } else {
            ++wrong_results;
          }
        } else {
          ++clean_failures;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < 12; ++round) {
      EXPECT_TRUE(hns.UnregisterNsm("UW-BIND", kQueryClassHrpcBinding).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      EXPECT_TRUE(hns.RegisterNsm(storm_info).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(wrong_results.load(), 0) << "a FindNSM result was torn by invalidation";
  EXPECT_EQ(ok_results.load() + clean_failures.load(), kReaders * kReadsPerThread);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool converged = false;
  while (std::chrono::steady_clock::now() < deadline) {
    Result<NsmHandle> handle = hns.FindNsm(name, kQueryClassHrpcBinding);
    if (handle.ok() && handle->nsm_name == "StormNSM") {
      converged = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(converged) << "FindNSM never recovered after the registration storm";
  server_host.StopAll();
}

// --- The worker-read serving model ------------------------------------------

// A serial handler that blocks on a call to a sibling endpoint of the same
// reactor holds one worker while another serves the sibling: with the
// default pool (at least two workers) the nested call completes.
TEST(ReactorTest, SerialHandlerNestedCallCompletesWithDefaultWorkers) {
  UdpServerHost host;
  RpcServer backend(ControlKind::kRaw, "nested-backend");
  backend.RegisterProcedure(8, 1, [](BytesView args) -> Result<Bytes> {
    Bytes out = args.ToBytes();
    out.push_back(0xbe);
    return out;
  });
  Result<uint16_t> backend_port = host.Serve(&backend, 0);
  ASSERT_TRUE(backend_port.ok()) << backend_port.status();

  UdpTransport nested_transport;
  RpcClient nested_client(/*world=*/nullptr, "fronthost", &nested_transport);
  RpcServer front(ControlKind::kRaw, "nested-front");
  front.RegisterProcedure(7, 1, [&](BytesView args) -> Result<Bytes> {
    return nested_client.Call(LoopbackBinding(*backend_port, 8, ControlKind::kRaw), 1, args);
  });
  Result<uint16_t> front_port = host.Serve(&front, 0);
  ASSERT_TRUE(front_port.ok()) << front_port.status();

  UdpTransport transport(/*timeout_ms=*/2000);
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  for (int i = 0; i < 20; ++i) {
    Result<Bytes> reply = client.Call(LoopbackBinding(*front_port, 7, ControlKind::kRaw), 1,
                                      Bytes{static_cast<uint8_t>(i)});
    ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.status();
    EXPECT_EQ(*reply, (Bytes{static_cast<uint8_t>(i), 0xbe}));
  }
  host.StopAll();
}

// Stop() while workers sit inside slow handlers: the handlers finish, the
// workers join, and no client is left hanging past its own timeout.
TEST(ReactorTest, StopWithHandlersMidFlightJoinsCleanly) {
  UdpServerHost host(/*reactor_workers=*/4);
  std::atomic<int> entered{0};
  std::atomic<int> finished{0};
  RpcServer slow(ControlKind::kRaw, "slow-concurrent");
  slow.RegisterProcedure(7, 1, [&](BytesView args) -> Result<Bytes> {
    entered.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    finished.fetch_add(1);
    return args.ToBytes();
  });
  Result<uint16_t> port = host.ServeConcurrent(&slow, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      UdpTransport transport(/*timeout_ms=*/500);
      RpcClient client(/*world=*/nullptr, "localclient", &transport);
      // hcs:ignore-status(the reply may or may not beat the stop; only the join is under test)
      (void)client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1,
                        Bytes{static_cast<uint8_t>(c)});
    });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (entered.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(entered.load(), 0) << "no handler started";
  host.StopAll();
  EXPECT_EQ(finished.load(), entered.load()) << "Stop returned with a handler still running";
  for (std::thread& client : clients) {
    client.join();
  }
}

// Tasks posted from the loop thread skip the eventfd wake; the loop must
// still run them before it blocks. A 1000-link chain of self-posts on an
// otherwise idle loop completes only if no wake is ever lost.
TEST(ReactorTest, SelfPostChainFromLoopTasksCompletes) {
  ReactorOptions options;
  options.workers = -1;  // client-only: nothing else to wake the loop
  Reactor reactor(options);
  ASSERT_TRUE(reactor.Start().ok());
  constexpr int kLinks = 1000;
  Mutex mu;
  CondVar cv;
  int ran = 0;
  bool posted_on_loop = true;
  std::function<void()> link = [&] {
    bool done = false;
    {
      MutexLock lock(mu);
      posted_on_loop = posted_on_loop && reactor.on_loop_thread();
      done = ++ran == kLinks;
    }
    if (done) {
      cv.NotifyAll();
    } else {
      EXPECT_TRUE(reactor.Post(link));
    }
  };
  ASSERT_TRUE(reactor.Post(link));
  {
    MutexLock lock(mu);
    EXPECT_TRUE(cv.WaitFor(mu, 5000, [&] { return ran == kLinks; }))
        << "the chain stalled after " << ran << " links: a loop-thread post lost its wake";
    EXPECT_TRUE(posted_on_loop);
  }
  reactor.Stop();
}

// --- RequestContext deadline semantics --------------------------------------

TEST(ReactorTest, ClientShedsSpentBudgetBeforeSending) {
  UdpServerHost host;
  std::atomic<int> invocations{0};
  RpcServer server(ControlKind::kRaw, "never-called");
  server.RegisterProcedure(7, 1, [&](BytesView args) -> Result<Bytes> {
    ++invocations;
    return args.ToBytes();
  });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  RpcCallInfo info;
  Result<Bytes> reply = client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1,
                                    Bytes{1}, RequestContext::WithTimeout(0), &info);
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(info.attempts, 0u) << "a spent budget must shed before the first send";
  EXPECT_NE(info.trace_id, 0u);

  // Give any stray datagram time to arrive; none may.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(invocations.load(), 0);
  host.StopAll();
}

TEST(ReactorTest, QueueDelayCountsAgainstTheBudget) {
  // One serial endpoint whose handler holds the queue for 250 ms. A second
  // request with a 100 ms budget arrives while the first is being served;
  // by the time it is dispatched its (arrival-rebased) deadline has passed,
  // so the server sheds it without invoking the handler.
  UdpServerHost host;
  std::atomic<int> invocations{0};
  RpcServer server(ControlKind::kRaw, "slow-serial");
  server.RegisterProcedure(7, 1, [&](BytesView args) -> Result<Bytes> {
    ++invocations;
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    return args.ToBytes();
  });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  std::thread front([&] {
    UdpTransport transport(/*timeout_ms=*/2000);
    RpcClient client(/*world=*/nullptr, "localclient", &transport);
    Result<Bytes> reply =
        client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1, Bytes{1});
    EXPECT_TRUE(reply.ok()) << reply.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  UdpTransport transport(/*timeout_ms=*/2000);
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  Result<Bytes> reply = client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1,
                                    Bytes{2}, RequestContext::WithTimeout(100));
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  front.join();

  // Let the serial queue drain fully, then confirm the budgeted request was
  // shed at dispatch rather than served late.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(invocations.load(), 1) << "the expired request must be shed, not served";
  host.StopAll();
}

TEST(ReactorTest, AmbientContextPropagatesAcrossServerHop) {
  // front's handler burns the whole budget, then makes a nested call to
  // `backend` without passing a context: the ambient (decoded) context must
  // be inherited, found expired, and shed before the nested send.
  UdpServerHost host;
  std::atomic<int> backend_invocations{0};
  RpcServer backend(ControlKind::kRaw, "backend");
  backend.RegisterProcedure(8, 1, [&](BytesView args) -> Result<Bytes> {
    ++backend_invocations;
    return args.ToBytes();
  });
  Result<uint16_t> backend_port = host.Serve(&backend, 0);
  ASSERT_TRUE(backend_port.ok()) << backend_port.status();

  UdpTransport nested_transport;
  RpcClient nested_client(/*world=*/nullptr, "fronthost", &nested_transport);
  RpcServer front(ControlKind::kRaw, "front");
  front.RegisterProcedure(7, 1, [&](BytesView args) -> Result<Bytes> {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return nested_client.Call(LoopbackBinding(*backend_port, 8, ControlKind::kRaw), 1, args);
  });
  Result<uint16_t> front_port = host.Serve(&front, 0);
  ASSERT_TRUE(front_port.ok()) << front_port.status();

  UdpTransport transport(/*timeout_ms=*/2000);
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  Result<Bytes> reply = client.Call(LoopbackBinding(*front_port, 7, ControlKind::kRaw), 1,
                                    Bytes{1}, RequestContext::WithTimeout(100));
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(backend_invocations.load(), 0)
      << "the nested call must inherit the ambient deadline and shed";
  host.StopAll();
}

TEST(ReactorTest, NsmShedsQueryWhenAmbientBudgetSpent) {
  UdpTransport transport;
  NsmInfo info;
  info.nsm_name = "HostTableNSM";
  info.query_class = kQueryClassHostAddress;
  info.ns_name = "HostTable";
  info.host = "tablehost";
  info.host_context = "hostctx";
  HostTableHostAddressNsm nsm(/*world=*/nullptr, "client", &transport, info, "tablehost");

  HnsName name;
  name.context = "hostctx";
  name.individual = "fiji";

  ScopedRequestContext scope(RequestContext::WithTimeout(0));
  Result<WireValue> result = nsm.Query(name, WireValue::OfRecord({}));
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << "an NSM must shed a query whose budget is already spent";
}

TEST(ReactorTest, HnsFindNsmShedsOnEntryWithoutMetaTraffic) {
  UdpTransport transport;
  HnsOptions options;
  options.meta_server_host = "metahost";
  Hns hns(/*world=*/nullptr, "client", &transport, options);

  HnsName name;
  name.context = "anyctx";
  name.individual = "x";
  Result<NsmHandle> handle =
      hns.FindNsm(name, kQueryClassHrpcBinding, RequestContext::WithTimeout(0));
  EXPECT_EQ(handle.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(hns.meta().remote_lookups(), 0u)
      << "a shed FindNSM must not touch the meta store";
}

// A service whose first `failures` requests are dropped (no reply), after
// which it delegates — the flaky-endpoint case the per-attempt retry loop
// exists for.
class FlakyService : public SimService {
 public:
  FlakyService(SimService* inner, int failures) : inner_(inner), failures_(failures) {}

  Result<Bytes> HandleMessage(const Bytes& request) override {
    if (failures_.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      return UnavailableError("flaky: dropping this request");
    }
    return inner_->HandleMessage(request);
  }

 private:
  SimService* inner_;
  std::atomic<int> failures_;
};

TEST(ReactorTest, BudgetedCallRetriesThroughTransientLoss) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "flaky-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  FlakyService flaky(&server, /*failures=*/2);
  Result<uint16_t> port = host.Serve(&flaky, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  // Short per-try transport timeout, generous overall budget: the first two
  // attempts are dropped on the floor and time out; the third succeeds.
  UdpTransport transport(/*timeout_ms=*/100);
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  RpcCallInfo info;
  Result<Bytes> reply = client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1,
                                    Bytes{5, 6}, RequestContext::WithTimeout(5000), &info);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, (Bytes{5, 6}));
  EXPECT_EQ(info.attempts, 3u);
  EXPECT_EQ(info.retries, 2u);
  host.StopAll();
}

TEST(ReactorTest, UnbudgetedCallStaysSingleAttempt) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "flaky-once");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  FlakyService flaky(&server, /*failures=*/1);
  Result<uint16_t> port = host.Serve(&flaky, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport(/*timeout_ms=*/100);
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  RpcCallInfo info;
  Result<Bytes> reply =
      client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1, Bytes{1},
                  RequestContext{}, &info);
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout)
      << "without a deadline there is no retry license";
  EXPECT_EQ(info.attempts, 1u);
  EXPECT_EQ(info.retries, 0u);
  host.StopAll();
}

// Singleflight followers must not outwait their own deadline when the
// leader's upstream fetch is slow.
TEST(ReactorTest, SingleflightFollowerHonorsItsOwnDeadline) {
  UdpServerHost host;
  RpcServer slow_bind(ControlKind::kRaw, "slow-meta");
  slow_bind.RegisterProcedure(
      kBindProgram, kBindProcQuery, [](BytesView) -> Result<Bytes> {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        return UnavailableError("never answers in time");
      });
  Result<uint16_t> port = host.ServeConcurrent(&slow_bind, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport(/*timeout_ms=*/600);
  RpcClient rpc(/*world=*/nullptr, "localclient", &transport);
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled);
  MetaStore meta(&rpc, "localhost", "", &cache);
  meta.set_meta_port(*port);

  // Leader: no deadline, blocks on the slow upstream.
  std::thread leader([&] { (void)meta.ContextToNameService("sharedctx"); });  // hcs:ignore-status(leader blocks by design; the follower's deadline is the assertion)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Follower with a 100 ms budget: must give up on the coalesced wait when
  // its own deadline passes, not when the leader's fetch resolves.
  auto t0 = std::chrono::steady_clock::now();
  Result<std::string> ns = meta.ContextToNameService(
      "sharedctx", nullptr, RequestContext::WithTimeout(100));
  auto waited =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(ns.status().code(), StatusCode::kTimeout);
  EXPECT_LT(waited, 300) << "the follower outwaited its own deadline";
  leader.join();
  host.StopAll();
}

}  // namespace
}  // namespace hcs
