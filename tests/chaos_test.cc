// Seeded chaos scenarios over the real transport stack. Every probabilistic
// decision comes from a FaultInjector keyed by (seed, endpoint, sequence),
// so each scenario prints its seed and a failing run replays byte-identically
// with HCS_CHAOS_SEED=<seed>. Scenarios assert liveness (calls complete with
// clean Statuses, never hangs or crashes) plus the cross-cutting invariants:
// retries never exceed the transport budget (RetryPolicy::MaxAttempts),
// replies match their requests (trace ids), no composite binding is served
// past its min-constituent TTL, and cache structures stay internally
// consistent (CheckInvariants) after every fault schedule.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/bindns/protocol.h"
#include "src/common/strings.h"
#include "src/bindns/record.h"
#include "src/hns/cache.h"
#include "src/hns/meta_store.h"
#include "src/hns/name.h"
#include "src/rpc/async_client.h"
#include "src/rpc/client.h"
#include "src/rpc/context.h"
#include "src/rpc/fault.h"
#include "src/rpc/ports.h"
#include "src/rpc/server.h"
#include "src/rpc/stream_transport.h"
#include "src/rpc/udp_transport.h"
#include "src/testbed/testbed.h"
#include "src/wire/value.h"

namespace hcs {
namespace {

// The run's seed: HCS_CHAOS_SEED wins (how a failing run is replayed),
// else a fixed default so CI is deterministic.
uint64_t ChaosSeed() {
  static const uint64_t seed = [] {
    const char* env = std::getenv("HCS_CHAOS_SEED");
    if (env != nullptr && *env != '\0') {
      return static_cast<uint64_t>(std::strtoull(env, nullptr, 0));
    }
    return static_cast<uint64_t>(0x5eedc0de);
  }();
  return seed;
}

uint64_t AnnounceSeed(const char* scenario) {
  uint64_t seed = ChaosSeed();
  std::cout << "[chaos] " << scenario << " seed=" << seed
            << " (replay with HCS_CHAOS_SEED=" << seed << ")" << std::endl;
  return seed;
}

// One line per scenario with the counters EXPERIMENTS.md tabulates.
void ReportStats(const char* scenario, const FaultStats& stats, int retries = -1,
                 int shed = -1) {
  std::cout << "[chaos] " << scenario << " stats: decisions=" << stats.decisions
            << " drops=" << stats.drops << " dups=" << stats.duplicates
            << " reorders=" << stats.reorders << " corruptions=" << stats.corruptions
            << " delays=" << stats.delays << " blackholed=" << stats.blackholed
            << " server_drops=" << stats.server_drops;
  if (retries >= 0) {
    std::cout << " retries=" << retries;
  }
  if (shed >= 0) {
    std::cout << " shed=" << shed;
  }
  std::cout << std::endl;
}

// Installs the process-global injector for the scenario's lifetime; the
// serving runtimes consult it for inbound traffic.
class ScopedGlobalInjector {
 public:
  explicit ScopedGlobalInjector(FaultInjector* injector) {
    InstallGlobalFaultInjector(injector);
  }
  ~ScopedGlobalInjector() { InstallGlobalFaultInjector(nullptr); }
};

HrpcBinding UdpBinding(uint16_t port, uint32_t program, ControlKind control) {
  HrpcBinding b;
  b.service_name = "chaos-test";
  b.host = "localhost";
  b.port = port;
  b.program = program;
  b.version = 2;
  b.control = control;
  b.transport = TransportKind::kUdp;
  return b;
}

FaultPlan OnePhasePlan(std::string endpoint, FaultSpec spec) {
  FaultPlan plan;
  plan.endpoint = std::move(endpoint);
  plan.phases.push_back(FaultPhase{0, spec});
  return plan;
}

HnsName SunName() {
  return HnsName::Parse(std::string(kContextBindBinding) + "!" + kSunServerHost).value();
}

// --- Injector mechanics ----------------------------------------------------

TEST(ChaosTest, ParseFaultConfigAcceptsTheDocumentedGrammar) {
  Result<FaultConfig> config = ParseFaultConfig(
      "seed=42 endpoint=nsm-host phase=500 phase=2000 blackhole=1 phase=0 "
      "endpoint=* drop=0.25 dup=0.1 delay=0.5 delay_ms=2..7");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->seed, 42u);
  ASSERT_EQ(config->plans.size(), 2u);
  const FaultPlan& phased = config->plans[0];
  EXPECT_EQ(phased.endpoint, "nsm-host");
  ASSERT_EQ(phased.phases.size(), 3u);
  EXPECT_EQ(phased.phases[0].duration_ms, 500);
  EXPECT_FALSE(phased.phases[0].spec.blackhole);
  EXPECT_EQ(phased.phases[1].duration_ms, 2000);
  EXPECT_TRUE(phased.phases[1].spec.blackhole);
  EXPECT_EQ(phased.phases[2].duration_ms, 0);
  EXPECT_TRUE(phased.phases[2].spec.healthy());
  const FaultPlan& lossy = config->plans[1];
  EXPECT_EQ(lossy.endpoint, "*");
  ASSERT_EQ(lossy.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(lossy.phases[0].spec.drop, 0.25);
  EXPECT_DOUBLE_EQ(lossy.phases[0].spec.duplicate, 0.1);
  EXPECT_DOUBLE_EQ(lossy.phases[0].spec.delay, 0.5);
  EXPECT_EQ(lossy.phases[0].spec.delay_min_ms, 2);
  EXPECT_EQ(lossy.phases[0].spec.delay_max_ms, 7);
}

TEST(ChaosTest, ParseFaultConfigRejectsMalformedSpecs) {
  // A typo must never silently run a healthy "chaos" test.
  EXPECT_FALSE(ParseFaultConfig("bogus").ok());
  EXPECT_FALSE(ParseFaultConfig("frobnicate=1").ok());
  EXPECT_FALSE(ParseFaultConfig("endpoint=x frobnicate=1").ok());
  EXPECT_FALSE(ParseFaultConfig("endpoint=x drop=1.5").ok());
  EXPECT_FALSE(ParseFaultConfig("endpoint=x drop=nope").ok());
  EXPECT_FALSE(ParseFaultConfig("endpoint=x delay_ms=7..2").ok());
  EXPECT_FALSE(ParseFaultConfig("drop=0.1 endpoint=x").ok()) << "spec before any endpoint";
  EXPECT_FALSE(ParseFaultConfig("endpoint=").ok());
}

TEST(ChaosTest, CorruptFrameIsDeterministicAndBounded) {
  uint64_t seed = AnnounceSeed("CorruptFrameIsDeterministicAndBounded");
  Bytes original(64, 0xa5);
  Bytes a = original;
  Bytes b = original;
  FaultInjector::CorruptFrame(&a, seed);
  FaultInjector::CorruptFrame(&b, seed);
  EXPECT_EQ(a, b) << "the same salt must corrupt the same frame the same way";
  EXPECT_NE(a, original);
  // 1..3 bit flips: count differing bits.
  int flipped = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    uint8_t diff = a[i] ^ original[i];
    for (int bit = 0; bit < 8; ++bit) {
      flipped += (diff >> bit) & 1;
    }
  }
  EXPECT_GE(flipped, 1);
  EXPECT_LE(flipped, 3);

  Bytes empty;
  FaultInjector::CorruptFrame(&empty, seed);
  EXPECT_TRUE(empty.empty());
}

TEST(ChaosTest, SameSeedReplaysSameDecisionSequence) {
  uint64_t seed = AnnounceSeed("SameSeedReplaysSameDecisionSequence");
  FaultConfig config;
  config.seed = seed;
  config.plans.push_back(OnePhasePlan("*", [] {
    FaultSpec spec;
    spec.drop = 0.4;
    spec.duplicate = 0.2;
    spec.delay = 0.3;
    spec.corrupt = 0.1;
    return spec;
  }()));

  constexpr int kEndpoints = 4;
  constexpr int kDraws = 200;
  auto fingerprint = [](const FaultDecision& d) {
    return StrFormat("%llu:%d%d%d%d:%lld", static_cast<unsigned long long>(d.sequence),
                     d.drop ? 1 : 0, d.duplicate ? 1 : 0, d.reorder ? 1 : 0, d.corrupt ? 1 : 0,
                     static_cast<long long>(d.delay_ms));
  };

  // Injector A: four threads hammer distinct endpoints concurrently.
  FaultInjector a(config);
  std::vector<std::vector<std::string>> concurrent(kEndpoints);
  {
    std::vector<std::thread> threads;
    for (int e = 0; e < kEndpoints; ++e) {
      threads.emplace_back([&, e] {
        std::string host = "ep" + std::to_string(e);
        for (int i = 0; i < kDraws; ++i) {
          concurrent[e].push_back(fingerprint(a.Decide(host, 1000)));
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  // Injector B: the same draws, single-threaded and interleaved differently.
  FaultInjector b(config);
  std::vector<std::vector<std::string>> sequential(kEndpoints);
  for (int i = 0; i < kDraws; ++i) {
    for (int e = kEndpoints - 1; e >= 0; --e) {
      sequential[e].push_back(fingerprint(b.Decide("ep" + std::to_string(e), 1000)));
    }
  }

  for (int e = 0; e < kEndpoints; ++e) {
    EXPECT_EQ(concurrent[e], sequential[e])
        << "endpoint ep" << e << ": per-endpoint decision stream must not depend on "
        << "thread interleaving";
  }

  // And the trace form: two identically-driven injectors emit equal traces.
  FaultInjector c(config);
  FaultInjector d(config);
  c.set_trace_enabled(true);
  d.set_trace_enabled(true);
  for (int i = 0; i < 50; ++i) {
    (void)c.Decide("replay-host", 711);  // hcs:ignore-status(draw consumed for trace comparison only)
    (void)d.Decide("replay-host", 711);  // hcs:ignore-status(draw consumed for trace comparison only)
  }
  EXPECT_EQ(c.TakeTrace(), d.TakeTrace());
}

TEST(ChaosTest, PhasedPlanFollowsItsScheduleOnTheInjectedClock) {
  uint64_t seed = AnnounceSeed("PhasedPlanFollowsItsScheduleOnTheInjectedClock");
  FaultInjector injector(FaultConfig{seed, {}});
  int64_t now_ms = 0;
  injector.SetTimeFn([&now_ms] { return now_ms; });

  FaultPlan plan;
  plan.endpoint = "svc-host";
  plan.phases.push_back(FaultPhase{500, FaultSpec{}});  // healthy half a second
  FaultSpec cut;
  cut.blackhole = true;
  plan.phases.push_back(FaultPhase{1000, cut});  // partitioned one second
  plan.phases.push_back(FaultPhase{0, FaultSpec{}});  // healed forever
  injector.SetPlan(plan);

  for (int64_t t : {int64_t{0}, int64_t{100}, int64_t{499}}) {
    now_ms = t;
    EXPECT_FALSE(injector.Decide("svc-host", 80).blackhole) << "t=" << t;
  }
  for (int64_t t : {int64_t{500}, int64_t{900}, int64_t{1499}}) {
    now_ms = t;
    EXPECT_TRUE(injector.Decide("svc-host", 80).blackhole) << "t=" << t;
  }
  for (int64_t t : {int64_t{1500}, int64_t{5000}, int64_t{1000000}}) {
    now_ms = t;
    EXPECT_FALSE(injector.Decide("svc-host", 80).blackhole)
        << "t=" << t << ": the terminal phase holds forever";
  }

  // Unmatched endpoints are untouched; exact endpoint plans beat host plans.
  EXPECT_TRUE(injector.Decide("other-host", 80).pass());
  FaultSpec drop_all;
  drop_all.drop = 1.0;
  injector.SetPlan(OnePhasePlan("svc-host:99", drop_all));
  now_ms = 2000;  // host plan says healed; the exact plan must win
  EXPECT_TRUE(injector.Decide("svc-host", 99).drop);
}

TEST(ChaosTest, FilterInboundAppliesDecisionsAndCountsDrops) {
  uint64_t seed = AnnounceSeed("FilterInboundAppliesDecisionsAndCountsDrops");
  Bytes message{1, 2, 3, 4};
  ASSERT_TRUE(FilterInbound(nullptr, 80, 0, &message).ok()) << "null injector is a no-op";
  EXPECT_EQ(message, (Bytes{1, 2, 3, 4}));

  FaultSpec drop_all;
  drop_all.drop = 1.0;
  FaultInjector dropper(FaultConfig{seed, {OnePhasePlan("local", drop_all)}});
  Status dropped = FilterInbound(&dropper, 9999, 0, &message);
  EXPECT_EQ(dropped.code(), StatusCode::kTimeout);
  EXPECT_EQ(dropper.stats().server_drops, 1u);

  FaultSpec hole;
  hole.blackhole = true;
  FaultInjector blackholer(FaultConfig{seed, {OnePhasePlan("local", hole)}});
  EXPECT_EQ(FilterInbound(&blackholer, 9999, 0, &message).code(), StatusCode::kUnavailable);
  EXPECT_EQ(blackholer.stats().blackholed, 1u);

  FaultSpec garble;
  garble.corrupt = 1.0;
  FaultInjector corrupter(FaultConfig{seed, {OnePhasePlan("local", garble)}});
  Bytes corrupted = message;
  ASSERT_TRUE(FilterInbound(&corrupter, 9999, 0, &corrupted).ok())
      << "corrupted messages are still delivered";
  EXPECT_NE(corrupted, message);
  EXPECT_EQ(corrupter.stats().corruptions, 1u);
}

// --- Client-path chaos over real sockets -----------------------------------

TEST(ChaosTest, EchoSurvivesThirtyPercentLoss) {
  uint64_t seed = AnnounceSeed("EchoSurvivesThirtyPercentLoss");
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "chaos-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  FaultSpec lossy;
  lossy.drop = 0.3;
  FaultInjector injector(FaultConfig{seed, {OnePhasePlan("localhost", lossy)}});
  UdpTransport udp;
  FaultInjectingTransport faulty(&udp, &injector);
  RpcClient client(/*world=*/nullptr, "localclient", &faulty);

  constexpr int kCalls = 25;
  constexpr int64_t kBudgetMs = 4000;
  int total_retries = 0;
  for (int i = 0; i < kCalls; ++i) {
    Bytes payload{static_cast<uint8_t>(i), 0x5a};
    RpcCallInfo info;
    Result<Bytes> reply = client.Call(UdpBinding(*port, 7, ControlKind::kRaw), 1, payload,
                                      RequestContext::WithTimeout(kBudgetMs), &info);
    ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.status();
    EXPECT_EQ(*reply, payload);
    // Invariant: the retry loop never exceeds what the budget admits.
    EXPECT_LE(info.attempts, RetryPolicy::MaxAttempts(kBudgetMs)) << "call " << i;
    EXPECT_EQ(info.retries + 1, info.attempts) << "call " << i;
    total_retries += static_cast<int>(info.retries);
  }

  FaultStats stats = injector.stats();
  ReportStats("EchoSurvivesThirtyPercentLoss", stats, total_retries, /*shed=*/0);
  EXPECT_GE(stats.decisions, static_cast<uint64_t>(kCalls));
  EXPECT_GT(stats.drops, 0u) << "a 30% plan that never dropped is not running";
  host.StopAll();
}

TEST(ChaosTest, DuplicateStormDeliversEveryReplyToItsCall) {
  uint64_t seed = AnnounceSeed("DuplicateStormDeliversEveryReplyToItsCall");
  UdpServerHost host;
  std::atomic<int> handled{0};
  RpcServer server(ControlKind::kRaw, "chaos-dup");
  server.RegisterProcedure(7, 1, [&handled](BytesView args) -> Result<Bytes> {
    ++handled;
    return args.ToBytes();
  });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  FaultSpec dupy;
  dupy.duplicate = 0.6;
  FaultInjector injector(FaultConfig{seed, {OnePhasePlan("localhost", dupy)}});
  UdpTransport udp;
  FaultInjectingTransport faulty(&udp, &injector);
  RpcClient client(/*world=*/nullptr, "localclient", &faulty);

  constexpr int kCalls = 40;
  for (int i = 0; i < kCalls; ++i) {
    Bytes payload{static_cast<uint8_t>(i)};
    Result<Bytes> reply = client.Call(UdpBinding(*port, 7, ControlKind::kRaw), 1, payload);
    ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.status();
    EXPECT_EQ(*reply, payload) << "call " << i << ": a duplicate's reply leaked into this call";
  }
  host.StopAll();

  FaultStats stats = injector.stats();
  ReportStats("DuplicateStormDeliversEveryReplyToItsCall", stats);
  EXPECT_GT(stats.duplicates, 0u);
  // Exactly one extra handler invocation per injected duplicate: duplicated
  // traffic is delivered and handled, but never crosses replies between calls.
  EXPECT_EQ(handled.load(), kCalls + static_cast<int>(stats.duplicates));
}

TEST(ChaosTest, ReorderAndDelayKeepRepliesMatchedToRequests) {
  uint64_t seed = AnnounceSeed("ReorderAndDelayKeepRepliesMatchedToRequests");
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "chaos-trace");
  // The handler answers with the trace id the request traveled under: the
  // client can then check that every reply belongs to its own request even
  // while the injector shuffles and delays traffic.
  server.RegisterProcedure(7, 1, [](BytesView) -> Result<Bytes> {
    uint64_t trace = CurrentRequestContext().trace_id;
    Bytes out(8);
    for (int i = 0; i < 8; ++i) {
      out[i] = static_cast<uint8_t>((trace >> (56 - 8 * i)) & 0xff);
    }
    return out;
  });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  FaultSpec wobble;
  wobble.reorder = 0.3;
  wobble.delay = 0.3;
  wobble.delay_min_ms = 1;
  wobble.delay_max_ms = 5;
  FaultInjector injector(FaultConfig{seed, {OnePhasePlan("localhost", wobble)}});

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 20;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<int> total_retries{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      UdpTransport udp;
      FaultInjectingTransport faulty(&udp, &injector);
      RpcClient client(/*world=*/nullptr, "localclient", &faulty);
      for (int i = 0; i < kCallsPerThread; ++i) {
        RpcCallInfo info;
        Result<Bytes> reply = client.Call(UdpBinding(*port, 7, ControlKind::kRaw), 1, Bytes{1},
                                          RequestContext::WithTimeout(3000), &info);
        total_retries += static_cast<int>(info.retries);
        if (!reply.ok() || reply->size() != 8) {
          ++failures;
          continue;
        }
        uint64_t echoed = 0;
        for (int b = 0; b < 8; ++b) {
          echoed = (echoed << 8) | (*reply)[b];
        }
        if (echoed != info.trace_id) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  host.StopAll();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0) << "a reply crossed onto the wrong request";
  FaultStats stats = injector.stats();
  ReportStats("ReorderAndDelayKeepRepliesMatchedToRequests", stats, total_retries.load(),
              failures.load());
  EXPECT_GT(stats.reorders + stats.delays, 0u);
  EXPECT_EQ(stats.delay_ms_total >= stats.delays, true)
      << "every delayed decision injects at least delay_min_ms";
}

// --- Serve-side chaos through the global injector --------------------------

TEST(ChaosTest, CorruptAndDropInboundStormStaysLive) {
  uint64_t seed = AnnounceSeed("CorruptAndDropInboundStormStaysLive");
  FaultSpec storm;
  storm.corrupt = 0.3;
  storm.drop = 0.25;
  FaultInjector injector(FaultConfig{seed, {OnePhasePlan("local", storm)}});
  ScopedGlobalInjector installed(&injector);

  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "chaos-inbound");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport udp;
  RpcClient client(/*world=*/nullptr, "localclient", &udp);
  constexpr int kCalls = 25;
  constexpr int64_t kBudgetMs = 1500;
  int successes = 0;
  int total_retries = 0;
  for (int i = 0; i < kCalls; ++i) {
    RpcCallInfo info;
    Result<Bytes> reply = client.Call(UdpBinding(*port, 7, ControlKind::kRaw), 1, Bytes{0x7e},
                                      RequestContext::WithTimeout(kBudgetMs), &info);
    // Liveness: every call returns — success, a budget-bounded timeout, or a
    // clean protocol error when a corrupted frame still decoded. Never a hang.
    if (reply.ok()) {
      ++successes;
    }
    EXPECT_LE(info.attempts, RetryPolicy::MaxAttempts(kBudgetMs)) << "call " << i;
    total_retries += static_cast<int>(info.retries);
  }

  // Snapshot before StopAll — stopping releases the endpoints.
  FaultStats collected = CollectFaultStats(&injector, &host);
  host.StopAll();

  ReportStats("CorruptAndDropInboundStormStaysLive", collected, total_retries,
              kCalls - successes);
  EXPECT_GT(successes, 0) << "a lossy (not blackholed) server must still make progress";
  EXPECT_GT(collected.server_drops, 0u);
  EXPECT_GT(collected.corruptions, 0u);
  // Every injected inbound drop was accounted by the serving runtime too
  // (its per-endpoint counters also cover garbled frames, so >=).
  EXPECT_GE(collected.EndpointDropTotal(), collected.server_drops);
  EXPECT_GT(collected.endpoint_drops.count(*port), 0u);
}

TEST(ChaosTest, InboundDecisionsReplayAcrossEphemeralPorts) {
  // "Replay with HCS_CHAOS_SEED=N" must hold for servers on ephemeral
  // ports: an inbound stream is named by the endpoint's registration
  // ordinal on its host, not by its port. Two fresh servers, both alive so
  // their ports differ, each under its own injector with the same seed,
  // must draw identical decisions for identical traffic.
  uint64_t seed = AnnounceSeed("InboundDecisionsReplayAcrossEphemeralPorts");
  FaultSpec storm;
  storm.drop = 0.3;
  storm.corrupt = 0.3;
  constexpr int kFrames = 40;
  // Declared before the hosts: a worker may still be inside an injector
  // until its host stops.
  FaultInjector first(FaultConfig{seed, {OnePhasePlan("local", storm)}});
  FaultInjector second(FaultConfig{seed, {OnePhasePlan("local", storm)}});

  RpcServer first_server(ControlKind::kRaw, "chaos-replay-1");
  RpcServer second_server(ControlKind::kRaw, "chaos-replay-2");
  UdpServerHost first_host;
  UdpServerHost second_host;
  Result<uint16_t> first_port = first_host.Serve(&first_server, 0);
  ASSERT_TRUE(first_port.ok()) << first_port.status();
  Result<uint16_t> second_port = second_host.Serve(&second_server, 0);
  ASSERT_TRUE(second_port.ok()) << second_port.status();
  ASSERT_NE(*first_port, *second_port);

  auto run = [&](FaultInjector* injector, uint16_t port) {
    injector->set_trace_enabled(true);
    ScopedGlobalInjector installed(injector);
    int fd = socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (int i = 0; i < kFrames; ++i) {
      const uint8_t frame[4] = {0xc4, 0xa5, static_cast<uint8_t>(i), 0x01};
      EXPECT_EQ(sendto(fd, frame, sizeof(frame), 0, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)),
                static_cast<ssize_t>(sizeof(frame)));
    }
    close(fd);
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline &&
           injector->stats().decisions < static_cast<uint64_t>(kFrames)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return injector->TakeTrace();
  };
  std::vector<std::string> first_trace = run(&first, *first_port);
  std::vector<std::string> second_trace = run(&second, *second_port);
  first_host.StopAll();
  second_host.StopAll();

  ASSERT_EQ(first_trace.size(), static_cast<size_t>(kFrames));
  EXPECT_EQ(first_trace.front().rfind("local#0#0:", 0), 0u) << first_trace.front();
  EXPECT_EQ(first_trace, second_trace);
  // The plan drew a mix, so equal traces compare real draws.
  auto count = [&](char flag) {
    return std::count_if(first_trace.begin(), first_trace.end(), [&](const std::string& line) {
      return line.back() == flag;
    });
  };
  EXPECT_GT(count('D'), 0);
  EXPECT_GT(count('.'), 0);
}

TEST(ChaosTest, OutboundDecisionsReplayAcrossEphemeralPorts) {
  // The client-side twin of the inbound test above: an outbound stream is
  // named by the order in which the injector first saw the destination,
  // not by its port. Two fresh servers on different ephemeral ports, each
  // called through its own injector with the same seed, must draw
  // identical decisions for identical calls.
  uint64_t seed = AnnounceSeed("OutboundDecisionsReplayAcrossEphemeralPorts");
  FaultSpec storm;
  storm.drop = 0.3;
  storm.duplicate = 0.3;
  constexpr int kCalls = 30;
  FaultInjector first(FaultConfig{seed, {OnePhasePlan("localhost", storm)}});
  FaultInjector second(FaultConfig{seed, {OnePhasePlan("localhost", storm)}});

  RpcServer server(ControlKind::kRaw, "chaos-replay-out");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  UdpServerHost first_host;
  UdpServerHost second_host;
  Result<uint16_t> first_port = first_host.Serve(&server, 0);
  ASSERT_TRUE(first_port.ok()) << first_port.status();
  Result<uint16_t> second_port = second_host.Serve(&server, 0);
  ASSERT_TRUE(second_port.ok()) << second_port.status();
  ASSERT_NE(*first_port, *second_port);

  auto run = [&](FaultInjector* injector, uint16_t port) {
    injector->set_trace_enabled(true);
    UdpTransport udp;
    FaultInjectingTransport faulty(&udp, injector);
    RpcClient client(/*world=*/nullptr, "localclient", &faulty);
    for (int i = 0; i < kCalls; ++i) {
      Bytes payload{static_cast<uint8_t>(i)};
      Result<Bytes> reply = client.Call(UdpBinding(port, 7, ControlKind::kRaw), 1, payload,
                                        RequestContext::WithTimeout(4000));
      EXPECT_TRUE(reply.ok()) << "call " << i << ": " << reply.status();
    }
    return injector->TakeTrace();
  };
  std::vector<std::string> first_trace = run(&first, *first_port);
  std::vector<std::string> second_trace = run(&second, *second_port);
  first_host.StopAll();
  second_host.StopAll();

  ASSERT_GE(first_trace.size(), static_cast<size_t>(kCalls));
  EXPECT_EQ(first_trace.front().rfind("localhost>0#0:", 0), 0u) << first_trace.front();
  EXPECT_EQ(first_trace, second_trace);
  // The plan drew a mix, so equal traces compare real draws.
  auto count = [&](char flag) {
    return std::count_if(first_trace.begin(), first_trace.end(), [&](const std::string& line) {
      return line.back() == flag;
    });
  };
  EXPECT_GT(count('D'), 0);
  EXPECT_GT(count('2'), 0);
  EXPECT_GT(count('.'), 0);
}

TEST(ChaosTest, CorruptFrameStormOverStreamStaysLive) {
  uint64_t seed = AnnounceSeed("CorruptFrameStormOverStreamStaysLive");
  FaultSpec garble;
  garble.corrupt = 0.4;
  FaultInjector injector(FaultConfig{seed, {OnePhasePlan("local", garble)}});
  ScopedGlobalInjector installed(&injector);

  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "chaos-stream");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.ServeStream(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  TcpStreamTransport transport(/*timeout_ms=*/400);
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  HrpcBinding binding = UdpBinding(*port, 7, ControlKind::kRaw);
  binding.transport = TransportKind::kTcp;

  constexpr int kCalls = 20;
  constexpr int64_t kBudgetMs = 2500;
  int successes = 0;
  int total_retries = 0;
  for (int i = 0; i < kCalls; ++i) {
    RpcCallInfo info;
    Result<Bytes> reply = client.Call(binding, 1, Bytes{0x11, 0x22},
                                      RequestContext::WithTimeout(kBudgetMs), &info);
    if (reply.ok()) {
      ++successes;
    }
    EXPECT_LE(info.attempts, RetryPolicy::MaxAttempts(kBudgetMs)) << "call " << i;
    total_retries += static_cast<int>(info.retries);
  }
  FaultStats collected = CollectFaultStats(&injector, &host);
  host.StopAll();

  ReportStats("CorruptFrameStormOverStreamStaysLive", collected, total_retries,
              kCalls - successes);
  EXPECT_GT(successes, 0);
  EXPECT_GT(collected.corruptions, 0u) << "a 40% corruption plan that never fired is not running";
}

// --- Seeded chaotic servers -----------------------------------------------
//
// Waves and stream calls against hand-rolled servers: every shuffle,
// duplication, and crash point is drawn from an mt19937_64 keyed by the
// scenario seed, so a failing run replays with HCS_CHAOS_SEED=<seed>.

// Reads length-prefixed frames off `fd` until `want` complete request
// bodies arrive (or the peer hangs up). Returns the raw bodies.
std::vector<Bytes> ReadFramedRequests(int fd, size_t want) {
  std::vector<uint8_t> buf;
  std::vector<Bytes> requests;
  while (requests.size() < want) {
    uint8_t chunk[4096];
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      break;
    }
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
  return requests;
}

// Frames an echo reply (same xid, args echoed back) for one raw request.
Bytes FramedEchoReply(const Bytes& request) {
  const ControlProtocol& control = GetControlProtocol(ControlKind::kRaw);
  Result<RpcCall> call = control.DecodeCall(request);
  if (!call.ok()) {
    return Bytes{};
  }
  RpcReplyMsg reply;
  reply.xid = call->xid;
  reply.results = call->args;
  Bytes body = control.EncodeReply(reply);
  Bytes framed;
  framed.push_back(static_cast<uint8_t>(body.size() >> 24));
  framed.push_back(static_cast<uint8_t>(body.size() >> 16));
  framed.push_back(static_cast<uint8_t>(body.size() >> 8));
  framed.push_back(static_cast<uint8_t>(body.size()));
  framed.insert(framed.end(), body.begin(), body.end());
  return framed;
}

// Opens a loopback TCP listener on an ephemeral port. Returns {fd, port}.
std::pair<int, uint16_t> ListenLoopback() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 || bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 1) != 0) {
    return {-1, 0};
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    return {-1, 0};
  }
  return {fd, ntohs(addr.sin_port)};
}

// A loopback UDP socket for a hand-rolled server; `*port_out` is its port.
int BindUdpLoopback(uint16_t* port_out) {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = 5;  // a server waiting for a client that died gives up
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  *port_out = ntohs(addr.sin_port);
  return fd;
}

// One raw request a hand-rolled UDP server received, and its echo reply.
struct UdpRequest {
  sockaddr_in peer{};
  socklen_t peer_len = sizeof(sockaddr_in);
  Bytes args;
  Bytes reply;
};

bool RecvUdpRequest(int fd, UdpRequest* out) {
  const ControlProtocol& control = GetControlProtocol(ControlKind::kRaw);
  while (true) {
    uint8_t buf[2048];
    out->peer_len = sizeof(out->peer);
    ssize_t n = recvfrom(fd, buf, sizeof(buf), 0, reinterpret_cast<sockaddr*>(&out->peer),
                         &out->peer_len);
    if (n <= 0) {
      return false;
    }
    Result<RpcCall> call = control.DecodeCall(Bytes(buf, buf + n));
    if (!call.ok()) {
      continue;
    }
    RpcReplyMsg reply;
    reply.xid = call->xid;
    reply.results = call->args;
    out->args = call->args;
    out->reply = control.EncodeReply(reply);
    return true;
  }
}

void SendUdpReply(int fd, const UdpRequest& request, const Bytes& reply) {
  (void)sendto(fd, reply.data(), reply.size(), 0,
               reinterpret_cast<const sockaddr*>(&request.peer),
               request.peer_len);  // hcs:ignore-status(chaos server; a lost reply is the fault under test)
}

TEST(ChaosTest, UdpWaveDuplicateReorderStormMatchesEveryReply) {
  uint64_t seed = AnnounceSeed("UdpWaveDuplicateReorderStormMatchesEveryReply");
  constexpr int kCalls = 16;
  const Bytes kFollowUp{0xee};

  // A chaotic echo server: collects the whole wave first, then answers in
  // a seed-shuffled order, duplicating some replies and re-sending a few
  // stale ones at the end; then it answers one follow-up call. Every call
  // of the wave must get its own payload, and every extra copy must be
  // dropped as an unmatched datagram: by the wave, or by the follow-up
  // call that reads the strays still queued on the thread's socket.
  uint16_t server_port = 0;
  int server_fd = BindUdpLoopback(&server_port);
  ASSERT_GE(server_fd, 0);
  std::atomic<int> duplicates_sent{0};
  std::thread server([server_fd, seed, &duplicates_sent] {
    std::mt19937_64 rng(seed);
    std::vector<UdpRequest> requests(kCalls);
    for (UdpRequest& request : requests) {
      if (!RecvUdpRequest(server_fd, &request)) {
        return;
      }
    }
    std::shuffle(requests.begin(), requests.end(), rng);
    for (const UdpRequest& request : requests) {
      SendUdpReply(server_fd, request, request.reply);
      if (rng() % 100 < 40) {  // duplicate storm
        SendUdpReply(server_fd, request, request.reply);
        ++duplicates_sent;
      }
    }
    for (int i = 0; i < 3; ++i) {  // stale re-sends, long after the originals
      const UdpRequest& stale = requests[rng() % requests.size()];
      SendUdpReply(server_fd, stale, stale.reply);
      ++duplicates_sent;
    }
    UdpRequest follow_up;
    if (RecvUdpRequest(server_fd, &follow_up)) {
      SendUdpReply(server_fd, follow_up, follow_up.reply);
    }
  });

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  HrpcBinding binding = UdpBinding(server_port, 7, ControlKind::kRaw);
  std::vector<Bytes> bodies;
  for (int i = 0; i < kCalls; ++i) {
    bodies.push_back(Bytes{static_cast<uint8_t>(i), 0x5a});
  }
  const AsyncEngineStats before = GlobalAsyncClientEngine()->stats();
  std::vector<Result<Bytes>> replies = client.CallMany(binding, 1, bodies);
  Result<Bytes> follow_up = client.Call(binding, 1, kFollowUp);
  const AsyncEngineStats after = GlobalAsyncClientEngine()->stats();
  server.join();
  close(server_fd);

  int mismatches = 0;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(replies[i].ok()) << "call " << i << ": " << replies[i].status();
    if (*replies[i] != bodies[i]) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << "a duplicated or reordered reply crossed calls";
  ASSERT_TRUE(follow_up.ok()) << follow_up.status();
  EXPECT_EQ(*follow_up, kFollowUp) << "a stray of the wave answered the next call";
  EXPECT_GT(duplicates_sent.load(), 0) << "a 40% duplicate storm that never fired";
  EXPECT_EQ(after.udp_unmatched - before.udp_unmatched,
            static_cast<uint64_t>(duplicates_sent.load()));
  EXPECT_EQ(after.retries - before.retries, 0u);
  std::cout << "[chaos] UdpWaveDuplicateReorderStorm duplicates=" << duplicates_sent.load()
            << " unmatched=" << after.udp_unmatched - before.udp_unmatched << std::endl;
}

TEST(ChaosTest, StreamDuplicateFramesNeverCrossPooledCalls) {
  uint64_t seed = AnnounceSeed("StreamDuplicateFramesNeverCrossPooledCalls");
  constexpr int kCalls = 8;

  auto [listen_fd, port] = ListenLoopback();
  ASSERT_GE(listen_fd, 0);

  // The server answers every call on the one connection with its reply
  // frame two or three times (the seed picks): the copies stay queued on
  // the pooled connection, ahead of the next call's answer.
  std::atomic<int> duplicates_sent{0};
  std::atomic<bool> server_ok{true};
  std::thread server([listen_fd, seed, &duplicates_sent, &server_ok] {
    int conn = accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      server_ok = false;
      return;
    }
    std::mt19937_64 rng(seed);
    for (int i = 0; i < kCalls; ++i) {
      std::vector<Bytes> requests = ReadFramedRequests(conn, 1);
      if (requests.size() != 1) {
        server_ok = false;
        break;
      }
      Bytes framed = FramedEchoReply(requests.front());
      const int copies = 2 + static_cast<int>(rng() % 2);
      for (int c = 0; c < copies; ++c) {
        (void)send(conn, framed.data(), framed.size(),
                   0);  // hcs:ignore-status(chaos server; a duplicate frame is the fault under test)
      }
      duplicates_sent += copies - 1;
    }
    close(conn);
  });

  TcpStreamTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  HrpcBinding binding = UdpBinding(port, 7, ControlKind::kRaw);
  binding.transport = TransportKind::kTcp;
  for (int i = 0; i < kCalls; ++i) {
    Bytes payload{static_cast<uint8_t>(i), 0x77};
    Result<Bytes> reply = client.Call(binding, 1, payload);
    ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.status();
    EXPECT_EQ(*reply, payload) << "a duplicated frame answered a later call";
  }
  server.join();
  close(listen_fd);
  ASSERT_TRUE(server_ok.load());
  EXPECT_EQ(transport.connects(), 1u) << "every call rides the one pooled connection";
  EXPECT_GE(duplicates_sent.load(), kCalls);
  std::cout << "[chaos] StreamDuplicateFrames duplicates=" << duplicates_sent.load()
            << std::endl;
}

TEST(ChaosTest, ServerCrashMidWaveFailsOnlyTheOutstandingCalls) {
  uint64_t seed = AnnounceSeed("ServerCrashMidWaveFailsOnlyTheOutstandingCalls");
  constexpr int kCalls = 8;
  constexpr int64_t kBudgetMs = 600;
  const Bytes kFollowUp{0xee};

  // The seed picks how many of the wave's calls are answered before the
  // server crashes, and which. The crashed server reads nothing; once the
  // wave is over it comes back, answers the calls the wave gave up on
  // (late replies, to the socket the wave used), then the next call.
  std::mt19937_64 rng(seed);
  const size_t answered = 2 + rng() % 4;  // 2..5 of 8
  uint16_t server_port = 0;
  int server_fd = BindUdpLoopback(&server_port);
  ASSERT_GE(server_fd, 0);
  std::atomic<bool> wave_over{false};
  std::thread server([server_fd, answered, &rng, &wave_over, &kFollowUp] {
    std::vector<UdpRequest> requests(kCalls);
    for (UdpRequest& request : requests) {
      if (!RecvUdpRequest(server_fd, &request)) {
        return;
      }
    }
    std::shuffle(requests.begin(), requests.end(), rng);
    for (size_t i = 0; i < answered; ++i) {
      SendUdpReply(server_fd, requests[i], requests[i].reply);
    }
    while (!wave_over.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (size_t i = answered; i < requests.size(); ++i) {
      SendUdpReply(server_fd, requests[i], requests[i].reply);
    }
    UdpRequest next;
    while (RecvUdpRequest(server_fd, &next)) {
      if (next.args == kFollowUp) {  // skip the wave's queued re-sends
        SendUdpReply(server_fd, next, next.reply);
        return;
      }
    }
  });

  UdpTransport transport(/*timeout_ms=*/100);
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  HrpcBinding binding = UdpBinding(server_port, 7, ControlKind::kRaw);
  std::vector<Bytes> bodies;
  for (int i = 0; i < kCalls; ++i) {
    bodies.push_back(Bytes{static_cast<uint8_t>(i)});
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<Result<Bytes>> replies =
      client.CallMany(binding, 1, bodies, RequestContext::WithTimeout(kBudgetMs));
  const int64_t elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  wave_over = true;
  // The wave gave up on some calls, so it closed its socket: the late
  // replies go nowhere, and the next call is answered by its own reply.
  const uint64_t unmatched_before = GlobalAsyncClientEngine()->stats().udp_unmatched;
  Result<Bytes> follow_up = client.Call(binding, 1, kFollowUp, RequestContext::WithTimeout(2000));
  const uint64_t unmatched = GlobalAsyncClientEngine()->stats().udp_unmatched - unmatched_before;
  server.join();
  close(server_fd);

  size_t ok_count = 0;
  size_t timed_out = 0;
  for (int i = 0; i < kCalls; ++i) {
    if (replies[i].ok()) {
      EXPECT_EQ(*replies[i], bodies[i]) << "answered call " << i;
      ++ok_count;
    } else {
      EXPECT_EQ(replies[i].status().code(), StatusCode::kTimeout)
          << "outstanding call " << i << " must fail kTimeout, got " << replies[i].status();
      ++timed_out;
    }
  }
  EXPECT_EQ(ok_count, answered);
  EXPECT_EQ(timed_out, static_cast<size_t>(kCalls) - answered);
  EXPECT_GE(elapsed_ms, kBudgetMs - 50) << "the outstanding calls gave up before their deadline";
  EXPECT_LT(elapsed_ms, kBudgetMs + 400) << "the outstanding calls outlived their deadline";
  ASSERT_TRUE(follow_up.ok()) << follow_up.status();
  EXPECT_EQ(*follow_up, kFollowUp);
  EXPECT_EQ(unmatched, 0u) << "a late reply reached the next call's socket";
  std::cout << "[chaos] ServerCrashMidWave answered=" << answered
            << " failed_timeout=" << timed_out << " elapsed_ms=" << elapsed_ms << std::endl;
}

// --- Name-service scenarios over real sockets ------------------------------

// A fake modified-BIND on a real socket (the udp_transport_test shape):
// every answer maps a context to "UW-BIND"; NXDOMAIN names contain
// "missing"; `delay_ms` of real time per query.
class FakeMetaBind {
 public:
  explicit FakeMetaBind(int delay_ms) : server_(ControlKind::kRaw, "chaos-meta-bind") {
    server_.RegisterProcedure(
        kBindProgram, kBindProcQuery, [this, delay_ms](BytesView args) -> Result<Bytes> {
          ++queries_;
          HCS_ASSIGN_OR_RETURN(BindQueryRequest request, BindQueryRequest::Decode(args));
          if (delay_ms > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
          }
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

  Result<uint16_t> Serve(uint16_t port = 0) { return host_.Serve(&server_, port); }
  int queries() const { return queries_.load(); }
  void Stop() { host_.StopAll(); }

 private:
  RpcServer server_;
  UdpServerHost host_;
  std::atomic<int> queries_{0};
};

TEST(ChaosTest, MetaResolutionSurvivesLossAndDuplication) {
  uint64_t seed = AnnounceSeed("MetaResolutionSurvivesLossAndDuplication");
  FakeMetaBind upstream(/*delay_ms=*/0);
  Result<uint16_t> port = upstream.Serve();
  ASSERT_TRUE(port.ok()) << port.status();

  FaultSpec lossy;
  lossy.drop = 0.5;
  lossy.duplicate = 0.25;
  FaultInjector injector(FaultConfig{seed, {OnePhasePlan("localhost", lossy)}});
  UdpTransport udp;
  FaultInjectingTransport faulty(&udp, &injector);
  RpcClient rpc(/*world=*/nullptr, "localclient", &faulty);
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled);
  MetaStore meta(&rpc, "localhost", "", &cache);
  meta.set_meta_port(*port);

  constexpr int kContexts = 16;
  for (int i = 0; i < kContexts; ++i) {
    // Fresh budget per resolution; MetaStore inherits it ambiently.
    ScopedRequestContext scope(RequestContext::WithTimeout(4000));
    Result<std::string> ns = meta.ContextToNameService("LossyCtx" + std::to_string(i));
    ASSERT_TRUE(ns.ok()) << "context " << i << ": " << ns.status();
    EXPECT_EQ(*ns, "UW-BIND");
  }
  upstream.Stop();

  FaultStats stats = injector.stats();
  ReportStats("MetaResolutionSurvivesLossAndDuplication", stats);
  EXPECT_GT(stats.drops, 0u);
  // Invariant: the record cache stayed structurally consistent through the
  // retry/duplication storm.
  Status invariants = cache.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
  EXPECT_EQ(cache.size(), static_cast<size_t>(kContexts));
}

TEST(ChaosTest, MetaServerCrashMidSingleflightRecoversAfterRestart) {
  AnnounceSeed("MetaServerCrashMidSingleflightRecoversAfterRestart");
  FakeMetaBind upstream(/*delay_ms=*/150);
  Result<uint16_t> port = upstream.Serve();
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport udp;
  RpcClient rpc(/*world=*/nullptr, "localclient", &udp);
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled);
  MetaStore meta(&rpc, "localhost", "", &cache);
  meta.set_meta_port(*port);

  // A leader fetch gets in flight, followers pile onto the singleflight,
  // then the server dies mid-exchange. Every caller must get a clean
  // Status — no hang, no crash, no poisoned cache state.
  std::atomic<int> ok_count{0};
  std::atomic<int> failed_clean{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    ScopedRequestContext scope(RequestContext::WithTimeout(800));
    Result<std::string> ns = meta.ContextToNameService("CrashCtx");
    (ns.ok() ? ok_count : failed_clean)++;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      ScopedRequestContext scope(RequestContext::WithTimeout(800));
      Result<std::string> ns = meta.ContextToNameService("CrashCtx");
      (ns.ok() ? ok_count : failed_clean)++;
    });
  }
  upstream.Stop();  // mid-singleflight
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(ok_count.load() + failed_clean.load(), 5) << "every caller returned";

  // Restart on the same port; resolution must recover without a restart of
  // the client stack (a timeout is not negatively cached).
  Result<uint16_t> restarted = upstream.Serve(*port);
  if (!restarted.ok()) {
    restarted = upstream.Serve(0);  // port raced away; any port will do
    ASSERT_TRUE(restarted.ok()) << restarted.status();
    meta.set_meta_port(*restarted);
  }
  {
    ScopedRequestContext scope(RequestContext::WithTimeout(2000));
    Result<std::string> ns = meta.ContextToNameService("CrashCtx");
    ASSERT_TRUE(ns.ok()) << ns.status();
    EXPECT_EQ(*ns, "UW-BIND");
  }
  upstream.Stop();
  Status invariants = cache.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
}

// --- Simulated-testbed scenarios -------------------------------------------

TEST(ChaosTest, RegisterStormAcrossHealingPartition) {
  AnnounceSeed("RegisterStormAcrossHealingPartition");
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  MetaStore& meta = client.session->local_hns()->meta();

  // Partition the client away from everything (meta authority included).
  bed.Partition({kClientHost});
  constexpr int kNsms = 8;
  for (int i = 0; i < kNsms; ++i) {
    NsmInfo info = bed.HostAddrBindInfo();
    info.nsm_name = "StormNSM-" + std::to_string(i);
    info.query_class = "StormQC-" + std::to_string(i);
    Status status = meta.RegisterNsm(info);
    ASSERT_FALSE(status.ok()) << "registration crossed a partition";
    EXPECT_EQ(status.code(), StatusCode::kTimeout) << "a cut link looks like loss, not refusal";
  }

  bed.HealPartition();
  for (int i = 0; i < kNsms; ++i) {
    NsmInfo info = bed.HostAddrBindInfo();
    info.nsm_name = "StormNSM-" + std::to_string(i);
    info.query_class = "StormQC-" + std::to_string(i);
    Status status = meta.RegisterNsm(info);
    ASSERT_TRUE(status.ok()) << "registration " << i << " after heal: " << status;
    Result<NsmInfo> read_back = meta.NsmLocation(info.nsm_name);
    ASSERT_TRUE(read_back.ok()) << read_back.status();
    EXPECT_EQ(read_back->host, info.host);
  }
  // And the storm unwinds cleanly.
  for (int i = 0; i < kNsms; ++i) {
    NsmInfo info = bed.HostAddrBindInfo();
    Status status = meta.UnregisterNsm(info.ns_name, "StormQC-" + std::to_string(i));
    EXPECT_TRUE(status.ok()) << "unregister " << i << ": " << status;
  }

  Status invariants = client.hns_cache->CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
}

TEST(ChaosTest, NsmCrashIsUnavailableUntilRestart) {
  AnnounceSeed("NsmCrashIsUnavailableUntilRestart");
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllRemote);
  client.FlushAll();
  WireValue args = RecordBuilder().Str("service", kDesiredService).Build();

  bed.CrashHost(kNsmServerHost);
  Result<WireValue> down = client.session->Query(SunName(), kQueryClassHrpcBinding, args);
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable);

  bed.RestartHost(kNsmServerHost);
  Result<WireValue> up = client.session->Query(SunName(), kQueryClassHrpcBinding, args);
  EXPECT_TRUE(up.ok()) << up.status();
}

TEST(ChaosTest, TtlExpiryDuringBlackholeServesNothingStale) {
  uint64_t seed = AnnounceSeed("TtlExpiryDuringBlackholeServesNothingStale");
  TestbedOptions options;
  options.hns_composite_cache = true;
  Testbed bed(options);

  FaultInjector injector(FaultConfig{seed, {}});
  bed.InstallFaultInjector(&injector);
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);

  // Warm the composite FindNSM path with the injector healthy.
  Result<NsmHandle> warm = client.session->FindNsm(SunName(), kQueryClassHrpcBinding);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(client.composite_cache->Get(kContextBindBinding, kQueryClassHrpcBinding)
                  .has_value());

  // Blackhole both meta servers: the availability argument says warm entries
  // keep answering...
  injector.BlackholeEndpoint(kMetaBindHost);
  injector.BlackholeEndpoint(kMetaSecondaryHost);
  Result<NsmHandle> cached = client.session->FindNsm(SunName(), kQueryClassHrpcBinding);
  EXPECT_TRUE(cached.ok()) << cached.status();

  // ...but only until the min-constituent TTL. Past it, the outage must
  // surface — a stale composite binding must never be served.
  bed.world().clock().AdvanceMs(3601.0 * 1000.0);
  Result<NsmHandle> stale = client.session->FindNsm(SunName(), kQueryClassHrpcBinding);
  EXPECT_FALSE(stale.ok()) << "a composite binding outlived its constituents' TTL";
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(client.composite_cache->Get(kContextBindBinding, kQueryClassHrpcBinding)
                   .has_value());
  EXPECT_GT(injector.stats().blackholed, 0u);

  // Healing the endpoints restores resolution (the sim transport path).
  injector.HealEndpoint(kMetaBindHost);
  injector.HealEndpoint(kMetaSecondaryHost);
  Result<NsmHandle> healed = client.session->FindNsm(SunName(), kQueryClassHrpcBinding);
  EXPECT_TRUE(healed.ok()) << healed.status();

  ReportStats("TtlExpiryDuringBlackholeServesNothingStale", injector.stats());
  Status composite_invariants = client.composite_cache->CheckInvariants();
  EXPECT_TRUE(composite_invariants.ok()) << composite_invariants;
  Status cache_invariants = client.hns_cache->CheckInvariants();
  EXPECT_TRUE(cache_invariants.ok()) << cache_invariants;
}

}  // namespace
}  // namespace hcs
