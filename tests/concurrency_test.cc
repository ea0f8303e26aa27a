// Concurrency suite for the real-transport resolution path (ctest label
// `concurrency`; run it under -DHCS_SANITIZE=thread). Three storms:
//
//   1. N threads hammering FindNSM through the composite binding cache
//      while another thread loops RegisterNsm/UnregisterNsm — the
//      invalidation hooks racing the fast path, over real UDP sockets.
//   2. The sharded LRU under a mixed Put/Get/Remove load, checked against
//      HnsCache::CheckInvariants afterwards.
//   3. Multi-threaded logging through the hcs::Mutex sink — no torn lines.
//   4. The reactor's serving contract under concurrent clients: a serial
//      UDP endpoint's handlers never overlap, a concurrent one's do.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "src/bindns/server.h"
#include "src/common/logging.h"
#include "src/common/rand.h"
#include "src/common/sync.h"
#include "src/hns/hns.h"
#include "src/hns/name.h"
#include "src/rpc/client.h"
#include "src/rpc/server.h"
#include "src/rpc/udp_transport.h"
#include "src/sim/world.h"
#include "src/wire/value.h"

namespace hcs {
namespace {

// A linked HostAddress NSM answering from a fixed table — bounds the
// FindNSM recursion without touching the network, exactly how production
// deployments link their HostAddress NSMs (§3).
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

NsmInfo StormNsmInfo() {
  NsmInfo info;
  info.nsm_name = "StormNSM";
  info.query_class = kQueryClassHrpcBinding;
  info.ns_name = "UW-BIND";
  info.host = "nsmhost";
  info.host_context = "hostctx";
  info.program = 4242;
  info.version = 1;
  info.port = 999;
  return info;
}

// FindNSM storm vs. a Register/Unregister loop, sharing one Hns (cache
// shards, singleflight table, composite cache, RpcClient) over real UDP.
// Correctness bar: every reader sees either a fully-consistent handle or a
// clean failure, and the system converges once registration settles.
TEST(ConcurrencyTest, CompositeInvalidationRacesFindNsm) {
  // The modified-BIND meta authority, served from one real UDP socket. Its
  // serial endpoint is the only code touching `world` after setup, one
  // handler at a time.
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

  // Link the HostAddress NSM and register the confederation's meta data.
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
  NsmInfo storm_info = StormNsmInfo();
  ASSERT_TRUE(hns.RegisterNsm(storm_info).ok());

  HnsName name;
  name.context = "stormctx";
  name.individual = "anything";

  // Prove the happy path before the storm: a quiescent FindNSM must compose
  // the full handle. During the storm a success is not guaranteed — the
  // first Unregister may land before any read and negatively cache the
  // mapping for the storm's whole duration — so the storm itself only
  // asserts that no read ever observes a *torn* handle.
  {
    Result<NsmHandle> warm = hns.FindNsm(name, kQueryClassHrpcBinding);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm->nsm_name, "StormNSM");
    EXPECT_EQ(warm->binding.program, 4242u);
    EXPECT_EQ(warm->binding.port, 999);
    EXPECT_EQ(warm->binding.address, 0x7f000001u);
  }

  constexpr int kReaders = 4;
  constexpr int kReadsPerThread = 250;
  std::atomic<int> ok_results{0};
  std::atomic<int> clean_failures{0};
  std::atomic<int> wrong_results{0};
  std::atomic<bool> writer_done{false};

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        Result<NsmHandle> handle = hns.FindNsm(name, kQueryClassHrpcBinding);
        if (handle.ok()) {
          // A successful handle must be internally consistent — never a
          // half-invalidated composite entry.
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
    for (int round = 0; round < 20; ++round) {
      EXPECT_TRUE(hns.UnregisterNsm("UW-BIND", kQueryClassHrpcBinding).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      EXPECT_TRUE(hns.RegisterNsm(storm_info).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer_done = true;
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(wrong_results.load(), 0) << "a FindNSM result was torn by invalidation";
  EXPECT_EQ(ok_results.load() + clean_failures.load(), kReaders * kReadsPerThread);

  // Once registration settles the system must converge to success within
  // the negative TTL (1 s) plus slack.
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

  EXPECT_TRUE(hns.cache().CheckInvariants().ok());
  server_host.StopAll();
}

TEST(ConcurrencyTest, ShardedCacheSurvivesMixedStormIntact) {
  HnsCacheOptions options;
  options.shards = 4;
  options.max_bytes = 16 * 1024;  // force evictions under the storm
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled, options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "key-" + std::to_string(rng.Uniform(200));
        switch (rng.Uniform(5)) {
          case 0:
            cache.Put(key, WireValue::OfString(std::string(64, 'v')), /*ttl_seconds=*/60);
            break;
          case 1:
            cache.PutNegative(key);
            break;
          case 2:
            cache.Remove(key);
            break;
          default:
            (void)cache.Lookup(key);  // hcs:ignore-status(stress loop; absence of data races is the assertion)
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  Status invariants = cache.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes, cache.ApproximateBytes());
  EXPECT_GT(stats.inserts, 0u);
}

TEST(ConcurrencyTest, LogLinesNeverTearAcrossThreads) {
  // Divert fd 2 to a temp file for the duration of the storm.
  FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  int saved_stderr = dup(2);
  ASSERT_GE(saved_stderr, 0);
  ASSERT_GE(dup2(fileno(capture), 2), 0);
  LogLevel saved_threshold = GetLogThreshold();
  SetLogThreshold(LogLevel::kInfo);

  constexpr int kThreads = 8;
  constexpr int kLinesPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLinesPerThread; ++i) {
        HCS_LOG(Info) << "interleave-marker t=" << t << " i=" << i << " end";
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  SetLogThreshold(saved_threshold);
  fflush(stderr);
  dup2(saved_stderr, 2);
  close(saved_stderr);

  std::fseek(capture, 0, SEEK_SET);
  std::string captured;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), capture)) > 0) {
    captured.append(buffer, n);
  }
  std::fclose(capture);

  // Every emitted line must be whole: prefix, marker, and terminator with
  // nothing interleaved. Count both well-formed lines and any fragment of
  // the marker that escaped the pattern.
  std::regex whole_line(R"(\[I [^\]]+\] interleave-marker t=\d+ i=\d+ end)");
  size_t well_formed = 0;
  size_t marker_mentions = 0;
  size_t start = 0;
  while (start < captured.size()) {
    size_t end = captured.find('\n', start);
    if (end == std::string::npos) {
      end = captured.size();
    }
    std::string line = captured.substr(start, end - start);
    if (line.find("interleave-marker") != std::string::npos) {
      ++marker_mentions;
      if (std::regex_match(line, whole_line)) {
        ++well_formed;
      }
    }
    start = end + 1;
  }
  EXPECT_EQ(well_formed, static_cast<size_t>(kThreads * kLinesPerThread));
  EXPECT_EQ(marker_mentions, well_formed) << "some log line was torn mid-write";
}

// --- Reactor serving contract -----------------------------------------------

struct OverlapProbe {
  int max_in_flight = 0;
  int overlapping_calls = 0;  // handler entries that found another in flight
  int answered = 0;
};

// Four clients, each making the same 30 sync calls, against one reactor
// UDP endpoint whose handler counts how many invocations are in flight.
OverlapProbe ProbeHandlerOverlap(bool concurrent) {
  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 30;
  UdpServerHost host(/*reactor_workers=*/kClients);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<int> overlapping{0};
  RpcServer server(ControlKind::kRaw, "overlap-probe");
  server.RegisterProcedure(7, 1, [&](BytesView args) -> Result<Bytes> {
    int now = in_flight.fetch_add(1) + 1;
    if (now > 1) {
      overlapping.fetch_add(1);
    }
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    in_flight.fetch_sub(1);
    return args.ToBytes();
  });
  Result<uint16_t> port = concurrent ? host.ServeConcurrent(&server, 0) : host.Serve(&server, 0);
  EXPECT_TRUE(port.ok()) << port.status();
  if (!port.ok()) {
    return {};
  }
  HrpcBinding binding;
  binding.service_name = "overlap-probe";
  binding.host = "localhost";
  binding.port = *port;
  binding.program = 7;
  binding.version = 2;
  binding.control = ControlKind::kRaw;

  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      UdpTransport transport;
      RpcClient client(nullptr, "localclient", &transport);
      for (int i = 0; i < kCallsPerClient; ++i) {
        Bytes payload{static_cast<uint8_t>(c), static_cast<uint8_t>(i)};
        Result<Bytes> reply = client.Call(binding, 1, payload, RequestContext::WithTimeout(5000));
        if (reply.ok() && *reply == payload) {
          answered.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  host.StopAll();
  OverlapProbe probe;
  probe.max_in_flight = max_in_flight.load();
  probe.overlapping_calls = overlapping.load();
  probe.answered = answered.load();
  EXPECT_EQ(probe.answered, kClients * kCallsPerClient);
  return probe;
}

TEST(ConcurrencyTest, SerialUdpEndpointHandlersNeverOverlap) {
  OverlapProbe serial = ProbeHandlerOverlap(/*concurrent=*/false);
  // Control: the identical traffic against a concurrent endpoint overlaps,
  // so the probe can see an overlap when there is one.
  OverlapProbe control = ProbeHandlerOverlap(/*concurrent=*/true);
  EXPECT_GT(control.overlapping_calls, 0) << "the control run never overlapped";
  EXPECT_EQ(serial.overlapping_calls, 0)
      << "serial handlers overlapped (max in flight " << serial.max_in_flight << ")";
  EXPECT_EQ(serial.max_in_flight, 1);
}

TEST(ConcurrencyTest, ConcurrentUdpEndpointHandlersOverlap) {
  OverlapProbe probe = ProbeHandlerOverlap(/*concurrent=*/true);
  EXPECT_GT(probe.max_in_flight, 1) << "a concurrent endpoint ran one handler at a time";
}

}  // namespace
}  // namespace hcs
