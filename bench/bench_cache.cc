// Cache-subsystem harness (beyond the paper's tables): exercises the parts
// of the resolution cache the paper's prototype did not have —
//   A. warm-path probe counts, composite binding cache off vs on,
//   B. the sharded LRU's byte budget and eviction behaviour,
//   C. negative caching of NotFound meta records,
//   D. miss coalescing under a real multi-threaded stampede (UDP sockets,
//      one slow upstream fetch shared by every concurrent caller).
// Exits non-zero if any invariant fails.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/bindns/protocol.h"
#include "src/bindns/record.h"
#include "src/hns/meta_store.h"
#include "src/rpc/ports.h"
#include "src/rpc/server.h"
#include "src/rpc/udp_transport.h"
#include "src/testbed/testbed.h"

namespace hcs {
namespace {

struct Target {
  const char* context;
  const char* qc;
  const char* individual;
};

const Target kTargets[] = {
    {kContextBindBinding, kQueryClassHrpcBinding, kSunServerHost},
    {kContextBind, kQueryClassHostAddress, kSunServerHost},
    {kContextBindMail, kQueryClassMailboxInfo, "cs.washington.edu"},
    {kContextCh, kQueryClassHostAddress, kXeroxServerHost},
    {kContextChBinding, kQueryClassHrpcBinding, kXeroxServerHost},
    {kContextChMail, kQueryClassMailboxInfo, "Purcell:CSL:Xerox"},
};

// --- A: warm-path probes per FindNSM, composite off vs on -------------------

void RunWarmPath() {
  PrintHeader("A: warm FindNSM probes/op — record cache vs composite fast path");
  constexpr int kRounds = 20;

  for (bool composite : {false, true}) {
    TestbedOptions options;
    options.hns_composite_cache = composite;
    Testbed bed(options);
    ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
    Hns* hns = client.session->local_hns();

    // Warm every target once, then measure steady state.
    for (const Target& target : kTargets) {
      HnsName name;
      name.context = target.context;
      name.individual = target.individual;
      if (!hns->FindNsm(name, target.qc).ok()) std::abort();
    }
    hns->cache().ResetStats();
    hns->composite_cache().ResetStats();

    int ops = 0;
    double ms = MeasureMs(&bed.world(), [&] {
      for (int round = 0; round < kRounds; ++round) {
        for (const Target& target : kTargets) {
          HnsName name;
          name.context = target.context;
          name.individual = target.individual;
          if (!hns->FindNsm(name, target.qc).ok()) std::abort();
          ++ops;
        }
      }
    });

    CacheStats record = hns->cache().stats();
    CacheStats comp = hns->composite_cache().stats();
    double probes_per_op =
        static_cast<double>(record.Probes() + comp.Probes()) / ops;
    std::printf("  composite %-3s  %6.2f ms/op   %4.2f probes/op\n",
                composite ? "on" : "off", ms / ops, probes_per_op);
    PrintCacheStats(composite ? "  composite" : "  record", composite ? comp : record);
    if (composite && probes_per_op != 1.0) {
      std::printf("FATAL: composite warm path should be exactly 1 probe/op\n");
      std::abort();
    }
  }
}

// --- B: sharded LRU byte budget ---------------------------------------------

void RunByteBudget() {
  PrintHeader("B: sharded LRU under a byte budget (no simulated world)");
  HnsCacheOptions options;
  options.shards = 4;
  options.max_bytes = 16 * 1024;
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled, options);

  constexpr int kEntries = 500;
  for (int i = 0; i < kEntries; ++i) {
    WireValue value =
        RecordBuilder().Str("blob", std::string(200, static_cast<char>('a' + i % 26))).Build();
    cache.Put(StrFormat("record-%04d.hns", i), value, 300);
  }

  CacheStats stats = cache.stats();
  std::printf("  inserted %d x ~200 B entries into a %zu B budget\n", kEntries,
              options.max_bytes);
  std::printf("  resident entries=%zu bytes=%zu evictions=%llu\n", cache.size(),
              cache.ApproximateBytes(), static_cast<unsigned long long>(stats.evictions));
  if (cache.ApproximateBytes() > options.max_bytes) {
    std::printf("FATAL: cache exceeded its byte budget\n");
    std::abort();
  }
  if (stats.evictions == 0) {
    std::printf("FATAL: expected LRU evictions under this budget\n");
    std::abort();
  }
  if (Status invariants = cache.CheckInvariants(); !invariants.ok()) {
    std::printf("FATAL: cache invariants violated after eviction storm: %s\n",
                invariants.ToString().c_str());
    std::abort();
  }
}

// --- C: negative caching ----------------------------------------------------

void RunNegativeCaching() {
  PrintHeader("C: negative caching of NotFound meta records");
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  Hns* hns = client.session->local_hns();

  HnsName name;
  name.context = "NoSuchContext";
  name.individual = "whatever";

  uint64_t before = hns->meta().remote_lookups();
  double first = MeasureMs(&bed.world(), [&] {
    if (hns->FindNsm(name, kQueryClassHostAddress).ok()) std::abort();
  });
  uint64_t after_first = hns->meta().remote_lookups();
  double second = MeasureMs(&bed.world(), [&] {
    if (hns->FindNsm(name, kQueryClassHostAddress).ok()) std::abort();
  });
  uint64_t after_second = hns->meta().remote_lookups();

  CacheStats stats = hns->cache().stats();
  std::printf("  first NotFound: %.1f ms, %llu upstream lookups\n", first,
              static_cast<unsigned long long>(after_first - before));
  std::printf("  repeat within negative TTL: %.1f ms, %llu upstream lookups, "
              "negative hits=%llu\n",
              second, static_cast<unsigned long long>(after_second - after_first),
              static_cast<unsigned long long>(stats.negative_hits));
  if (after_second != after_first || stats.negative_hits == 0) {
    std::printf("FATAL: repeat NotFound should be absorbed by the negative cache\n");
    std::abort();
  }
}

// --- D: miss coalescing under a real stampede -------------------------------

void RunStampede() {
  PrintHeader("D: miss coalescing — 8 threads stampede one cold record (real UDP)");

  // A fake modified-BIND whose every answer takes ~50 ms: long enough that
  // all the followers arrive while the leader's fetch is still in flight.
  std::atomic<int> server_hits{0};
  RpcServer server(ControlKind::kRaw, "slow-meta-bind");
  server.RegisterProcedure(kBindProgram, kBindProcQuery,
                           [&server_hits](BytesView args) -> Result<Bytes> {
                             ++server_hits;
                             HCS_ASSIGN_OR_RETURN(BindQueryRequest request,
                                                  BindQueryRequest::Decode(args));
                             std::this_thread::sleep_for(std::chrono::milliseconds(50));
                             BindQueryResponse response;
                             response.rcode = Rcode::kNoError;
                             response.answers = UnspecRecordsFromValue(
                                 request.name, RecordBuilder().Str("ns", "UW-BIND").Build(),
                                 300);
                             return response.Encode();
                           });
  UdpServerHost host;
  Result<uint16_t> port = host.Serve(&server, 0);
  if (!port.ok()) {
    std::printf("  (skipped: cannot bind a local UDP socket: %s)\n",
                port.status().ToString().c_str());
    return;
  }

  UdpTransport transport;
  RpcClient rpc(/*world=*/nullptr, "bench-client", &transport);
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled);
  MetaStore meta(&rpc, "localhost", "", &cache);
  meta.set_meta_port(*port);

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Result<std::string> ns = meta.ContextToNameService("StampedeContext");
      if (!ns.ok() || *ns != "UW-BIND") {
        ++failures;
      }
    });
    // Stagger slightly so the first thread reliably becomes the leader.
    if (t == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  host.StopAll();

  CacheStats stats = cache.stats();
  std::printf("  %d threads, wall %.0f ms: upstream fetches=%d coalesced=%llu\n", kThreads,
              wall_ms, server_hits.load(),
              static_cast<unsigned long long>(stats.coalesced_misses));
  if (failures.load() != 0 || server_hits.load() != 1 ||
      stats.coalesced_misses != kThreads - 1) {
    std::printf("FATAL: stampede should collapse to one upstream fetch "
                "(failures=%d fetches=%d coalesced=%llu)\n",
                failures.load(), server_hits.load(),
                static_cast<unsigned long long>(stats.coalesced_misses));
    std::abort();
  }
  if (Status invariants = cache.CheckInvariants(); !invariants.ok()) {
    std::printf("FATAL: cache invariants violated after the stampede: %s\n",
                invariants.ToString().c_str());
    std::abort();
  }
}

void Run() {
  RunWarmPath();
  RunByteBudget();
  RunNegativeCaching();
  RunStampede();
  std::printf("\nall cache invariants held\n");
}

}  // namespace
}  // namespace hcs

int main() {
  hcs::Run();
  return 0;
}
