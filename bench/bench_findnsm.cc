// In-text experiment E1 — FindNSM cost and the basic overhead of HNS naming:
//   * initial (uncached) FindNSM: 460 ms,
//   * with the cache installed:    88 ms,
//   * remote call to an NSM:    22-38 ms depending on the RPC system,
//   * total basic HNS overhead: 88-126 ms.

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_reactor_util.h"
#include "bench/bench_util.h"
#include "src/hns/session.h"
#include "src/hns/wire_protocol.h"
#include "src/rpc/server.h"
#include "src/testbed/testbed.h"

namespace hcs {
namespace {

void RunComposite(double record_cache_warm_ms);
void RunRuntimeSweep();

void Run() {
  Testbed bed;

  PrintHeader("E1: FindNSM cost and basic HNS naming overhead (sim msec vs paper)");

  ClientSetup client = bed.MakeClient(Arrangement::kRemoteNsms);
  Hns* hns = client.session->local_hns();

  HnsName name;
  name.context = kContextBindBinding;
  name.individual = kSunServerHost;

  // Cold FindNSM: the six remote data mappings.
  client.FlushAll();
  double cold = MeasureMs(&bed.world(), [&] {
    Result<NsmHandle> handle = hns->FindNsm(name, kQueryClassHrpcBinding);
    if (!handle.ok()) std::abort();
  });

  // Warm FindNSM: every mapping served from the (marshalled) cache.
  double warm = MeasureMs(&bed.world(), [&] {
    Result<NsmHandle> handle = hns->FindNsm(name, kQueryClassHrpcBinding);
    if (!handle.ok()) std::abort();
  });

  PrintComparison("FindNSM, initial implementation (no cache)", cold, 460);
  PrintComparison("FindNSM, with cache installed", warm, 88);

  // The remote NSM call itself, over the raw HRPC protocol and with the
  // NSM's cache warm (the paper quotes 22-38 ms depending on the RPC
  // system; our NSMs speak the raw protocol, Sun RPC and Courier frames
  // are measured for reference).
  Result<NsmHandle> handle = hns->FindNsm(name, kQueryClassHrpcBinding);
  if (!handle.ok()) {
    std::abort();
  }
  // Warm the remote NSM.
  WireValue args = RecordBuilder().Str("service", kDesiredService).Build();
  (void)client.session->Query(name, kQueryClassHrpcBinding, args);  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)

  double nsm_call = MeasureMs(&bed.world(), [&] {
    Result<WireValue> result = client.session->Query(name, kQueryClassHrpcBinding, args);
    if (!result.ok()) std::abort();
  });
  // Query() on a warm path = cached FindNSM + the remote NSM exchange; peel
  // the FindNSM part off to isolate the call.
  double remote_call_only = nsm_call - warm;
  PrintComparison("remote call to the NSM (raw HRPC)", remote_call_only, 30);

  double total = warm + remote_call_only;
  PrintComparison("basic overhead of HNS naming (total)", total, 107);
  PrintRule();
  std::printf("  paper: overhead between 88 ms (call avoided by caching) and 126 ms;\n");
  std::printf("  measured overhead range: %.1f - %.1f ms\n", warm, total);

  RunComposite(warm);
}

// The composite fast path: the same E1 warm FindNSM, with the level-2
// binding cache enabled. A warm lookup must be exactly one composite probe
// and zero record-cache probes, and measurably under the 88 ms cached
// baseline of the paper.
void RunComposite(double record_cache_warm_ms) {
  TestbedOptions options;
  options.hns_composite_cache = true;
  Testbed bed(options);

  PrintHeader("E1+: FindNSM with the composite binding cache (beyond the paper)");

  ClientSetup client = bed.MakeClient(Arrangement::kRemoteNsms);
  Hns* hns = client.session->local_hns();

  HnsName name;
  name.context = kContextBindBinding;
  name.individual = kSunServerHost;

  client.FlushAll();
  double cold = MeasureMs(&bed.world(), [&] {
    Result<NsmHandle> handle = hns->FindNsm(name, kQueryClassHrpcBinding);
    if (!handle.ok()) std::abort();
  });

  hns->cache().ResetStats();
  hns->composite_cache().ResetStats();
  double warm = MeasureMs(&bed.world(), [&] {
    Result<NsmHandle> handle = hns->FindNsm(name, kQueryClassHrpcBinding);
    if (!handle.ok()) std::abort();
  });

  CacheStats record_stats = hns->cache().stats();
  CacheStats composite_stats = hns->composite_cache().stats();
  // Warm path invariant: one composite probe, no record-cache probes.
  if (composite_stats.Probes() != 1 || composite_stats.hits != 1 ||
      record_stats.Probes() != 0) {
    std::printf("FATAL: warm composite FindNSM probed composite=%llu record=%llu "
                "(want 1 and 0)\n",
                static_cast<unsigned long long>(composite_stats.Probes()),
                static_cast<unsigned long long>(record_stats.Probes()));
    std::abort();
  }
  if (warm >= record_cache_warm_ms) {
    std::printf("FATAL: composite warm FindNSM (%.1f ms) not below record-cache warm "
                "path (%.1f ms)\n", warm, record_cache_warm_ms);
    std::abort();
  }

  PrintValue("FindNSM, cold (composite enabled)", cold);
  PrintComparison("FindNSM, warm (composite hit)", warm, 88);
  PrintValue("record-cache warm path, for reference", record_cache_warm_ms);
  PrintRule();
  PrintCacheStats("composite cache", composite_stats);
  PrintCacheStats("record cache", record_stats);
  std::printf("  warm FindNSM = 1 composite probe + 1 handle copy "
              "(vs 6 record probes): %.1f ms -> %.1f ms\n",
              record_cache_warm_ms, warm);

  RunRuntimeSweep();
}

// E1-R: the serving runtime under concurrent FindNSM-shaped load, measured
// in wall-clock over real loopback sockets. One RPC endpoint whose handler
// costs ~1 ms (the warm remote-NSM exchange of E1), hosted two ways on
// the shared epoll reactor:
//   (a) a serial endpoint (Serve), which processes at most one request at a
//       time — the contract a service that is not thread-safe gets;
//   (b) a concurrent endpoint (ServeConcurrent), fanning the same endpoint
//       across the worker pool.
// Each client thread keeps one budgeted request in flight; with 8+ clients
// the reactor must clear >= 2x the baseline's throughput.
void RunRuntimeSweep() {
  PrintHeader("E1-R: service runtime sweep, serial vs concurrent reactor endpoint (wall-clock)");

  RpcServer server(ControlKind::kRaw, "findnsm-like");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> {
    // The warm remote-NSM exchange: ~1 ms of downstream wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return args.ToBytes();
  });

  const std::vector<int> kClients = {1, 2, 4, 8, 16};
  constexpr int kRequestsPerClient = 100;
  std::vector<SweepPoint> baseline =
      SweepRuntime(/*concurrent=*/false, &server, kClients, kRequestsPerClient);
  std::vector<SweepPoint> reactor =
      SweepRuntime(/*concurrent=*/true, &server, kClients, kRequestsPerClient);
  PrintSweepTable("reactor (serial)", "reactor (concurrent)", baseline, reactor);

  for (size_t i = 0; i < kClients.size(); ++i) {
    if (kClients[i] >= 8 && baseline[i].throughput_qps > 0 &&
        reactor[i].throughput_qps < 2.0 * baseline[i].throughput_qps) {
      std::printf("FATAL: reactor %.0f qps < 2x baseline %.0f qps at %d clients\n",
                  reactor[i].throughput_qps, baseline[i].throughput_qps, kClients[i]);
      std::abort();
    }
  }
  std::printf("  a serial endpoint caps out near 1/handler-cost regardless of offered load;\n");
  std::printf("  the reactor fans one endpoint across the pool, so throughput scales with\n");
  std::printf("  clients until the workers saturate.\n");
}

}  // namespace
}  // namespace hcs

int main() {
  hcs::Run();
  return 0;
}
