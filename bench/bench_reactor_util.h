// Real-socket service-runtime sweep shared by bench_findnsm and
// bench_workload: the same RPC service is hosted on the shared epoll
// reactor once as a serial endpoint and once with concurrent dispatch,
// then driven by N client threads with one request in flight each. The client drivers themselves (thread-per-call and the
// async burst-refill window driver) live in src/workload/driver.h, shared
// with the workload scenario suite; this header keeps only the
// bench-specific hosting and table-printing wrappers.

#ifndef HCS_BENCH_BENCH_REACTOR_UTIL_H_
#define HCS_BENCH_BENCH_REACTOR_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/rpc/server.h"
#include "src/sim/world.h"
#include "src/workload/driver.h"

namespace hcs {

// Hosts `server` as a serial or a concurrent endpoint (concurrent dispatch
// needs a thread-safe handler) and runs the client sweep against it. The
// worker pool is sized for the sweep's peak concurrency rather than the
// core count: the handlers model downstream I/O waits, so workers park in
// the kernel and more of them are nearly free.
inline std::vector<SweepPoint> SweepRuntime(bool concurrent, RpcServer* server,
                                            const std::vector<int>& client_counts,
                                            int requests_per_client) {
  int peak = 1;
  for (int clients : client_counts) {
    peak = std::max(peak, clients);
  }
  std::vector<SweepPoint> points;
  UdpServerHost host(/*reactor_workers=*/peak);
  Result<uint16_t> port = concurrent ? host.ServeConcurrent(server, 0) : host.Serve(server, 0);
  if (!port.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", port.status().ToString().c_str());
    std::abort();
  }
  for (int clients : client_counts) {
    points.push_back(DriveClients(*port, clients, requests_per_client));
  }
  host.StopAll();
  return points;
}

inline void PrintSweepTable(const char* baseline_label, const char* reactor_label,
                            const std::vector<SweepPoint>& baseline,
                            const std::vector<SweepPoint>& reactor) {
  std::printf("  %-8s | %-28s | %-28s | %7s\n", "", baseline_label, reactor_label, "");
  std::printf("  %-8s | %9s %8s %8s | %9s %8s %8s | %7s\n", "clients", "qps", "p50 ms",
              "p99 ms", "qps", "p50 ms", "p99 ms", "speedup");
  for (size_t i = 0; i < baseline.size() && i < reactor.size(); ++i) {
    const SweepPoint& b = baseline[i];
    const SweepPoint& r = reactor[i];
    std::printf("  %-8d | %9.0f %8.2f %8.2f | %9.0f %8.2f %8.2f | %6.2fx\n", b.clients,
                b.throughput_qps, b.p50_ms, b.p99_ms, r.throughput_qps, r.p50_ms, r.p99_ms,
                b.throughput_qps > 0 ? r.throughput_qps / b.throughput_qps : 0.0);
  }
  uint64_t attempts = 0;
  uint64_t retries = 0;
  for (const SweepPoint& p : baseline) {
    attempts += p.attempts;
    retries += p.retries;
  }
  for (const SweepPoint& p : reactor) {
    attempts += p.attempts;
    retries += p.retries;
  }
  std::printf("  rpc attempts=%llu retries=%llu (budgeted calls; retries indicate drops)\n",
              static_cast<unsigned long long>(attempts),
              static_cast<unsigned long long>(retries));
}

}  // namespace hcs

#endif  // HCS_BENCH_BENCH_REACTOR_UTIL_H_
