// hnsbench: resolves names through the loopback federation and prints the
// benchmark's metrics.
//
//   hnsbench --workload <warm_linked|warm_remote|cold_clients|churn_rw>
//            --seed <n> --seconds <s> --trace <0|1> [--span-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it record the environment, sample counts and checks.

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/cpus.h"
#include "perfbench/federation.h"
#include "perfbench/runner.h"
#include "src/common/bytes.h"
#include "src/common/strings.h"
#include "src/rpc/mmsg.h"
#include "src/rpc/reactor.h"

#ifndef HNSBENCH_BUILD_TYPE
#define HNSBENCH_BUILD_TYPE "unknown"
#endif

namespace hnsbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "hnsbench: %s\nusage: hnsbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--span-dir <dir>]\n",
               why);
  return 2;
}

// Numbers from a build with sanitizers or the view/loop debug machinery
// compiled in measure the checks, not the program.
const char* InstrumentedBuild() {
#if defined(HNSBENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizers are compiled in";
#elif HCS_VIEW_DEBUG_ENABLED
  return "HCS_DEBUG_VIEW (view-lifetime checks) is compiled in";
#elif HCS_LOOP_DEBUG_ENABLED
  return "HCS_DEBUG_LOOP (loop-affinity checks) is compiled in";
#else
  return nullptr;
#endif
}

std::string JsonNumber(double value) {
  if (value != value || value == 1.0 / 0.0 || value == -1.0 / 0.0) {
    return "null";
  }
  return hcs::StrFormat("%.17g", value);
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      std::optional<Workload> workload = ParseWorkload(value);
      if (!workload.has_value()) {
        return Usage(("unknown workload " + value).c_str());
      }
      config.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--span-dir") {
      config.span_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || config.seconds <= 0) {
    return Usage("--workload and a positive --seconds are required");
  }
  if (const char* why = InstrumentedBuild(); why != nullptr) {
    std::fprintf(stderr, "hnsbench: refusing to measure: %s\n", why);
    return 3;
  }

  UseReactorServing();
  RunResult result = RunBenchmark(config);

  utsname host{};
  uname(&host);
  std::string cpus;
  for (int cpu : AllowedCpus()) {
    cpus += hcs::StrFormat("%s%d", cpus.empty() ? "" : ",", cpu);
  }
  std::printf("env: nproc=%u online_cpus=%ld cpus=%s (one at a time) compiler=\"g++ %s\" build_type=%s "
              "kernel=\"%s %s\" transport=\"UDP on 127.0.0.1 loopback; servers: one "
              "UdpServerHost on the epoll reactor, recv/send batch %d, mmsg %s; clients: "
              "UdpTransport through the AsyncClientEngine; NSMs: blocking UdpTransport "
              "exchange\"\n",
              std::thread::hardware_concurrency(), sysconf(_SC_NPROCESSORS_ONLN), cpus.c_str(),
              __VERSION__, HNSBENCH_BUILD_TYPE, host.sysname, host.release,
              hcs::ResolveUdpBatchSize(0), hcs::MmsgAvailable() ? "available" : "unavailable");
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (result.metrics.empty()) {
    std::fprintf(stderr, "hnsbench: no result\n");
    return 1;
  }
  std::string metrics;
  for (const Metric& metric : result.metrics) {
    std::printf("%-40s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    metrics += hcs::StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                              metrics.empty() ? "" : ", ", metric.name.c_str(),
                              JsonNumber(metric.value).c_str(), metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace hnsbench

int main(int argc, char** argv) { return hnsbench::Main(argc, argv); }
