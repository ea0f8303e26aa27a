// The four workloads and the measurement around them.
//
// A run sets the federation up, warms it, then drives it closed-loop from
// one or two caller threads for a fixed wall-clock window. Every op carries
// a RequestContext deadline and a fresh trace id, is timed around
// HnsSession::Query, and has its answer checked against the generator's
// ground truth.
//
// Untraced (--trace 0): the end-to-end metrics, with set-up repeated
// kSetups times and its median reported.
// Traced (--trace 1): half the window untraced (the baseline of
// trace.overhead_frac), half on a federation whose endpoints record spans;
// the per-layer metrics come from those spans and the program's own
// counters.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hnsbench {

enum class Workload { kWarmLinked, kWarmRemote, kColdClients, kChurnRw };
std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

struct RunConfig {
  Workload workload = Workload::kWarmRemote;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Where a traced run writes its spans ("" = nowhere).
  std::string span_dir;
  // Shrinks the run for self-tests: population, hot set, set-ups, warm-up.
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors, timeouts and wrong answers
  std::vector<Metric> metrics;
  // Human-readable report lines (environment, sample counts, checks).
  std::vector<std::string> notes;
};

RunResult RunBenchmark(const RunConfig& config);

}  // namespace hnsbench

#endif  // PERFBENCH_RUNNER_H_
