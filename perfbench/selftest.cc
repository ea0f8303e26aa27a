// Self-tests of the benchmark itself: determinism of the generator, the
// report arithmetic, the CPU rotation, the ground-truth checker and a tiny
// run of every workload. Exits non-zero if any check failed.

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/cpus.h"
#include "perfbench/federation.h"
#include "perfbench/gen.h"
#include "perfbench/runner.h"
#include "perfbench/trace.h"
#include "src/rpc/binding.h"

namespace hnsbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                        \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                           \
    }                                                                       \
  } while (0)

void SameSeedSameOps() {
  for (DrawMode mode : {DrawMode::kHotZipf, DrawMode::kUniform}) {
    uint64_t a = HashOps(OpStream(42, 0, mode, 4096, 256, 20), 20000);
    uint64_t b = HashOps(OpStream(42, 0, mode, 4096, 256, 20), 20000);
    uint64_t other_seed = HashOps(OpStream(43, 0, mode, 4096, 256, 20), 20000);
    uint64_t other_caller = HashOps(OpStream(42, 1, mode, 4096, 256, 20), 20000);
    EXPECT(a == b);
    EXPECT(a != other_seed);
    EXPECT(a != other_caller);
  }
  // The population and hot set are seed functions too.
  Population p1(7, 1000);
  Population p2(7, 1000);
  Population p3(8, 1000);
  EXPECT(p1.BindHostAt(17).address == p2.BindHostAt(17).address);
  EXPECT(p1.ChUserAt(5).mail_host == p2.ChUserAt(5).mail_host);
  bool differs = false;
  for (uint32_t i = 0; i < 100; ++i) {
    differs = differs || p1.BindHostAt(i).program != p3.BindHostAt(i).program;
  }
  EXPECT(differs);
  HotSet h1(p1, 64);
  HotSet h2(p2, 64);
  for (uint32_t r = 0; r < 64; ++r) {
    EXPECT(h1.IndexAt(Pair::kChMail, r) == h2.IndexAt(Pair::kChMail, r));
  }
  // The E5 mix: every pair drawn, in proportion to its weight.
  OpStream stream(1, 0, DrawMode::kUniform, 1000, 1, 0);
  int counts[kPairs] = {};
  for (int i = 0; i < 100000; ++i) {
    ++counts[static_cast<int>(stream.Next().pair)];
  }
  for (int p = 0; p < kPairs; ++p) {
    double share = counts[p] / 1000.0;
    EXPECT(share > SpecOf(static_cast<Pair>(p)).weight - 1.0);
    EXPECT(share < SpecOf(static_cast<Pair>(p)).weight + 1.0);
  }
}

void Arithmetic() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  EXPECT(Percentile(&hundred, 0.50) == 50);
  EXPECT(Percentile(&hundred, 0.99) == 99);
  EXPECT(Percentile(&hundred, 1.0) == 100);
  std::vector<float> three = {5, 1, 3};
  EXPECT(Percentile(&three, 0.50) == 3);
  std::vector<double> empty;
  EXPECT(Percentile(&empty, 0.5) == 0);

  Span span;
  span.start_ns = 0;
  span.end_ns = 100;
  // Overlapping children count once; a child running past the end is clipped.
  EXPECT(SelfTimeNs(span, {{10, 20}, {15, 30}, {50, 60}, {90, 120}}) == 60);
  EXPECT(SelfTimeNs(span, {}) == 100);
  EXPECT(SelfTimeNs(span, {{0, 100}, {20, 30}}) == 0);

  // Two traces: a query holding an NSM span holding a BIND span, and an
  // unrelated span of another trace inside the same interval.
  std::vector<Span> spans = {
      {7, 10, 20, -1, Layer::kPublicBind, false},
      {7, 0, 100, -1, Layer::kQuery, false},
      {7, 5, 50, -1, Layer::kNsm, false},
      {9, 12, 18, -1, Layer::kMetaBind, false},
      {7, 60, 70, -1, Layer::kMetaBind, false},
      {0, 1, 2, -1, Layer::kCh, false},
  };
  LinkParents(&spans);
  EXPECT(spans[1].parent == -1);
  EXPECT(spans[2].parent == 1);
  EXPECT(spans[0].parent == 2);
  EXPECT(spans[4].parent == 1);
  EXPECT(spans[3].parent == -1);
  EXPECT(spans[5].parent == -1);
}

hcs::WireValue Answer(const Target& target) {
  switch (target.pair) {
    case Pair::kBindHost:
    case Pair::kChHost:
      return hcs::RecordBuilder().U32("address", target.address).Str("host", "x").Build();
    case Pair::kBindBinding:
    case Pair::kChBinding: {
      hcs::HrpcBinding binding;
      binding.address = target.address;
      binding.port = target.port;
      binding.program = target.program;
      return binding.ToWire();
    }
    case Pair::kBindMail:
    case Pair::kChMail:
      return hcs::RecordBuilder()
          .Str("mail_host", target.mail_host)
          .U32("preference", target.preference)
          .Build();
  }
  return hcs::WireValue::OfRecord({});
}

void CheckerCatchesPlantedWrongAnswers() {
  Population population(3, 100);
  for (int p = 0; p < kPairs; ++p) {
    Target target = population.TargetAt(static_cast<Pair>(p), 11);
    EXPECT(CheckAnswer(target, Answer(target)).ok());
    Target planted = target;
    planted.address ^= 1;
    planted.port ^= 1;
    planted.mail_host += "x";
    EXPECT(!CheckAnswer(target, Answer(planted)).ok());
    Target other = population.TargetAt(static_cast<Pair>(p), 12);
    EXPECT(!CheckAnswer(target, Answer(other)).ok());
    EXPECT(!CheckAnswer(target, hcs::WireValue::OfRecord({})).ok());
  }
  // Only the program differs.
  Target binding = population.TargetAt(Pair::kBindBinding, 4);
  Target wrong_program = binding;
  wrong_program.program += 1;
  EXPECT(!CheckAnswer(binding, Answer(wrong_program)).ok());
}

// Every thread, including one started before the move, ends up confined to
// the rotation's current CPU; the rotation visits every CPU in turn and
// gives the process all of them back when it ends.
void RotationMovesEveryThread() {
  std::vector<int> cpus = AllowedCpus();
  EXPECT(!cpus.empty());
  std::atomic<pid_t> helper_tid{0};
  std::atomic<bool> stop{false};
  std::thread helper([&] {
    helper_tid = static_cast<pid_t>(syscall(SYS_gettid));
    while (!stop) {
      std::this_thread::yield();
    }
  });
  while (helper_tid == 0) {
    std::this_thread::yield();
  }
  auto affinity = [](pid_t tid) {
    cpu_set_t set;
    CPU_ZERO(&set);
    EXPECT(sched_getaffinity(tid, sizeof(set), &set) == 0);
    return set;
  };
  {
    CpuRotation rotation;
    for (size_t i = 0; i < 2 * cpus.size(); ++i) {
      EXPECT(rotation.Next());
      int expected = cpus[i % cpus.size()];
      for (pid_t tid : {static_cast<pid_t>(0), helper_tid.load()}) {
        cpu_set_t set = affinity(tid);
        EXPECT(CPU_COUNT(&set) == 1 && CPU_ISSET(expected, &set));
      }
      EXPECT(sched_getcpu() == expected);
    }
    EXPECT(rotation.failures() == 0);
  }
  for (pid_t tid : {static_cast<pid_t>(0), helper_tid.load()}) {
    cpu_set_t set = affinity(tid);
    EXPECT(CPU_COUNT(&set) == static_cast<int>(cpus.size()));
  }
  stop = true;
  helper.join();
}

void TinyRunOfEachWorkload() {
  for (Workload workload : {Workload::kWarmLinked, Workload::kWarmRemote,
                            Workload::kColdClients, Workload::kChurnRw}) {
    for (bool trace : {false, true}) {
      RunConfig config;
      config.workload = workload;
      config.seed = 5;
      config.seconds = 0.2;
      config.trace = trace;
      config.tiny = true;
      RunResult result = RunBenchmark(config);
      if (!result.correct || result.failed != 0 || result.attempted == 0 ||
          result.metrics.empty()) {
        std::fprintf(stderr, "tiny run of %s (trace %d) failed:\n", WorkloadName(workload), trace);
        for (const std::string& note : result.notes) {
          std::fprintf(stderr, "  %s\n", note.c_str());
        }
        ++failures;
      }
    }
  }
}

}  // namespace
}  // namespace hnsbench

int main() {
  hnsbench::UseReactorServing();
  hnsbench::SameSeedSameOps();
  hnsbench::Arithmetic();
  hnsbench::CheckerCatchesPlantedWrongAnswers();
  hnsbench::RotationMovesEveryThread();
  hnsbench::TinyRunOfEachWorkload();
  if (hnsbench::failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", hnsbench::failures);
    return 1;
  }
  std::printf("all hnsbench self-tests passed\n");
  return 0;
}
