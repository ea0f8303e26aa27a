#include "perfbench/runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "perfbench/cpus.h"
#include "perfbench/federation.h"
#include "perfbench/gen.h"
#include "perfbench/trace.h"
#include "src/common/strings.h"
#include "src/hns/cache.h"
#include "src/rpc/async_client.h"
#include "src/rpc/context.h"
#include "src/rpc/mmsg.h"

namespace hnsbench {

namespace {

// Every op's budget. Loopback answers in well under a millisecond; the
// deadline is there so the budgeted-retry client path is the one measured.
constexpr int64_t kBudgetMs = 2000;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
// Untimed ops per caller after set-up, so lazy state settles before timing.
constexpr int kWarmupOps = 500;
// Traced ops per caller at most: bounds the span memory.
constexpr uint64_t kMaxTracedOps = 100000;
// A timed window is cut into slices of this length; the process moves to
// the next CPU at each.
constexpr double kSliceSeconds = 0.5;

struct WorkloadSpec {
  Workload workload;
  const char* name;
  bool linked_nsms;  // row 1 ([Client, HNS, NSMs]); else row 4 ([NSMs] [Client, HNS])
  int callers;
  DrawMode mode;
  int write_every;          // every n-th op re-registers a hot NSM (0: reads only)
  uint32_t population;      // entities of each kind
  uint32_t hot;             // hot names per pair (kHotZipf)
  int queries_per_session;  // a fresh HnsSession every n queries (0: one per caller)
};

// Warm workloads draw from a hot set small enough to warm at set-up; the
// cold workload's population is far larger than one run touches, so most
// NSM lookups miss down to BIND or the Clearinghouse. Its clients live for
// 2 queries: with 4, about 45% of ops (those whose FindNSM hits the
// composite cache) sat below a gap in the latency distribution just under
// the median, and the p50 jumped across that gap from run to run.
const WorkloadSpec kWorkloads[] = {
    {Workload::kWarmLinked, "warm_linked", true, 1, DrawMode::kHotZipf, 0, 4096, 256, 0},
    {Workload::kWarmRemote, "warm_remote", false, 2, DrawMode::kHotZipf, 0, 4096, 256, 0},
    {Workload::kColdClients, "cold_clients", false, 2, DrawMode::kUniform, 0, 65536, 0, 2},
    {Workload::kChurnRw, "churn_rw", false, 2, DrawMode::kHotZipf, 20, 4096, 256, 0},
};

// The NSM each churn caller moves between its two replicas. Each caller
// moves its own: a caller re-reads an NSM's records only after its own
// re-registration has finished.
const NsmId kChurnNsm[2] = {NsmId::kBindingBind, NsmId::kMailboxBind};

const std::string& QueryClassOf(Pair pair) {
  static const std::vector<std::string> kClasses = [] {
    std::vector<std::string> classes;
    for (int p = 0; p < kPairs; ++p) {
      classes.emplace_back(SpecOf(static_cast<Pair>(p)).query_class);
    }
    return classes;
  }();
  return kClasses[static_cast<int>(pair)];
}

hcs::CacheStats Minus(hcs::CacheStats a, const hcs::CacheStats& b) {
  a.hits -= b.hits;
  a.misses -= b.misses;
  a.expirations -= b.expirations;
  a.inserts -= b.inserts;
  a.evictions -= b.evictions;
  a.negative_hits -= b.negative_hits;
  a.coalesced_misses -= b.coalesced_misses;
  a.bytes = 0;
  return a;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Counters of one client process.
struct ClientStats {
  hcs::CacheStats record;
  hcs::CacheStats composite;
  hcs::CacheStats linked_nsms;  // the NSMs linked into it (row 1)
  uint64_t meta_lookups = 0;

  void Add(const ClientStats& other) {
    record += other.record;
    composite += other.composite;
    linked_nsms += other.linked_nsms;
    meta_lookups += other.meta_lookups;
  }
  ClientStats Since(const ClientStats& base) const {
    ClientStats delta;
    delta.record = Minus(record, base.record);
    delta.composite = Minus(composite, base.composite);
    delta.linked_nsms = Minus(linked_nsms, base.linked_nsms);
    delta.meta_lookups = meta_lookups - base.meta_lookups;
    return delta;
  }
};

ClientStats StatsOf(const Client& client, bool linked_nsms) {
  hcs::Hns& hns = *client.session->local_hns();
  ClientStats stats;
  stats.record = hns.cache().stats();
  stats.composite = hns.composite_cache().stats();
  stats.meta_lookups = hns.meta().remote_lookups();
  if (linked_nsms) {
    for (int n = 0; n < kNsms; ++n) {
      if (hcs::Nsm* nsm = hns.LinkedNsm(NsmName(static_cast<NsmId>(n))); nsm != nullptr) {
        stats.linked_nsms += nsm->cache()->stats();
      }
    }
  }
  return stats;
}

// One caller's correct-resolution latencies over a window, by slice: each slice's exact count and a uniform sample of at most kSampleCap
// of its latencies (reservoir sampling). The memory is touched when the
// window starts, so recording neither allocates nor grows the process.
class SliceSamples {
 public:
  static constexpr uint64_t kSampleCap = 25000;

  void Reset(int slices, uint64_t seed) {
    counts_.assign(static_cast<size_t>(slices), 0);
    samples_.assign(static_cast<size_t>(slices) * kSampleCap, 0.0f);
    rng_ = hcs::Rng(seed);
  }
  void Add(int slice, float latency_us) {
    uint64_t seen = counts_[static_cast<size_t>(slice)]++;
    uint64_t at = seen < kSampleCap ? seen : rng_.Uniform(seen + 1);
    if (at < kSampleCap) {
      samples_[static_cast<size_t>(slice) * kSampleCap + at] = latency_us;
    }
  }
  int slices() const { return static_cast<int>(counts_.size()); }
  uint64_t count(int slice) const { return counts_[static_cast<size_t>(slice)]; }
  void AppendSample(int slice, std::vector<float>* out) const {
    auto begin = samples_.begin() + static_cast<std::ptrdiff_t>(static_cast<size_t>(slice) * kSampleCap);
    out->insert(out->end(), begin,
                begin + static_cast<std::ptrdiff_t>(std::min(count(slice), kSampleCap)));
  }

 private:
  std::vector<uint64_t> counts_;
  std::vector<float> samples_;
  hcs::Rng rng_{0};
};

struct Caller {
  int index = 0;
  std::unique_ptr<Client> client;
  std::unique_ptr<OpStream> stream;
  int session_queries = 0;
  int replica = 0;  // churn: the replica its NSM is registered at
  // Client counters: retired sessions, and the live session's at window start.
  ClientStats retired;
  ClientStats baseline;
  // Results of the current window.
  SliceSamples latency;
  std::vector<float> update_us;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t wrong = 0;
  std::string first_problem;

  void Note(uint64_t* counter, const hcs::Status& status) {
    ++*counter;
    if (first_problem.empty()) {
      first_problem = status.ToString();
    }
  }
  void ResetWindow(bool linked_nsms, int slices) {
    retired = ClientStats{};
    baseline = StatsOf(*client, linked_nsms);
    latency.Reset(slices, static_cast<uint64_t>(index) + 1);
    update_us.clear();
    attempted = errors = wrong = 0;
    first_problem.clear();
  }
  ClientStats WindowStats(bool linked_nsms) const {
    ClientStats total = retired;
    if (client != nullptr) {  // null only after a failed session replacement
      total.Add(StatsOf(*client, linked_nsms).Since(baseline));
    }
    return total;
  }
};

// One set-up federation with its callers. Callers (and their clients) are
// declared after the federation, so they are destroyed first.
struct Rig {
  const WorkloadSpec* spec = nullptr;
  const Population* population = nullptr;
  const std::vector<std::vector<Target>>* hot = nullptr;  // per pair, by rank
  SpanLog* spans = nullptr;
  CpuRotation* cpus = nullptr;
  std::unique_ptr<Federation> federation;
  std::vector<Caller> callers;
};

struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t slice_ns = 1;
  int slices = 1;
  uint64_t max_ops = 0;
  bool traced = false;
};

void DriveCaller(Rig& rig, Caller& caller, const Window& window) {
  const WorkloadSpec& spec = *rig.spec;
  uint64_t ops = 0;
  while (ops < window.max_ops && NowNs() < window.end_ns) {
    ++ops;
    Op op = caller.stream->Next();
    if (spec.queries_per_session > 0 && !op.write &&
        caller.session_queries == spec.queries_per_session) {
      caller.retired.Add(StatsOf(*caller.client, spec.linked_nsms).Since(caller.baseline));
      caller.baseline = ClientStats{};
      caller.client.reset();
      hcs::Result<std::unique_ptr<Client>> fresh = rig.federation->NewClient(spec.linked_nsms);
      if (!fresh.ok()) {
        caller.Note(&caller.errors, fresh.status());
        return;
      }
      caller.client = std::move(fresh).value();
      caller.session_queries = 0;
    }

    // The op's context is also ambient on this thread, as inside a server
    // handler, so lookups the HNS makes without an explicit context (the
    // linked host-address NSM inside FindNSM) carry its deadline and trace.
    hcs::RequestContext context = hcs::RequestContext::WithTimeout(kBudgetMs);
    hcs::ScopedRequestContext ambient(context);
    ++caller.attempted;

    if (op.write) {
      caller.replica ^= 1;
      hcs::NsmInfo info = rig.federation->Registration(kChurnNsm[caller.index], caller.replica);
      Span span{context.trace_id, NowNs(), 0, -1, Layer::kRegister, false};
      hcs::Status status = caller.client->session->local_hns()->RegisterNsm(info);
      span.end_ns = NowNs();
      if (window.traced) {
        rig.spans->Record(span);
      }
      if (!status.ok()) {
        caller.Note(&caller.errors, status);
        continue;
      }
      caller.update_us.push_back(static_cast<float>(span.duration_ns() / 1e3));
      continue;
    }

    ++caller.session_queries;
    Target drawn;
    const Target* target = &drawn;
    if (rig.hot->empty()) {
      drawn = rig.population->TargetAt(op.pair, op.index);
    } else {
      target = &(*rig.hot)[static_cast<int>(op.pair)][op.index];
    }
    const hcs::QueryClass& query_class = QueryClassOf(op.pair);
    hcs::HnsSession& session = *caller.client->session;

    // Traced runs time FindNSM on its own just before every other Query.
    bool after_findnsm = window.traced && ops % 2 == 0;
    if (after_findnsm) {
      Span span{context.trace_id, NowNs(), 0, -1, Layer::kFindNsm, false};
      hcs::Result<hcs::NsmHandle> handle = session.FindNsm(target->name, query_class, context);
      span.end_ns = NowNs();
      rig.spans->Record(span);
      if (!handle.ok()) {
        caller.Note(&caller.errors, handle.status());
        continue;
      }
    }
    Span span{context.trace_id, NowNs(), 0, -1, Layer::kQuery, after_findnsm};
    hcs::Result<hcs::WireValue> result =
        session.Query(target->name, query_class, ArgsOf(op.pair), context);
    span.end_ns = NowNs();
    if (window.traced) {
      rig.spans->Record(span);
    }
    if (!result.ok()) {
      caller.Note(&caller.errors, result.status());
      continue;
    }
    if (hcs::Status check = CheckAnswer(*target, *result); !check.ok()) {
      caller.Note(&caller.wrong, check);
      continue;
    }
    int slice = static_cast<int>(
        std::min<int64_t>((span.start_ns - window.start_ns) / window.slice_ns, window.slices - 1));
    caller.latency.Add(slice, static_cast<float>(span.duration_ns() / 1e3));
  }
}

double CpuSeconds(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

rusage Usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

struct WindowTiming {
  double wall_s = 0;
  double slice_s = 0;
  std::vector<double> slice_cpu_s;  // process CPU time spent in each slice
};

// Runs every caller over one window. A timed window (max_ops unbounded) is
// cut into slices of kSliceSeconds, each on the next CPU, and the process
// CPU time of each is sampled.
WindowTiming RunWindow(Rig& rig, double seconds, uint64_t max_ops, bool traced) {
  bool timed = max_ops == UINT64_MAX;
  int slices = timed ? std::max(1, static_cast<int>(seconds / kSliceSeconds + 0.5)) : 1;
  if (timed) {
    rig.cpus->Next();
  }
  for (Caller& caller : rig.callers) {
    caller.ResetWindow(rig.spec->linked_nsms, slices);
  }
  Window window;
  window.start_ns = NowNs();
  window.end_ns = window.start_ns + static_cast<int64_t>(seconds * 1e9);
  window.slice_ns = (window.end_ns - window.start_ns) / slices;
  window.slices = slices;
  window.max_ops = max_ops;
  window.traced = traced;
  WindowTiming timing;
  timing.slice_s = static_cast<double>(window.slice_ns) / 1e9;
  double cpu = CpuSeconds(Usage());
  std::vector<std::thread> threads;
  for (Caller& caller : rig.callers) {
    threads.emplace_back([&rig, &caller, &window] { DriveCaller(rig, caller, window); });
  }
  for (int s = 1; s < slices; ++s) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(window.start_ns + s * window.slice_ns - NowNs()));
    rig.cpus->Next();
    double now = CpuSeconds(Usage());
    timing.slice_cpu_s.push_back(now - cpu);
    cpu = now;
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  timing.slice_cpu_s.push_back(CpuSeconds(Usage()) - cpu);
  timing.wall_s = static_cast<double>(NowNs() - window.start_ns) / 1e9;
  return timing;
}

hcs::Result<std::unique_ptr<Rig>> SetUp(const WorkloadSpec& spec, const Population& population,
                                       const std::vector<std::vector<Target>>& hot,
                                       SpanLog* spans, CpuRotation* cpus, uint64_t seed,
                                       int warmup_ops) {
  auto rig = std::make_unique<Rig>();
  rig->cpus = cpus;
  rig->spec = &spec;
  rig->population = &population;
  rig->hot = &hot;
  rig->spans = spans;
  FederationOptions options;
  options.population = &population;
  options.spans = spans;
  if (spec.write_every > 0) {
    options.replicated.assign(std::begin(kChurnNsm), std::end(kChurnNsm));
  }
  HCS_ASSIGN_OR_RETURN(rig->federation, Federation::Start(options));

  std::vector<Target> all_hot;
  for (const std::vector<Target>& pair_targets : hot) {
    all_hot.insert(all_hot.end(), pair_targets.begin(), pair_targets.end());
  }
  if (!spec.linked_nsms) {
    HCS_RETURN_IF_ERROR(rig->federation->WarmServedNsms(all_hot));
  }

  rig->callers.resize(static_cast<size_t>(spec.callers));
  for (int c = 0; c < spec.callers; ++c) {
    Caller& caller = rig->callers[static_cast<size_t>(c)];
    caller.index = c;
    HCS_ASSIGN_OR_RETURN(caller.client, rig->federation->NewClient(spec.linked_nsms));
    // Row 1 warms its linked NSMs on every hot name; row 4's client caches
    // hold one composite entry per pair, so one name per pair warms them.
    std::vector<Target> warm = all_hot;
    if (!spec.linked_nsms) {
      warm.clear();
      for (const std::vector<Target>& pair_targets : hot) {
        warm.push_back(pair_targets.front());
      }
    }
    for (const Target& target : warm) {
      HCS_ASSIGN_OR_RETURN(hcs::WireValue answer,
                           caller.client->session->Query(target.name, QueryClassOf(target.pair),
                                                         ArgsOf(target.pair)));
      HCS_RETURN_IF_ERROR(CheckAnswer(target, answer));
    }
    // The warm-up draws from its own stream, not the measured one.
    caller.stream = std::make_unique<OpStream>(seed, c + spec.callers, spec.mode,
                                               population.size(), spec.hot, spec.write_every);
  }
  RunWindow(*rig, 1e6, static_cast<uint64_t>(warmup_ops), false);
  for (Caller& caller : rig->callers) {
    if (caller.errors + caller.wrong > 0) {
      return hcs::InternalError("warm-up op failed: " + caller.first_problem);
    }
    caller.stream = std::make_unique<OpStream>(seed, caller.index, spec.mode, population.size(),
                                               spec.hot, spec.write_every);
  }
  return rig;
}

// Results of one window, merged over callers.
struct WindowResult {
  WindowTiming timing;
  std::vector<uint64_t> slice_count;               // correct resolutions per slice
  std::vector<std::vector<float>> slice_latency_us;  // the callers' samples per slice
  uint64_t resolutions = 0;
  std::vector<float> update_us;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t wrong = 0;
  std::string first_problem;
  ClientStats client;
};

WindowResult Collect(const Rig& rig, WindowTiming timing) {
  WindowResult result;
  result.timing = std::move(timing);
  int slices = rig.callers.front().latency.slices();
  result.slice_count.assign(static_cast<size_t>(slices), 0);
  result.slice_latency_us.resize(static_cast<size_t>(slices));
  for (const Caller& caller : rig.callers) {
    for (int s = 0; s < slices; ++s) {
      result.slice_count[static_cast<size_t>(s)] += caller.latency.count(s);
      result.resolutions += caller.latency.count(s);
      caller.latency.AppendSample(s, &result.slice_latency_us[static_cast<size_t>(s)]);
    }
    result.update_us.insert(result.update_us.end(), caller.update_us.begin(),
                            caller.update_us.end());
    result.attempted += caller.attempted;
    result.errors += caller.errors;
    result.wrong += caller.wrong;
    if (result.first_problem.empty()) {
      result.first_problem = caller.first_problem;
    }
    result.client.Add(caller.WindowStats(rig.spec->linked_nsms));
  }
  return result;
}

// Process-wide and server-side counters, snapshotted around a traced window.
struct Counters {
  hcs::AsyncEngineStats engine;
  hcs::UdpIoSnapshot udp;
  rusage usage{};
  uint64_t dispatched = 0;
  uint64_t dropped = 0;
  hcs::CacheStats served_nsms;
};

Counters Snapshot(Rig& rig) {
  Counters counters;
  counters.engine = hcs::GlobalAsyncClientEngine()->stats();
  counters.udp = hcs::SnapshotUdpIoCounters();
  counters.usage = Usage();
  if (hcs::Reactor* reactor = rig.federation->host().reactor(); reactor != nullptr) {
    for (const hcs::ReactorEndpointStats& endpoint : reactor->endpoint_stats()) {
      counters.dispatched += endpoint.dispatched;
    }
  }
  for (const auto& [port, dropped] : rig.federation->host().dropped_by_endpoint()) {
    counters.dropped += dropped;
  }
  for (hcs::Nsm* nsm : rig.federation->ServedNsms()) {
    counters.served_nsms += nsm->cache()->stats();
  }
  return counters;
}

bool IsServerLayer(Layer layer) {
  return layer == Layer::kNsm || layer == Layer::kMetaBind || layer == Layer::kPublicBind ||
         layer == Layer::kCh || layer == Layer::kPortmap;
}


void AddAccounting(RunResult* run, const WindowResult& window) {
  run->attempted += window.attempted;
  run->failed += window.errors + window.wrong;
  if (window.wrong > 0) {
    run->correct = false;
  }
  if (!window.first_problem.empty()) {
    run->notes.push_back("first failure: " + window.first_problem);
  }
}

void EndToEnd(const WorkloadSpec& spec, const RunConfig& config, const Population& population,
              const std::vector<std::vector<Target>>& hot, CpuRotation* cpus, RunResult* run) {
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  int setups = config.tiny ? 1 : kSetups;
  for (int s = 0; s < setups; ++s) {
    rig.reset();
    cpus->Next();
    int64_t start = NowNs();
    hcs::Result<std::unique_ptr<Rig>> built =
        SetUp(spec, population, hot, nullptr, cpus, config.seed, config.tiny ? 20 : kWarmupOps);
    if (!built.ok()) {
      run->correct = false;
      run->notes.push_back("set-up failed: " + built.status().ToString());
      return;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    rig = std::move(built).value();
  }

  rusage before = Usage();
  WindowResult window = Collect(*rig, RunWindow(*rig, config.seconds, UINT64_MAX, false));
  rusage after = Usage();
  rig.reset();
  run->notes.push_back(hcs::StrFormat(
      "timed window: %ld minor page faults, %ld voluntary and %ld involuntary context switches, "
      "max RSS %.1f -> %.1f MB",
      after.ru_minflt - before.ru_minflt, after.ru_nvcsw - before.ru_nvcsw,
      after.ru_nivcsw - before.ru_nivcsw, static_cast<double>(before.ru_maxrss) / 1024.0,
      static_cast<double>(after.ru_maxrss) / 1024.0));
  AddAccounting(run, window);

  // Each timing metric is the median over the window's slices of that
  // slice's figure, so a stalled slice or a slow CPU does not move the
  // result.
  const WindowTiming& timing = window.timing;
  size_t slices = timing.slice_cpu_s.size();
  std::vector<double> p50, p99, rate, cpu;
  size_t min_samples = SIZE_MAX;
  for (size_t s = 0; s < slices; ++s) {
    std::vector<float>& latency = window.slice_latency_us[s];
    double resolutions = static_cast<double>(window.slice_count[s]);
    min_samples = std::min(min_samples, latency.size());
    p50.push_back(Percentile(&latency, 0.50));
    p99.push_back(Percentile(&latency, 0.99));
    rate.push_back(resolutions / timing.slice_s);
    cpu.push_back(Ratio(timing.slice_cpu_s[s] * 1e6, resolutions));
  }
  std::string slices_text;
  for (size_t s = 0; s < slices; ++s) {
    slices_text += hcs::StrFormat(" %.1f/%.0f", p50[s], rate[s]);
  }
  run->notes.push_back("per-slice p50_us/resolutions_per_s:" + slices_text);
  std::string setups_text;
  for (double s : setup_s) {
    setups_text += hcs::StrFormat("%s%.3f", setups_text.empty() ? "" : " ", s);
  }
  rusage end = Usage();
  run->metrics = {
      {"resolve_p50_us", Percentile(&p50, 0.50), "us"},
      {"resolve_p99_us", Percentile(&p99, 0.50), "us"},
      {"resolve_per_s", Percentile(&rate, 0.50), "1/s"},
      {"cpu_us_per_resolve", Percentile(&cpu, 0.50), "us"},
      {"setup_s", Percentile(&setup_s, 0.50), "s"},
      {"peak_rss_mb", static_cast<double>(end.ru_maxrss) / 1024.0, "MB"},
  };
  run->notes.push_back(hcs::StrFormat(
      "%zu correct resolutions in %.3f s; timings are medians over %zu slices of %.1f s of at "
      "least %zu samples each (p99: at least %zu beyond it); fail_frac %.6f (%llu errors, %llu "
      "wrong of %llu ops); set-ups %s s",
      static_cast<size_t>(window.resolutions), timing.wall_s, slices, timing.slice_s, min_samples,
      min_samples / 100,
      Ratio(static_cast<double>(window.errors + window.wrong), static_cast<double>(window.attempted)),
      static_cast<unsigned long long>(window.errors), static_cast<unsigned long long>(window.wrong),
      static_cast<unsigned long long>(window.attempted), setups_text.c_str()));
}

void PerLayer(const WorkloadSpec& spec, const RunConfig& config, const Population& population,
              const std::vector<std::vector<Target>>& hot, CpuRotation* cpus, RunResult* run) {
  double half = config.seconds / 2;
  int warmup = config.tiny ? 20 : kWarmupOps;

  // Untraced half: the baseline the tracing overhead is measured against,
  // and the update latency of the churn workload.
  hcs::Result<std::unique_ptr<Rig>> plain = SetUp(spec, population, hot, nullptr, cpus, config.seed, warmup);
  if (!plain.ok()) {
    run->correct = false;
    run->notes.push_back("set-up failed: " + plain.status().ToString());
    return;
  }
  WindowResult untraced = Collect(**plain, RunWindow(**plain, half, UINT64_MAX, false));
  plain->reset();
  AddAccounting(run, untraced);
  // The same estimator as resolve_p50_us: the median of the slices' p50s.
  std::vector<double> slice_p50;
  for (std::vector<float>& latency : untraced.slice_latency_us) {
    slice_p50.push_back(Percentile(&latency, 0.50));
  }
  double untraced_p50 = Percentile(&slice_p50, 0.50);
  double update_p50 = Percentile(&untraced.update_us, 0.50);
  double update_p99 = Percentile(&untraced.update_us, 0.99);

  // Traced half.
  SpanLog log;
  hcs::Result<std::unique_ptr<Rig>> built = SetUp(spec, population, hot, &log, cpus, config.seed, warmup);
  if (!built.ok()) {
    run->correct = false;
    run->notes.push_back("set-up failed: " + built.status().ToString());
    return;
  }
  Rig& rig = **built;
  (void)log.Take();  // set-up traffic is not part of the window
  Counters before = Snapshot(rig);
  WindowTiming timing = RunWindow(rig, half, config.tiny ? 200 : kMaxTracedOps, true);
  Counters after = Snapshot(rig);
  double wall_s = timing.wall_s;
  WindowResult window = Collect(rig, std::move(timing));
  std::vector<Span> spans = log.Take();
  built->reset();
  AddAccounting(run, window);
  double resolutions = static_cast<double>(window.resolutions);

  LinkParents(&spans);
  // Each span's children, as a list threaded through next_sibling.
  const size_t n = spans.size();
  std::vector<int32_t> first_child(n, -1);
  std::vector<int32_t> next_sibling(n, -1);
  std::vector<int32_t> child_count(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (int32_t parent = spans[i].parent; parent >= 0) {
      next_sibling[i] = first_child[parent];
      first_child[parent] = static_cast<int32_t>(i);
      ++child_count[parent];
    }
  }
  auto us = [&spans](size_t i) { return static_cast<double>(spans[i].duration_ns()) / 1e3; };
  auto self_us = [&](size_t i) {
    std::vector<std::pair<int64_t, int64_t>> children;
    for (int32_t c = first_child[i]; c >= 0; c = next_sibling[c]) {
      children.emplace_back(spans[c].start_ns, spans[c].end_ns);
    }
    return static_cast<double>(SelfTimeNs(spans[i], std::move(children))) / 1e3;
  };

  std::vector<double> duration_us[kLayers];
  std::vector<double> query_self_us;
  std::vector<double> nsm_self_us;
  std::vector<double> hop_us;
  std::vector<double> nsm_hop_us;
  uint64_t server_hops = 0;
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans[i];
    int32_t only_child = child_count[i] == 1 ? first_child[i] : -1;
    server_hops += IsServerLayer(span.layer) ? 1 : 0;
    switch (span.layer) {
      case Layer::kQuery:
        if (!span.after_findnsm) {
          duration_us[static_cast<int>(Layer::kQuery)].push_back(us(i));
          query_self_us.push_back(self_us(i));
        } else if (only_child >= 0 && IsServerLayer(spans[only_child].layer)) {
          // FindNSM already ran: the Query is one composite probe plus one
          // call, so caller time minus the callee's handler is the hop.
          hop_us.push_back(us(i) - us(only_child));
        }
        break;
      case Layer::kNsm:
        duration_us[static_cast<int>(span.layer)].push_back(us(i));
        nsm_self_us.push_back(self_us(i));
        break;
      case Layer::kNsmCall:
        if (only_child >= 0) {
          nsm_hop_us.push_back(us(i) - us(only_child));
        }
        break;
      default:
        duration_us[static_cast<int>(span.layer)].push_back(us(i));
        break;
    }
  }
  auto p50 = [](std::vector<double>* values) { return Percentile(values, 0.50); };
  auto count = [&](Layer layer) {
    return static_cast<double>(duration_us[static_cast<int>(layer)].size());
  };
  auto per_resolve = [&](double value) { return Ratio(value, resolutions); };

  const ClientStats& client = window.client;
  hcs::CacheStats nsm_cache = spec.linked_nsms ? client.linked_nsms
                                               : Minus(after.served_nsms, before.served_nsms);
  double udp_syscalls = static_cast<double>(after.udp.recv_syscalls + after.udp.send_syscalls -
                                            before.udp.recv_syscalls - before.udp.send_syscalls);
  double udp_datagrams = static_cast<double>(after.udp.recv_datagrams + after.udp.send_datagrams -
                                             before.udp.recv_datagrams - before.udp.send_datagrams);
  // Each served request is 4 datagram events: client send, server receive,
  // server send, client receive.
  double counted_frac = Ratio(udp_datagrams, 4.0 * static_cast<double>(server_hops));
  double query_p50 = p50(&duration_us[static_cast<int>(Layer::kQuery)]);
  double meta_per_resolve = per_resolve(static_cast<double>(client.meta_lookups));
  double rpc_calls = static_cast<double>(after.engine.calls - before.engine.calls);

  run->metrics = {
      {"hns.query_us.p50", query_p50, "us"},
      {"hns.findnsm_us.p50", p50(&duration_us[static_cast<int>(Layer::kFindNsm)]), "us"},
      {"hns.client_self_us.p50", p50(&query_self_us), "us"},
      {"hns.register_us.p50", p50(&duration_us[static_cast<int>(Layer::kRegister)]), "us"},
      {"hns.record_cache.hit_ratio", client.record.HitFraction(), "ratio"},
      {"hns.record_cache.coalesced_per_resolve",
       per_resolve(static_cast<double>(client.record.coalesced_misses)), "count"},
      {"hns.record_cache.evictions", static_cast<double>(client.record.evictions), "count"},
      {"hns.composite.hit_ratio", client.composite.HitFraction(), "ratio"},
      {"hns.meta.lookups_per_resolve", meta_per_resolve, "count"},
      {"nsm.calls_per_resolve", per_resolve(count(Layer::kNsm)), "count"},
      {"nsm.handler_us.p50", p50(&duration_us[static_cast<int>(Layer::kNsm)]), "us"},
      {"nsm.self_us.p50", p50(&nsm_self_us), "us"},
      {"nsm.cache.hit_ratio", nsm_cache.HitFraction(), "ratio"},
      {"bindns.meta.calls_per_resolve", per_resolve(count(Layer::kMetaBind)), "count"},
      {"bindns.meta.handler_us.p50", p50(&duration_us[static_cast<int>(Layer::kMetaBind)]), "us"},
      {"bindns.public.calls_per_resolve", per_resolve(count(Layer::kPublicBind)), "count"},
      {"bindns.public.handler_us.p50", p50(&duration_us[static_cast<int>(Layer::kPublicBind)]),
       "us"},
      {"ch.calls_per_resolve", per_resolve(count(Layer::kCh)), "count"},
      {"ch.handler_us.p50", p50(&duration_us[static_cast<int>(Layer::kCh)]), "us"},
      {"rpc.client.calls_per_resolve", per_resolve(rpc_calls), "count"},
      {"rpc.client.retries", static_cast<double>(after.engine.retries - before.engine.retries),
       "count"},
      {"rpc.client.udp_unmatched",
       static_cast<double>(after.engine.udp_unmatched - before.engine.udp_unmatched), "count"},
      {"rpc.server.dispatched", static_cast<double>(after.dispatched - before.dispatched), "count"},
      {"rpc.server.dropped", static_cast<double>(after.dropped - before.dropped), "count"},
      {"rpc.hop_us.p50", p50(&hop_us), "us"},
      {"rpc.nsm_hop_us.p50", p50(&nsm_hop_us), "us"},
      {"rpc.udp.syscalls_per_resolve", per_resolve(udp_syscalls), "count"},
      {"rpc.udp.datagrams_per_resolve", per_resolve(udp_datagrams), "count"},
      {"rpc.udp.counted_datagram_frac", counted_frac, "ratio"},
      {"proc.vcsw_per_resolve",
       per_resolve(static_cast<double>(after.usage.ru_nvcsw - before.usage.ru_nvcsw)), "count"},
      {"proc.ivcsw_per_resolve",
       per_resolve(static_cast<double>(after.usage.ru_nivcsw - before.usage.ru_nivcsw)), "count"},
      {"update_p50_us", update_p50, "us"},
      {"update_p99_us", update_p99, "us"},
      {"trace.overhead_frac", Ratio(query_p50 - untraced_p50, untraced_p50), "ratio"},
  };

  run->notes.push_back(hcs::StrFormat(
      "traced window: %.0f correct resolutions in %.3f s, %zu spans, %llu server hops; "
      "untraced baseline p50 %.3f us over %zu samples",
      resolutions, wall_s, spans.size(), static_cast<unsigned long long>(server_hops),
      untraced_p50, static_cast<size_t>(untraced.resolutions)));
  run->notes.push_back(hcs::StrFormat(
      "udp counters: %.0f datagrams counted of %llu expected (4 per server hop)%s",
      udp_datagrams, static_cast<unsigned long long>(4 * server_hops),
      server_hops == 0     ? ": no socket traffic"
      : counted_frac < 1.0 ? ": the counters miss part of the traffic, so the per-resolve "
                             "syscall and datagram figures are lower bounds"
                           : ": the counters see all of it"));

  // Bypass checks: the workload stresses what it claims to.
  bool held = true;
  std::string claim;
  double composite = client.composite.HitFraction();
  switch (spec.workload) {
    case Workload::kWarmLinked:
      claim = "no RPCs and no meta lookups in steady state";
      held = rpc_calls == 0 && client.meta_lookups == 0;
      break;
    case Workload::kWarmRemote:
      claim = "meta store idle (lookups/resolve <= 0.001), composite hit ratio >= 0.999";
      held = meta_per_resolve <= 0.001 && composite >= 0.999;
      break;
    case Workload::kColdClients:
      claim = "meta lookups/resolve >= 0.5 and NSM cache miss ratio >= 0.5";
      held = meta_per_resolve >= 0.5 && 1.0 - nsm_cache.HitFraction() >= 0.5;
      break;
    case Workload::kChurnRw:
      claim = "composite hit ratio < 0.999, below warm_remote's floor";
      held = composite < 0.999;
      break;
  }
  run->notes.push_back(hcs::StrFormat("bypass check (%s): %s", claim.c_str(),
                                      held ? "held" : "FAILED"));
  if (!held && !config.tiny) {
    run->correct = false;
  }

  if (!config.span_dir.empty()) {
    std::string path = config.span_dir + "/spans-" + spec.name + ".bin";
    if (WriteSpans(path, spans)) {
      run->notes.push_back(hcs::StrFormat("spans written to %s", path.c_str()));
    } else {
      run->notes.push_back("could not write spans to " + path);
    }
  }
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return spec.workload;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  return kWorkloads[static_cast<int>(workload)].name;
}

RunResult RunBenchmark(const RunConfig& config) {
  const WorkloadSpec& spec = kWorkloads[static_cast<int>(config.workload)];
  uint32_t population_size = config.tiny ? 512 : spec.population;
  Population population(config.seed, population_size);
  std::vector<std::vector<Target>> hot;
  if (spec.mode == DrawMode::kHotZipf) {
    HotSet hot_set(population, config.tiny ? 16 : spec.hot);
    hot.resize(kPairs);
    for (int p = 0; p < kPairs; ++p) {
      for (uint32_t rank = 0; rank < hot_set.size(); ++rank) {
        hot[static_cast<size_t>(p)].push_back(
            population.TargetAt(static_cast<Pair>(p), hot_set.IndexAt(static_cast<Pair>(p), rank)));
      }
    }
  }
  WorkloadSpec sized = spec;
  sized.hot = hot.empty() ? 0 : static_cast<uint32_t>(hot[0].size());

  RunResult run;
  CpuRotation cpus;  // one CPU at a time: see cpus.h
  if (config.trace) {
    PerLayer(sized, config, population, hot, &cpus, &run);
  } else {
    EndToEnd(sized, config, population, hot, &cpus, &run);
  }
  if (cpus.failures() > 0) {
    run.notes.push_back(hcs::StrFormat("could not move the process to the next CPU %d time(s)",
                                       cpus.failures()));
  }
  run.notes.insert(run.notes.begin(),
                   hcs::StrFormat("workload %s: %s, %d caller(s), population %u per kind, "
                                  "hot set %u per pair, seed %llu",
                                  spec.name,
                                  spec.linked_nsms ? "row 1 [Client, HNS, NSMs]"
                                                   : "row 4 [NSMs] [Client, HNS]",
                                  spec.callers, population_size, sized.hot,
                                  static_cast<unsigned long long>(config.seed)));
  return run;
}

}  // namespace hnsbench
