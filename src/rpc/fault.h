// FaultInjector: deterministic, seeded fault injection for the transport
// stack. The paper's argument is that a federated name service stays usable
// while the services underneath it fail and evolve; the deadlines, retries,
// and total failure paths of the earlier PRs are only trustworthy if
// something actually drives them under packet loss, duplication,
// reordering, delay, corruption, and partitions. This component generates
// those conditions *reproducibly*:
//
//   - every probabilistic decision is drawn from a SplitMix64 stream that is
//     a pure function of (seed, endpoint identity, per-endpoint sequence
//     number), so a failing chaos run prints its seed and replays the same
//     per-endpoint decision sequence regardless of thread interleaving. The
//     identity of a serve endpoint is its registration ordinal on its host,
//     and that of a client's destination its host and the order in which
//     the injector first saw that port, never the port itself, so servers
//     on ephemeral ports replay too;
//   - faults are described per endpoint ("host:port", "host", or "*") by a
//     FaultPlan: a phased schedule of FaultSpecs, e.g. "healthy for 500 ms,
//     blackhole for 2 s, then healed forever";
//   - the injector interposes at two points: FaultInjectingTransport wraps
//     any client Transport (simulated or real), and the reactor's UDP and
//     stream endpoints filter inbound messages through the process-global
//     injector installed from the HCS_FAULTS environment spec or by a test.
//
// Nothing here runs unless an injector is configured: with HCS_FAULTS unset
// and no wrapper installed, every hot path costs one relaxed atomic load,
// and the sim-world experiment outputs stay byte-identical to the seed.

#ifndef HCS_SRC_RPC_FAULT_H_
#define HCS_SRC_RPC_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/sync.h"
#include "src/rpc/transport.h"

namespace hcs {

class UdpServerHost;

// Fault probabilities one phase applies to matching traffic. Probabilities
// are evaluated independently, in a fixed draw order, so the random-stream
// consumption per decision is constant (the replay property depends on it).
struct FaultSpec {
  double drop = 0.0;       // message lost; surfaces as kTimeout at the caller
  double duplicate = 0.0;  // message delivered (and handled) twice
  double reorder = 0.0;    // message held back so later traffic overtakes it
  double corrupt = 0.0;    // deterministic bit flips in the frame
  double delay = 0.0;      // extra latency drawn from [delay_min, delay_max]
  int64_t delay_min_ms = 1;
  int64_t delay_max_ms = 5;
  // Everything to the endpoint is lost: the scripted form of a partition or
  // a crashed host. Surfaces as kUnavailable (a drop surfaces as kTimeout).
  bool blackhole = false;

  bool healthy() const {
    return drop <= 0 && duplicate <= 0 && reorder <= 0 && corrupt <= 0 && delay <= 0 &&
           !blackhole;
  }
};

// One step of a plan's schedule. duration_ms <= 0 marks the terminal phase,
// which holds forever once reached (the last phase is terminal regardless).
struct FaultPhase {
  int64_t duration_ms = 0;
  FaultSpec spec;
};

// The schedule applied to one endpoint pattern. Matching precedence at
// decision time: exact "host:port", then "host", then "*". The phase clock
// anchors when the plan is installed (or at ResetPhaseClocks).
struct FaultPlan {
  std::string endpoint;
  std::vector<FaultPhase> phases;
};

struct FaultConfig {
  uint64_t seed = 1;
  std::vector<FaultPlan> plans;
};

// One decision, drawn once per message per direction. `sequence` is the
// per-endpoint decision counter the draw was keyed by.
struct FaultDecision {
  bool drop = false;
  bool blackhole = false;
  bool duplicate = false;
  bool reorder = false;
  bool corrupt = false;
  int64_t delay_ms = 0;  // combined injected latency (delay and/or reorder)
  uint64_t corrupt_salt = 0;
  uint64_t sequence = 0;

  bool pass() const {
    return !drop && !blackhole && !duplicate && !reorder && !corrupt && delay_ms == 0;
  }
};

// Injected-fault counters plus the serving runtime's per-endpoint drop
// counters, gathered in one place so chaos tests assert on counts instead
// of sleeping and hoping (see CollectFaultStats).
struct FaultStats {
  uint64_t decisions = 0;
  uint64_t drops = 0;
  uint64_t duplicates = 0;
  uint64_t reorders = 0;
  uint64_t corruptions = 0;
  uint64_t delays = 0;
  uint64_t delay_ms_total = 0;
  uint64_t blackholed = 0;
  // Inbound messages the serve-side hook discarded (injected drops).
  uint64_t server_drops = 0;
  // Per-endpoint drops recorded by the serving runtime itself (garbled
  // messages, undeliverable replies, injected inbound drops), keyed by
  // local port. Populated by CollectFaultStats.
  std::map<uint16_t, uint64_t> endpoint_drops;

  uint64_t EndpointDropTotal() const {
    uint64_t total = 0;
    for (const auto& [port, count] : endpoint_drops) {
      total += count;
    }
    return total;
  }
};

// Deterministic chaos source. Thread-safe; decisions for one endpoint form
// a reproducible stream no matter which threads draw them.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  uint64_t seed() const { return config_.seed; }

  // --- Plan mutation (scenario scripting) ---------------------------------
  // Installs (or replaces) the plan for `plan.endpoint`; its phase clock
  // starts now.
  void SetPlan(FaultPlan plan);
  void RemovePlan(const std::string& endpoint);
  // Convenience: a single-phase always-blackhole plan for `endpoint`.
  void BlackholeEndpoint(const std::string& endpoint);
  // Removes the endpoint's plan entirely (traffic passes untouched).
  void HealEndpoint(const std::string& endpoint);

  // --- Phase time ---------------------------------------------------------
  // Phase schedules advance on this clock; the default is the process
  // steady clock. Sim-world tests install the virtual clock so schedules
  // are deterministic ("healthy 500ms" means 500 simulated ms).
  void SetTimeFn(std::function<int64_t()> now_ms);
  // Re-anchors every plan's phase clock at now.
  void ResetPhaseClocks();

  // Draws the decision for one message toward (host, port). Consumes a
  // fixed number of PRNG values regardless of the active spec. Plans match
  // on "host:port" (then "host", then "*") and the sequence counts per
  // "host:port", but the stream is seeded and traced as "host>N", where N
  // is the order in which this injector first saw that port of the host
  // (0-based): a server's ephemeral port differs run to run, the order of
  // first use does not, so a seed replays the same outbound decisions on
  // every run.
  FaultDecision Decide(const std::string& host, uint16_t port);
  // The same for a message arriving at serve port `local_port`, the
  // `endpoint_ordinal`-th endpoint its host registered (0-based). Plans
  // match on ("local", local_port) exactly as above, and the sequence is
  // the port's, but the stream is seeded and traced as
  // "local#<endpoint_ordinal>": an ephemeral port differs run to run, the
  // registration order does not, so a seed replays the same inbound
  // decisions on every run. Endpoints of two hosts that share an ordinal
  // draw equal streams, each at its own sequence.
  FaultDecision Decide(uint16_t local_port, uint32_t endpoint_ordinal);

  // Flips 1..3 bits of `frame` at positions derived from `salt` (a pure
  // function: the same salt corrupts the same frame the same way). Empty
  // frames are left alone. The span overload corrupts a frame in place in
  // its arrival buffer (the batched serve path).
  static void CorruptFrame(Bytes* frame, uint64_t salt);
  static void CorruptFrame(uint8_t* data, size_t size, uint64_t salt);

  // Counters accumulated so far (endpoint_drops is left empty here — the
  // serving runtime owns those; see CollectFaultStats). Lock-free: the
  // counters are relaxed atomics, so stats() never contends with Decide on
  // the serve hot path.
  FaultStats stats() const;
  void NoteServerDrop();

  // --- Decision trace (replay assertions) ---------------------------------
  // When enabled, every Decide appends "endpoint#sequence:flags" to a
  // bounded trace; two injectors with equal configs and seeds produce equal
  // per-endpoint traces.
  void set_trace_enabled(bool enabled);
  std::vector<std::string> TakeTrace();

 private:
  struct PlanState {
    FaultPlan plan;
    int64_t epoch_ms = 0;  // phase clock anchor
  };

  int64_t Now() const;
  // Decide's body: plans match on (host_key, endpoint_key), the sequence
  // counts per endpoint_key, and `stream` seeds the draws and labels the
  // trace; an empty `stream` names an outbound destination ("host>N").
  FaultDecision DecideOn(const std::string& host_key, const std::string& endpoint_key,
                         std::string stream);
  // The spec currently in force for `endpoint_key` ("host:port"), honoring
  // plan precedence and phase schedules. Null when no plan matches.
  const FaultSpec* ActiveSpec(const std::string& host_key, const std::string& endpoint_key) const
      HCS_REQUIRES(mu_);

  // Injected-fault counters. Relaxed atomics, not HCS_GUARDED_BY(mu_):
  // these are pure tallies (no invariant couples them), so readers never
  // take the decision lock and NoteServerDrop is lock-free on the serve
  // path. mu_ still guards everything with structure: plans, per-endpoint
  // sequences, the time source, and the trace.
  struct Counters {
    std::atomic<uint64_t> decisions{0};
    std::atomic<uint64_t> drops{0};
    std::atomic<uint64_t> duplicates{0};
    std::atomic<uint64_t> reorders{0};
    std::atomic<uint64_t> corruptions{0};
    std::atomic<uint64_t> delays{0};
    std::atomic<uint64_t> delay_ms_total{0};
    std::atomic<uint64_t> blackholed{0};
    std::atomic<uint64_t> server_drops{0};
  };

  FaultConfig config_;
  mutable Mutex mu_{"fault-injector"};
  std::map<std::string, PlanState> plans_ HCS_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> sequence_ HCS_GUARDED_BY(mu_);
  // host -> "host:port" -> order of first use (Decide's stream names).
  std::map<std::string, std::map<std::string, uint32_t>> outbound_ordinals_
      HCS_GUARDED_BY(mu_);
  std::function<int64_t()> now_ms_ HCS_GUARDED_BY(mu_);
  Counters counters_;
  bool trace_enabled_ HCS_GUARDED_BY(mu_) = false;
  std::vector<std::string> trace_ HCS_GUARDED_BY(mu_);
};

// Parses the HCS_FAULTS grammar: whitespace-separated key=value tokens.
//   seed=N            decision-stream seed (default 1)
//   endpoint=E        starts a new plan for endpoint pattern E
//                     ("host:port", "host", or "*")
//   phase=DUR         starts a new phase of the current plan lasting DUR ms
//                     (0 = terminal); without any phase= token the plan is a
//                     single terminal phase
//   drop=P dup=P reorder=P corrupt=P delay=P     probabilities in [0,1]
//   delay_ms=MIN..MAX                            injected-latency range
//   blackhole=1                                  scripted partition
// Example: "seed=42 endpoint=nsm-host phase=500 phase=2000 blackhole=1 phase=0"
// (healthy half a second, partitioned two seconds, healed forever).
// Unknown or malformed tokens are an error, never ignored.
HCS_NODISCARD Result<FaultConfig> ParseFaultConfig(const std::string& spec);

// The process-global injector the serving runtimes consult for inbound
// traffic. Null (the common case) when neither HCS_FAULTS is set nor a test
// installed one. An HCS_FAULTS value that fails to parse disables injection
// and logs a warning — a typo must not silently run a healthy "chaos" test.
FaultInjector* GlobalFaultInjector();
// Installs `injector` (not owned; pass nullptr to uninstall). Tests pair
// this with uninstall in their teardown.
void InstallGlobalFaultInjector(FaultInjector* injector);

// Serve-side inbound hook. Draws the decision for a message arriving at
// ("local", local_port), the `endpoint_ordinal`-th endpoint its host
// registered (FaultInjector::Decide), and applies it to `message` in place
// (corruption, injected latency). Returns
// Ok when the message must be dispatched; a non-OK Status means the
// injector discarded it and the caller must drop the message *and account
// for it* — discarding the returned Status unexamined is a lint error
// (tools/lint_failpaths.py), because a dropped-but-dispatched message
// desynchronizes every replay. Passing a null `injector` is a no-op.
HCS_NODISCARD Status FilterInbound(FaultInjector* injector, uint16_t local_port,
                                   uint32_t endpoint_ordinal, Bytes* message);

// Span variant for the UDP serve path: one decision per frame (never
// per batch), corruption applied in place in the arrival buffer. Same
// contract as FilterInbound — a non-OK Status means drop-and-account.
HCS_NODISCARD Status FilterInboundFrame(FaultInjector* injector, uint16_t local_port,
                                        uint32_t endpoint_ordinal, uint8_t* data, size_t size);

// Gathers the injector's counters and the serving host's per-endpoint drop
// counters into one FaultStats (either argument may be null).
FaultStats CollectFaultStats(const FaultInjector* injector, const UdpServerHost* host);

// Client-side interposer: wraps any Transport and applies the injector's
// decisions to each exchange. With a World attached, injected latency is
// charged to the virtual clock (deterministic sim time); otherwise it is
// slept for real. Drops surface as kTimeout — exactly what a lost datagram
// looks like — and blackholes as kUnavailable, so the client runtime's
// retry loop reacts as it would to the genuine article.
class FaultInjectingTransport : public Transport {
 public:
  FaultInjectingTransport(Transport* inner, FaultInjector* injector, World* world = nullptr)
      : inner_(inner), injector_(injector), world_(world) {}

  HCS_NODISCARD Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& message) override;
  HCS_NODISCARD Result<Bytes> RoundTripWithBudget(const std::string& from_host,
                                    const std::string& to_host, uint16_t port,
                                    const Bytes& message, int64_t budget_ms) override;
  bool SupportsBudget() const override { return inner_->SupportsBudget(); }

  Transport* inner() const { return inner_; }
  FaultInjector* injector() const { return injector_; }

 private:
  HCS_NODISCARD Result<Bytes> Apply(const std::string& from_host, const std::string& to_host,
                      uint16_t port, const Bytes& message, int64_t budget_ms,
                      bool budgeted);

  Transport* inner_;
  FaultInjector* injector_;
  World* world_;
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_FAULT_H_
