// RpcClient: the client-side HRPC runtime. At call time the binding selects
// the control protocol (and, at the stub layer, the data representation);
// the transport is injected. This is the "mix and match" of RPC components
// described by the HRPC design: the same client object can call a Sun RPC
// server, a Courier server, and a raw message-passing program.

#ifndef HCS_SRC_RPC_CLIENT_H_
#define HCS_SRC_RPC_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/rpc/binding.h"
#include "src/rpc/context.h"
#include "src/rpc/control.h"
#include "src/rpc/transport.h"
#include "src/sim/world.h"

namespace hcs {

// Per-call telemetry Call reports back to interested callers (benches
// surface attempts and retries).
struct RpcCallInfo {
  uint32_t attempts = 0;  // transport exchanges performed (>= 1 once sent)
  uint32_t retries = 0;   // attempts beyond the first
  uint64_t trace_id = 0;  // trace id the call traveled under (0: untraced)
};

// The budgeted-call retry policy: attempt budgets and the exponential
// backoff/jitter schedule RpcClient::Call follows. Exposed as pure
// functions so tests assert the exact deterministic schedule instead of
// re-deriving (and silently diverging from) the constants, and so chaos
// scenarios can bound "retries never exceed the transport budget" from the
// same arithmetic the client uses.
struct RetryPolicy {
  static constexpr int64_t kAttemptBaseMs = 100;  // first attempt's budget
  static constexpr int64_t kBackoffBaseMs = 10;   // initial backoff
  static constexpr int64_t kBackoffCapMs = 250;   // backoff ceiling

  // Transport budget for 0-based `attempt` given the remaining overall
  // budget: doubles from kAttemptBaseMs (capped at 16x) and never exceeds
  // what is left.
  static int64_t AttemptBudgetMs(uint32_t attempt, int64_t remaining_ms);

  // The post-attempt sleep: backoff/2 plus deterministic jitter in
  // [0, backoff/2], seeded from (trace id, wire attempt counter) so a given
  // call's schedule replays, capped by the remaining budget.
  static int64_t JitteredBackoffMs(uint64_t trace_id, uint32_t wire_attempt,
                                   int64_t backoff_ms, int64_t remaining_ms);

  // The backoff value after one retry (doubles, capped).
  static int64_t NextBackoffMs(int64_t backoff_ms);

  // Upper bound on transport attempts a budget admits, assuming every
  // attempt fails instantly and every jitter draw lands on its minimum.
  // Chaos tests assert observed attempts <= MaxAttempts(budget).
  static uint32_t MaxAttempts(int64_t budget_ms);
};

class RpcClient {
 public:
  // `world` may be null when running over a real (non-simulated) transport;
  // control-protocol CPU costs are then not charged (real time is real).
  // `local_host` is the simulated host this client's process runs on.
  RpcClient(World* world, std::string local_host, Transport* transport)
      : world_(world), local_host_(std::move(local_host)), transport_(transport) {}

  // Calls `procedure` with pre-marshalled `args`; returns the raw result
  // bytes. A Status from the remote handler is reconstructed and returned
  // as this call's status.
  //
  // Threading: the exchange runs on the calling thread, on every
  // transport: one blocking send/receive per attempt (over UdpTransport's
  // thread-local socket, or a pooled TcpStreamTransport connection).
  // Only a reply carrying this call's xid ends an attempt; a stray (a
  // duplicate or a late reply to an earlier call) is dropped.
  //
  // The effective request context is `context` when non-empty, else the
  // ambient CurrentRequestContext() (installed by the serving runtime —
  // this is how a deadline crosses server hops without every API carrying
  // it). When the effective context has a deadline AND the transport can
  // bound exchanges in real time, the call runs a per-attempt retry loop:
  // exponential backoff with deterministic jitter, each attempt's transport
  // budget capped by the remaining overall budget, the attempt counter
  // re-marshalled per try. Otherwise exactly one attempt is made (the seed
  // behavior; sim runs stay deterministic).
  HCS_NODISCARD Result<Bytes> Call(const HrpcBinding& binding, uint32_t procedure, BytesView args,
                     const RequestContext& context = RequestContext{},
                     RpcCallInfo* info_out = nullptr);

  // Calls `procedure` once per element of `bodies`, all to `binding`, and
  // returns one result per body, in order, with Call's results, retry
  // rules and context semantics. On a transport that runs waves
  // (UdpTransport) the calls share the caller's thread and socket: every
  // request goes out before any reply is read, replies are matched to
  // their calls by xid, and the unanswered ones are re-sent under the same
  // xid each round — N calls cost about one round trip, not N. Elsewhere
  // (sim, loopback, fault wrappers) the calls run one after another
  // through Call, with its virtual-clock charges and fault decisions.
  HCS_NODISCARD std::vector<Result<Bytes>> CallMany(const HrpcBinding& binding,
                                                    uint32_t procedure,
                                                    const std::vector<Bytes>& bodies,
                                                    const RequestContext& context = RequestContext{});

  const std::string& local_host() const { return local_host_; }
  World* world() const { return world_; }
  Transport* transport() const { return transport_; }

 private:
  // One call's blocking exchanges; `effective` is the already-resolved
  // context.
  HCS_NODISCARD Result<Bytes> CallBlocking(const ControlProtocol& control,
                                           const HrpcBinding& binding, uint32_t procedure,
                                           BytesView args, const RequestContext& effective,
                                           RpcCallInfo* info_out);

  World* world_;
  std::string local_host_;
  Transport* transport_;
  // Atomic: one RpcClient serves concurrent callers on the real-transport
  // path (the Hns's readers and registration writers share it).
  std::atomic<uint32_t> next_xid_{1};
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_CLIENT_H_
