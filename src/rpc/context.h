// RequestContext: the per-request budget that travels with every HRPC call.
// The paper's two-step resolution (FindNSM -> NSM -> underlying name
// service) fans one client call out across up to four server processes; the
// context carries an explicit deadline, an attempt counter, and a trace id
// through that whole chain, so a downstream server can shed a request whose
// budget is already spent instead of answering into the void.
//
// Deadlines are absolute on the local steady clock; on the wire the context
// travels as a *relative* remaining budget (hosts do not share clocks) and
// is rebased onto the receiver's clock at decode time — against the
// message's arrival timestamp when the serving runtime recorded one, so
// time spent queued behind other requests counts against the budget.
//
// An empty context costs zero wire bytes: every control protocol emits the
// exact seed encoding when no context is set, which is what keeps the
// sim-world experiments (Tables 3.1/3.2, E1) byte-identical.

#ifndef HCS_SRC_RPC_CONTEXT_H_
#define HCS_SRC_RPC_CONTEXT_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/wire/xdr.h"

namespace hcs {

// Monotonic milliseconds (steady clock); the time base for all deadlines.
int64_t SteadyNowMs();

// Process-unique 64-bit trace id, never zero.
uint64_t NewTraceId();

struct RequestContext {
  // Absolute steady-clock deadline in ms; 0 = no deadline.
  int64_t deadline_ms = 0;
  // 0-based attempt counter; the client runtime bumps it per retry.
  uint32_t attempt = 0;
  // Correlates every hop of one logical request; 0 = untraced.
  uint64_t trace_id = 0;

  bool has_deadline() const { return deadline_ms > 0; }
  bool empty() const { return deadline_ms == 0 && attempt == 0 && trace_id == 0; }

  // Remaining budget in ms (may be negative once expired); a context with
  // no deadline reports a practically-infinite budget.
  int64_t remaining_ms() const;
  bool expired() const { return has_deadline() && remaining_ms() <= 0; }

  // A fresh traced context expiring `timeout_ms` from now.
  static RequestContext WithTimeout(int64_t timeout_ms);
};

// The context's wire form — the RPC-header extension each control protocol
// carries when a context is set. `budget_ms` is the remaining budget at
// encode time, clamped to >= 1 so an expired-but-sent context still decodes
// as carrying a deadline (and immediately reads as expired downstream).
struct RequestContextWire {
  uint64_t budget_ms = 0;  // relative remaining budget; 0 = no deadline
  uint32_t attempt = 0;
  uint64_t trace_id = 0;

  // Bytes EncodeTo appends: two XDR hypers and an unsigned int.
  static constexpr size_t kEncodedSize = 20;

  void EncodeTo(XdrEncoder& enc) const;
  HCS_NODISCARD static Result<RequestContextWire> DecodeFrom(XdrDecoder& dec);

  static RequestContextWire FromContext(const RequestContext& context);
  // Rebases the relative budget onto this process's clock, anchored at
  // `base_ms` (the message's arrival time; SteadyNowMs() when unknown).
  RequestContext ToContext(int64_t base_ms) const;
};

// --- Ambient context --------------------------------------------------------
// The serving runtime installs the decoded context for the duration of a
// handler; any client call made from inside the handler that does not pass
// an explicit context inherits it — which is what propagates the deadline
// across server hops without every intermediate API carrying a parameter.

// The context governing the current thread ("empty" outside any handler).
const RequestContext& CurrentRequestContext();

class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(const RequestContext& context);
  ~ScopedRequestContext();

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext saved_;
};

// Arrival timestamp of the message the current thread is handling, recorded
// by the serving runtime when the bytes left the kernel — queue time counts
// against the budget. 0 when no runtime recorded one.
int64_t CurrentReceiveTimestampMs();

class ScopedReceiveTimestamp {
 public:
  explicit ScopedReceiveTimestamp(int64_t arrival_ms);
  ~ScopedReceiveTimestamp();

  ScopedReceiveTimestamp(const ScopedReceiveTimestamp&) = delete;
  ScopedReceiveTimestamp& operator=(const ScopedReceiveTimestamp&) = delete;

 private:
  int64_t saved_;
};

// Shed helper for server layers: kTimeout when the ambient request's budget
// is already spent. `who` names the shedding layer in the error.
HCS_NODISCARD Status ShedIfBudgetSpent(const char* who);

}  // namespace hcs

#endif  // HCS_SRC_RPC_CONTEXT_H_
