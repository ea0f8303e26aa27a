#include "src/rpc/client.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <thread>

#include "src/common/rand.h"
#include "src/common/strings.h"

namespace hcs {

namespace {

// Depth-indexed thread-local scratch buffers for call encoding. A single
// thread_local Bytes would be clobbered by nested calls: the sim transport
// dispatches handlers synchronously on the calling thread, zero-copy
// dispatch hands the handler an argument view that aliases the outer call's
// encode buffer, and FindNSM-style chains re-enter Call from inside the
// handler. Each nesting depth leases its own buffer (deque: stable
// addresses), so re-encoding a nested call never rewrites bytes an outer
// frame is still reading.
class ScratchLease {
 public:
  ScratchLease() {
    if (depth_ == buffers_.size()) {
      buffers_.emplace_back();
    }
    buffer_ = &buffers_[depth_];
    ++depth_;
  }
  ~ScratchLease() { --depth_; }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Bytes* get() { return buffer_; }

 private:
  static thread_local std::deque<Bytes> buffers_;
  static thread_local size_t depth_;
  Bytes* buffer_;
};

thread_local std::deque<Bytes> ScratchLease::buffers_;
thread_local size_t ScratchLease::depth_ = 0;

// Per-call control-protocol processing charged to the simulation (covers
// both the client and server ends of the exchange).
double ControlCostMs(const CostModel& costs, ControlKind kind) {
  switch (kind) {
    case ControlKind::kSunRpc:
      return costs.sunrpc_control_ms;
    case ControlKind::kCourier:
      return costs.courier_control_ms;
    case ControlKind::kRaw:
      return costs.raw_control_ms;
  }
  return 0.0;
}

// Explicit context wins; otherwise inherit whatever the serving runtime
// installed for the request this thread is handling. A deadline-carrying
// context gets a trace id if it has none.
RequestContext EffectiveContext(const RequestContext& context) {
  RequestContext effective = context.empty() ? CurrentRequestContext() : context;
  if (effective.has_deadline() && effective.trace_id == 0) {
    effective.trace_id = NewTraceId();
  }
  return effective;
}

// The error a call whose budget is already spent completes with.
Status ShedBeforeSend(const HrpcBinding& binding, const RequestContext& effective) {
  return TimeoutError(StrFormat("call to %s:%u shed before send: budget exhausted (trace %016llx)",
                                binding.host.c_str(), binding.port,
                                static_cast<unsigned long long>(effective.trace_id)));
}

}  // namespace

// Retry policy for budgeted real-transport calls. Attempts are derived from
// the deadline: each attempt's transport budget doubles from kAttemptBaseMs
// and is capped by the remaining overall budget, so a 2000 ms budget yields
// roughly five attempts against a lossy datagram path.
int64_t RetryPolicy::AttemptBudgetMs(uint32_t attempt, int64_t remaining_ms) {
  return std::min(remaining_ms, kAttemptBaseMs << std::min<uint32_t>(attempt, 4));
}

int64_t RetryPolicy::JitteredBackoffMs(uint64_t trace_id, uint32_t wire_attempt,
                                       int64_t backoff_ms, int64_t remaining_ms) {
  Rng rng(trace_id ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(wire_attempt) + 1)));
  int64_t sleep_ms =
      backoff_ms / 2 + static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(backoff_ms / 2) + 1));
  return std::min(sleep_ms, remaining_ms);
}

int64_t RetryPolicy::NextBackoffMs(int64_t backoff_ms) {
  return std::min(backoff_ms * 2, kBackoffCapMs);
}

uint32_t RetryPolicy::MaxAttempts(int64_t budget_ms) {
  if (budget_ms <= 0) {
    return 1;
  }
  uint32_t attempts = 1;
  int64_t elapsed = 0;
  int64_t backoff = kBackoffBaseMs;
  while (attempts < 10000) {
    elapsed += backoff / 2;  // the minimum post-attempt sleep
    if (elapsed >= budget_ms) {
      break;
    }
    ++attempts;
    backoff = NextBackoffMs(backoff);
  }
  return attempts;
}

Result<Bytes> RpcClient::Call(const HrpcBinding& binding, uint32_t procedure, BytesView args,
                              const RequestContext& context, RpcCallInfo* info_out,
                              std::source_location birth) {
  if (transport_->async_channel().kind == AsyncChannelKind::kTcpStream) {
    RpcFuture future = CallAsync(binding, procedure, args, context, birth);
    Result<Bytes> result = future.Wait();
    if (info_out != nullptr) {
      *info_out = future.info();
    }
    return result;
  }
  // Datagram and channel-less transports: the caller is about to block
  // anyway, so the exchange runs right here, on its own thread.
#if HCS_LOOP_DEBUG_ENABLED
  AbortIfWaitOnLoopThread("RpcClient::Call()", birth.file_name(), static_cast<int>(birth.line()));
#else
  (void)birth;
#endif
  const RequestContext effective = EffectiveContext(context);
  if (effective.expired()) {
    // Client-side shed: a spent budget never goes on the wire.
    if (info_out != nullptr) {
      *info_out = RpcCallInfo{};
      info_out->trace_id = effective.trace_id;
    }
    return ShedBeforeSend(binding, effective);
  }
  return CallBlocking(GetControlProtocol(binding.control), binding, procedure, args, effective,
                      info_out);
}

RpcFuture RpcClient::CallAsync(const HrpcBinding& binding, uint32_t procedure, BytesView args,
                               const RequestContext& context, std::source_location birth) {
  const ControlProtocol& control = GetControlProtocol(binding.control);
  const RequestContext effective = EffectiveContext(context);

  auto state = std::make_shared<RpcFutureState>();
#if HCS_LOOP_DEBUG_ENABLED
  state->set_birth_site(birth.file_name(), static_cast<int>(birth.line()));
#else
  (void)birth;
#endif
  RpcCallInfo info;
  info.trace_id = effective.trace_id;

  // Client-side shed: a spent budget never goes on the wire.
  if (effective.expired()) {
    state->Complete(ShedBeforeSend(binding, effective), info);
    return RpcFuture(state);
  }

  AsyncChannelSpec channel = transport_->async_channel();
  if (channel.kind == AsyncChannelKind::kNone) {
    // No nonblocking channel (sim, loopback, fault wrappers): run the
    // blocking path inline and complete the future with its result — the
    // seed's exact semantics, wire bytes, and virtual-clock charges.
    state->Complete(CallBlocking(control, binding, procedure, args, effective, &info), info);
    return RpcFuture(state);
  }

  if (world_ != nullptr) {
    world_->ChargeMs(ControlCostMs(world_->costs(), binding.control));
  }
  AsyncCallSpec spec;
  spec.binding = binding;
  spec.procedure = procedure;
  spec.args = args.ToBytes();  // the engine's attempts outlive the caller's buffer
  spec.context = effective;
  spec.channel = channel;
  AsyncClientEngine* engine =
      async_engine_ != nullptr ? async_engine_ : GlobalAsyncClientEngine();
  engine->StartCall(std::move(spec), state);
  return RpcFuture(state);
}

Result<Bytes> RpcClient::CallBlocking(const ControlProtocol& control, const HrpcBinding& binding,
                                      uint32_t procedure, BytesView args,
                                      const RequestContext& effective, RpcCallInfo* info_out) {
  RpcCallInfo info;
  info.trace_id = effective.trace_id;

  // The caller's argument bytes are encoded straight into the message.
  RpcCallView call;
  call.xid = next_xid_.fetch_add(1, std::memory_order_relaxed);
  call.program = binding.program;
  call.version = binding.version;
  call.procedure = procedure;
  call.args = args;

  // The retry loop needs a transport that can bound one exchange in real
  // time; otherwise (sim, loopback, no deadline) keep the seed's single
  // attempt so virtual-clock runs stay deterministic.
  const bool budgeted = effective.has_deadline() && transport_->SupportsBudget();

  // Courier transaction ids are 16-bit; compare within the protocol's width.
  const uint32_t want_xid =
      binding.control == ControlKind::kCourier ? (call.xid & 0xffff) : call.xid;
  // The datagram socket this thread reuses may still hold a duplicate or a
  // late reply to an earlier call; only this call's xid is its answer. A
  // datagram that does not parse as a reply header goes to the decoder,
  // which reports it.
  struct XidMatcher final : ReplyMatcher {
    const ControlProtocol* control;
    uint32_t xid;
    XidMatcher(const ControlProtocol* c, uint32_t x) : control(c), xid(x) {}
    bool Matches(const uint8_t* data, size_t size) const override {
      std::optional<uint32_t> got = control->PeekReplyXid(data, size);
      return !got.has_value() || *got == xid;
    }
  };
  const XidMatcher matcher(&control, want_xid);

  Result<BytesView> response = UnavailableError("not attempted");
  // Holds the reply for transports without a receive buffer of their own.
  Bytes reply_storage;
  int64_t backoff_ms = RetryPolicy::kBackoffBaseMs;
  ScratchLease scratch;
  Bytes& message = *scratch.get();
  for (uint32_t attempt = 0;; ++attempt) {
    call.context = effective;
    call.context.attempt = effective.attempt + attempt;  // re-marshalled per try
    control.EncodeCallTo(call, &message);

    if (world_ != nullptr) {
      world_->ChargeMs(ControlCostMs(world_->costs(), binding.control));
    }

    if (budgeted) {
      // Check the budget before charging the attempt: info.attempts counts
      // transport exchanges actually performed, never a shed one.
      int64_t remaining = effective.remaining_ms();
      if (remaining <= 0) {
        if (info_out != nullptr) {
          *info_out = info;
        }
        return TimeoutError(StrFormat("call to %s:%u: budget exhausted after %u attempts",
                                      binding.host.c_str(), binding.port, info.attempts));
      }
      ++info.attempts;
      int64_t attempt_budget = RetryPolicy::AttemptBudgetMs(attempt, remaining);
      response = transport_->RoundTripMatching(local_host_, binding.host, binding.port, message,
                                               attempt_budget, matcher, &reply_storage);
    } else {
      ++info.attempts;
      response = transport_->RoundTripMatching(local_host_, binding.host, binding.port, message,
                                               /*budget_ms=*/0, matcher, &reply_storage);
    }
    if (info_out != nullptr) {
      *info_out = info;
    }
    if (response.ok()) {
      break;
    }
    StatusCode code = response.status().code();
    const bool retryable =
        budgeted && (code == StatusCode::kTimeout || code == StatusCode::kUnavailable);
    if (!retryable) {
      return response.status();
    }
    int64_t remaining = effective.remaining_ms();
    if (remaining <= 0) {
      return TimeoutError(StrFormat("call to %s:%u: budget exhausted after %u attempts: %s",
                                    binding.host.c_str(), binding.port, info.attempts,
                                    response.status().message().c_str()));
    }
    // Exponential backoff with deterministic jitter (seeded from the trace
    // id and attempt number, so a given call's schedule reproduces), capped
    // by the remaining budget.
    int64_t sleep_ms = RetryPolicy::JitteredBackoffMs(effective.trace_id, call.context.attempt,
                                                      backoff_ms, remaining);
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    backoff_ms = RetryPolicy::NextBackoffMs(backoff_ms);
    ++info.retries;
    if (info_out != nullptr) {
      *info_out = info;
    }
  }

  // Decoded where it landed; the results are the one copy this call makes.
  HCS_ASSIGN_OR_RETURN(RpcReplyView reply, control.DecodeReplyView(response->data(),
                                                                  response->size()));
  if (reply.xid != want_xid) {
    return ProtocolError(
        StrFormat("reply xid %u does not match call xid %u", reply.xid, want_xid));
  }
  if (reply.app_status != StatusCode::kOk) {
    return Status(reply.app_status, std::move(reply.error_message));
  }
  return reply.results.ToBytes();
}

}  // namespace hcs
