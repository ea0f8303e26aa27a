#include "src/rpc/async_client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/epoll.h>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/rpc/client.h"

namespace hcs {

namespace {

constexpr size_t kMaxDatagram = 64 * 1024;

void AppendFrameHeader(Bytes& out, size_t payload_size) {
  uint32_t n = static_cast<uint32_t>(payload_size);
  out.push_back(static_cast<uint8_t>(n >> 24));
  out.push_back(static_cast<uint8_t>(n >> 16));
  out.push_back(static_cast<uint8_t>(n >> 8));
  out.push_back(static_cast<uint8_t>(n));
}

uint32_t ReadFrameLength(const Bytes& in) {
  return (static_cast<uint32_t>(in[0]) << 24) | (static_cast<uint32_t>(in[1]) << 16) |
         (static_cast<uint32_t>(in[2]) << 8) | static_cast<uint32_t>(in[3]);
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

ReactorOptions ClientReactorOptions() {
  ReactorOptions options;
  options.workers = -1;  // client-only: every callback on the loop thread
  return options;
}

#if HCS_LOOP_DEBUG_ENABLED
// Aborts when a guarded region re-enters itself. Waiter drains and conn
// teardown are written to run with nothing of their own on the stack —
// the PR 8 review bugs were exactly these paths nesting (inline drain
// tearing down the connection its caller was reading). DESIGN.md §15.
struct ReentryGuard {
  int& depth;
  const char* what;
  ReentryGuard(int& d, const char* w) : depth(d), what(w) {
    if (++depth > 1) {
      std::fprintf(stderr,
                   "hcs loop-affinity: %s re-entered (depth %d) — this nesting "
                   "is the use-after-free shape the threading rules forbid\n",
                   what, depth);
      std::abort();
    }
  }
  ~ReentryGuard() { --depth; }
};
#endif

}  // namespace

// One in-flight CallAsync. Loop-thread-only after StartOnLoop; the future
// state is the only piece other threads see.
struct AsyncClientEngine::PendingCall {
  uint64_t id = 0;
  AsyncCallSpec spec;
  const ControlProtocol* control = nullptr;
  std::shared_ptr<RpcFutureState> state;
  RpcCallInfo info;
  bool budgeted = false;

  // The xid travels unchanged across retries (like the sync client): a
  // retry is the same call, and a late reply to an earlier attempt still
  // answers it.
  uint32_t xid = 0;
  uint32_t attempt = 0;
  int64_t backoff_ms = RetryPolicy::kBackoffBaseMs;
  uint64_t attempt_timer = 0;  // nonzero while an attempt timer is armed
  Bytes wire;                  // per-attempt encode buffer (reused)

  // Residence: where a reply or a slot for this call is currently awaited.
  uint16_t udp_port = 0;        // nonzero → registered in udp_pending_[port]
  StreamConn* conn = nullptr;   // non-null → in conn->inflight
  bool waiting = false;         // queued in the pool's waiter deque
};

// One pooled stream connection. The engine pipelines up to
// max_inflight_per_conn calls on it; replies match by xid, so completion
// order is free to differ from send order.
struct AsyncClientEngine::StreamConn {
  int fd = -1;  // owned by the reactor's client-fd registration
  uint16_t port = 0;
  bool connecting = false;
  uint32_t events = 0;  // current epoll interest set
  Bytes outbuf;
  size_t out_off = 0;
  Bytes inbuf;
  std::map<uint32_t, PendingCall*> inflight;  // hcs:loop-only; masked xid → call
  int64_t last_active_ms = 0;
};

struct AsyncClientEngine::Pool {
  std::vector<StreamConn*> conns;  // hcs:loop-only
  std::deque<uint64_t> waiters;    // hcs:loop-only; call ids awaiting a connection slot
};

AsyncClientEngine::AsyncClientEngine(AsyncEngineOptions options)
    : options_(options), reactor_(ClientReactorOptions()), read_buffer_(kMaxDatagram) {
  Status started = reactor_.Start();
  if (!started.ok()) {
    // Post() will fail and every StartCall completes kUnavailable inline.
    HCS_LOG(Warning) << "async client engine failed to start: " << started;
  }
}

AsyncClientEngine::~AsyncClientEngine() {
  // Fail every outstanding future on the loop (single-threaded with the
  // rest of the call state), then stop the reactor.
  struct Latch {
    Mutex mu{"async-engine-shutdown"};
    CondVar cv;
    bool done = false;
  };
  auto latch = std::make_shared<Latch>();
  bool posted = reactor_.Post([this, latch] {
    stopping_ = true;
    std::vector<uint64_t> ids;
    ids.reserve(calls_.size());
    for (const auto& [id, call] : calls_) {
      ids.push_back(id);
    }
    for (uint64_t id : ids) {
      PendingCall* call = FindCall(id);
      if (call != nullptr) {
        CompleteCall(call, UnavailableError("async client engine shutting down"));
      }
    }
    {
      MutexLock lock(latch->mu);
      latch->done = true;
    }
    latch->cv.NotifyAll();
  });
  if (posted) {
    MutexLock lock(latch->mu);
    latch->cv.Wait(latch->mu, [&] { return latch->done; });
  }
  reactor_.Stop();
  // Calls staged after the fail-all task was posted never reached the loop;
  // with it stopped, nothing else will complete them.
  std::vector<std::shared_ptr<PendingCall>> stranded;
  {
    MutexLock lock(incoming_mu_);
    stranded.swap(incoming_);
  }
  for (const std::shared_ptr<PendingCall>& call : stranded) {
    call->state->Complete(UnavailableError("async client engine shutting down"), call->info);
  }
}

void AsyncClientEngine::StartCall(AsyncCallSpec spec, std::shared_ptr<RpcFutureState> state) {
  auto call = std::make_shared<PendingCall>();
  call->id = next_call_id_.fetch_add(1, std::memory_order_relaxed);
  call->spec = std::move(spec);
  call->control = &GetControlProtocol(call->spec.binding.control);
  call->state = std::move(state);
  call->info.trace_id = call->spec.context.trace_id;
  call->budgeted = call->spec.context.has_deadline();

  // Stage-and-drain hand-off: a burst of StartCalls shares ONE posted drain
  // task (captureless-sized lambda, no per-call allocation) instead of one
  // closure per call through the reactor's posted queue.
  bool need_post = false;
  {
    MutexLock lock(incoming_mu_);
    incoming_.push_back(std::move(call));
    if (!incoming_drain_scheduled_) {
      incoming_drain_scheduled_ = true;
      need_post = true;
    }
  }
  if (need_post && !reactor_.Post([this] { DrainIncoming(); })) {
    // Engine not running: fail everything staged (ours and any piggybacked
    // on the drain we could not schedule).
    std::vector<std::shared_ptr<PendingCall>> orphans;
    {
      MutexLock lock(incoming_mu_);
      orphans.swap(incoming_);
      incoming_drain_scheduled_ = false;
    }
    for (const std::shared_ptr<PendingCall>& orphan : orphans) {
      orphan->state->Complete(UnavailableError("async client engine not running"),
                              orphan->info);
    }
  }
}

void AsyncClientEngine::DrainIncoming() {
  HCS_ASSERT_LOOP(&reactor_);
  std::vector<std::shared_ptr<PendingCall>> batch;
  {
    MutexLock lock(incoming_mu_);
    batch.swap(incoming_);
    incoming_drain_scheduled_ = false;
  }
  for (std::shared_ptr<PendingCall>& call : batch) {
    StartOnLoop(std::move(call));
  }
}

AsyncEngineStats AsyncClientEngine::stats() const {
  AsyncEngineStats out;
  out.calls = stat_calls_.load(std::memory_order_relaxed);
  out.completed = stat_completed_.load(std::memory_order_relaxed);
  out.retries = stat_retries_.load(std::memory_order_relaxed);
  out.udp_unmatched = stat_udp_unmatched_.load(std::memory_order_relaxed);
  out.stream_unmatched = stat_stream_unmatched_.load(std::memory_order_relaxed);
  out.stream_connects = stat_stream_connects_.load(std::memory_order_relaxed);
  out.stream_reaped = stat_stream_reaped_.load(std::memory_order_relaxed);
  out.pool_waits = stat_pool_waits_.load(std::memory_order_relaxed);
  out.udp_send_drops = stat_udp_send_drops_.load(std::memory_order_relaxed);
  return out;
}

void AsyncClientEngine::ReapIdleNow() {
  (void)reactor_.Post([this] { ReapIdle(); });
}

// --- Call lifecycle ---------------------------------------------------------

AsyncClientEngine::PendingCall* AsyncClientEngine::FindCall(uint64_t call_id) {
  auto it = calls_.find(call_id);
  return it != calls_.end() ? it->second.get() : nullptr;
}

uint32_t AsyncClientEngine::MaskedXid(const PendingCall* call) const {
  // Courier transaction ids are 16-bit; register and match within the
  // protocol's width (the sync client's masked-compare rule).
  return call->spec.binding.control == ControlKind::kCourier ? (call->xid & 0xffff) : call->xid;
}

void AsyncClientEngine::StartOnLoop(std::shared_ptr<PendingCall> call) {
  if (stopping_) {
    call->state->Complete(UnavailableError("async client engine shutting down"), call->info);
    return;
  }
  stat_calls_.fetch_add(1, std::memory_order_relaxed);
  call->xid = next_xid_.fetch_add(1, std::memory_order_relaxed);
  PendingCall* raw = call.get();
  calls_[call->id] = std::move(call);
  StartAttempt(raw);
}

void AsyncClientEngine::StartAttempt(PendingCall* call) {
  HCS_ASSERT_LOOP(&reactor_);
  if (stopping_) {
    CompleteCall(call, UnavailableError("async client engine shutting down"));
    return;
  }
  int64_t attempt_timeout = call->spec.channel.default_timeout_ms;
  if (call->budgeted) {
    int64_t remaining = call->spec.context.remaining_ms();
    if (remaining <= 0) {
      CompleteCall(call, TimeoutError(StrFormat(
                             "call to %s:%u: budget exhausted after %u attempts",
                             call->spec.binding.host.c_str(), call->spec.binding.port,
                             call->info.attempts)));
      return;
    }
    attempt_timeout =
        std::min(attempt_timeout, RetryPolicy::AttemptBudgetMs(call->attempt, remaining));
  }
  ++call->info.attempts;
  const uint64_t id = call->id;
  call->attempt_timer = reactor_.ScheduleAfter(attempt_timeout, [this, id] {
    OnAttemptTimeout(id);
  });
  switch (call->spec.channel.kind) {
    case AsyncChannelKind::kUdpDatagram:
      SendUdpAttempt(call);
      break;
    case AsyncChannelKind::kTcpStream:
      StartStreamAttempt(call);
      break;
    case AsyncChannelKind::kNone:
      HandleAttemptError(call, InternalError("async call on a channel-less transport"));
      break;
  }
}

void AsyncClientEngine::OnAttemptTimeout(uint64_t call_id) {
  HCS_ASSERT_LOOP(&reactor_);
  PendingCall* call = FindCall(call_id);
  if (call == nullptr) {
    return;
  }
  call->attempt_timer = 0;  // it just fired
  HandleAttemptError(
      call, TimeoutError(StrFormat("no response from %s:%u within the attempt budget",
                                   call->spec.binding.host.c_str(), call->spec.binding.port)));
}

void AsyncClientEngine::HandleAttemptError(PendingCall* call, const Status& error) {
  if (call->attempt_timer != 0) {
    reactor_.CancelTimer(call->attempt_timer);
    call->attempt_timer = 0;
  }
  UnregisterResidences(call);
  const StatusCode code = error.code();
  const bool retryable =
      call->budgeted && (code == StatusCode::kTimeout || code == StatusCode::kUnavailable);
  if (!retryable || stopping_) {
    CompleteCall(call, error);
    return;
  }
  int64_t remaining = call->spec.context.remaining_ms();
  if (remaining <= 0) {
    CompleteCall(call, TimeoutError(StrFormat(
                           "call to %s:%u: budget exhausted after %u attempts: %s",
                           call->spec.binding.host.c_str(), call->spec.binding.port,
                           call->info.attempts, error.message().c_str())));
    return;
  }
  // The sync client's schedule exactly: jittered exponential backoff seeded
  // from (trace id, wire attempt), capped by the remaining budget.
  const uint32_t wire_attempt = call->spec.context.attempt + call->attempt;
  int64_t sleep_ms = RetryPolicy::JitteredBackoffMs(call->spec.context.trace_id, wire_attempt,
                                                    call->backoff_ms, remaining);
  call->backoff_ms = RetryPolicy::NextBackoffMs(call->backoff_ms);
  ++call->info.retries;
  stat_retries_.fetch_add(1, std::memory_order_relaxed);
  ++call->attempt;
  const uint64_t id = call->id;
  (void)reactor_.ScheduleAfter(sleep_ms, [this, id] {
    PendingCall* retry = FindCall(id);
    if (retry != nullptr) {
      StartAttempt(retry);
    }
  });
}

void AsyncClientEngine::CompleteCall(PendingCall* call, Result<Bytes> result) {
  HCS_ASSERT_LOOP(&reactor_);
  if (call->attempt_timer != 0) {
    reactor_.CancelTimer(call->attempt_timer);
    call->attempt_timer = 0;
  }
  UnregisterResidences(call);
  stat_completed_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<RpcFutureState> state = std::move(call->state);
  RpcCallInfo info = call->info;
  calls_.erase(call->id);  // invalidates `call`
  state->Complete(std::move(result), info);
}

void AsyncClientEngine::CompleteFromReply(PendingCall* call, RpcReplyMsg reply) {
  // The xid already matched (that is how we found the call); map the
  // application status exactly as the sync tail does.
  if (reply.app_status != StatusCode::kOk) {
    CompleteCall(call, Status(reply.app_status, reply.error_message));
    return;
  }
  CompleteCall(call, std::move(reply.results));
}

void AsyncClientEngine::UnregisterResidences(PendingCall* call) {
  if (call->udp_port != 0) {
    auto bucket = udp_pending_.find(call->udp_port);
    if (bucket != udp_pending_.end()) {
      bucket->second.erase(MaskedXid(call));
      if (bucket->second.empty()) {
        udp_pending_.erase(bucket);
      }
    }
    call->udp_port = 0;
  }
  if (call->conn != nullptr) {
    StreamConn* conn = call->conn;
    call->conn = nullptr;
    conn->inflight.erase(MaskedXid(call));
    conn->last_active_ms = SteadyNowMs();
    // Deferred, not inline: a drain here can re-enter the very connection a
    // caller (ReadStream's frame loop, OnStreamEvent) is still touching and
    // destroy it under them. The posted task runs with nothing on the stack.
    ScheduleDrainWaiters(conn->port);
  }
  if (call->waiting) {
    call->waiting = false;
    auto pool = pools_.find(call->spec.binding.port);
    if (pool != pools_.end()) {
      auto& waiters = pool->second.waiters;
      waiters.erase(std::remove(waiters.begin(), waiters.end(), call->id), waiters.end());
    }
  }
}

void AsyncClientEngine::EncodeAttempt(PendingCall* call) {
  if (call->wire.capacity() == 0 && !wire_pool_.empty()) {
    call->wire = std::move(wire_pool_.back());  // encoder clears before use
    wire_pool_.pop_back();
  }
  RpcCallView rpc;
  rpc.xid = call->xid;
  rpc.program = call->spec.binding.program;
  rpc.version = call->spec.binding.version;
  rpc.procedure = call->spec.procedure;
  rpc.args = BytesView(call->spec.args);  // encoded straight from the spec, no copy per try
  rpc.context = call->spec.context;
  rpc.context.attempt = call->spec.context.attempt + call->attempt;  // re-marshalled per try
  call->control->EncodeCallTo(rpc, &call->wire);
}

// --- UDP channel ------------------------------------------------------------

Status AsyncClientEngine::EnsureUdpChannel() {
  if (udp_fd_ >= 0) {
    return Status::Ok();
  }
  int fd = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return UnavailableError(StrFormat("socket(udp): %s", std::strerror(errno)));
  }
  Status added = reactor_.AddClientFd(fd, EPOLLIN, [this](uint32_t) { OnUdpReadable(); });
  if (!added.ok()) {
    close(fd);
    return added;
  }
  udp_fd_ = fd;
  return Status::Ok();
}

void AsyncClientEngine::SendUdpAttempt(PendingCall* call) {
  Status channel = EnsureUdpChannel();
  if (!channel.ok()) {
    HandleAttemptError(call, channel);
    return;
  }
  const uint16_t port = call->spec.binding.port;
  auto& bucket = udp_pending_[port];
  // The masked xid must be unique among this port's pending calls, or a
  // reply would be ambiguous; redraw on collision (16-bit Courier space).
  for (int i = 0; bucket.count(MaskedXid(call)) != 0 && i < 1 << 17; ++i) {
    call->xid = next_xid_.fetch_add(1, std::memory_order_relaxed);
  }
  if (bucket.count(MaskedXid(call)) != 0) {
    // Redraw exhausted: the whole masked space is pending to this port
    // (~64k Courier calls). Registering anyway would orphan the incumbent
    // and cross-complete its reply; fail the attempt instead — budgeted
    // calls back off and retry into whatever space frees up.
    HandleAttemptError(call, UnavailableError(StrFormat(
                                 "xid space exhausted: %zu calls pending to port %u",
                                 bucket.size(), port)));
    return;
  }
  EncodeAttempt(call);
  // Stage rather than sendto: every attempt issued during this reactor
  // iteration (a burst of StartCall posts, a wave of retry timers) leaves
  // in one sendmmsg. The call registers before the flush — its attempt
  // timer is already armed, so a kernel-refused datagram simply retries.
  UdpReply staged;
  staged.peer = LoopbackAddr(port);
  staged.peer_len = sizeof(sockaddr_in);
  staged.payload = std::move(call->wire);  // EncodeAttempt rebuilds per try
  udp_outbox_.push_back(std::move(staged));
  if (!udp_flush_scheduled_) {
    udp_flush_scheduled_ = true;
    (void)reactor_.Post([this] { FlushUdpOutbox(); });
  }
  bucket[MaskedXid(call)] = call;
  call->udp_port = port;
}

void AsyncClientEngine::FlushUdpOutbox() {
  HCS_ASSERT_LOOP(&reactor_);
  udp_flush_scheduled_ = false;
  if (udp_outbox_.empty() || udp_fd_ < 0) {
    udp_outbox_.clear();
    return;
  }
  std::vector<UdpReply> batch;
  batch.swap(udp_outbox_);
  size_t sent = SendReplies(udp_fd_, batch);
  if (sent < batch.size()) {
    // UDP semantics: the shortfall is a drop; each affected call's attempt
    // timer fires and the retry loop re-sends.
    stat_udp_send_drops_.fetch_add(batch.size() - sent, std::memory_order_relaxed);
  }
  if (udp_rx_ == nullptr) {
    // Full-width receive batch: a pipelining client drains a window of
    // replies per wake, so the deepest batch the wrappers allow pays off.
    // Built after the first flush, on this loop thread and so before any
    // OnUdpReadable: the first datagrams travel while its 4 MiB is set up
    // (a sanitizer build's debug poisoning of it outlasts a loopback round
    // trip).
    udp_rx_ = std::make_unique<UdpRecvBatch>(kMaxUdpBatch, kMaxDatagram);
  }
  constexpr size_t kWirePoolCap = 256;
  for (UdpReply& reply : batch) {
    if (wire_pool_.size() >= kWirePoolCap) {
      break;
    }
    wire_pool_.push_back(std::move(reply.payload));
  }
}

void AsyncClientEngine::OnUdpReadable() {
  HCS_ASSERT_LOOP(&reactor_);
  while (true) {
    int count = udp_rx_->Recv(udp_fd_);
    if (count <= 0) {
      // 0: drained (EAGAIN). -1: transient socket error (ICMP-induced) —
      // either way level-triggered epoll re-reports genuine readiness.
      return;
    }
    for (int i = 0; i < count; ++i) {
      UdpFrame& frame = udp_rx_->frame(i);
      if (frame.truncated || frame.size == 0) {
        continue;
      }
      // Copy out of the batch arena before dispatch: the decoded reply (and
      // anything a completion callback captures) must outlive the batch's
      // next Recv, so no arena view crosses DispatchUdpDatagram.
      Bytes datagram(frame.data, frame.data + frame.size);
      DispatchUdpDatagram(ntohs(frame.peer.sin_port), datagram);
    }
    if (count < udp_rx_->capacity()) {
      return;  // short batch: the socket is drained
    }
  }
}

void AsyncClientEngine::DispatchUdpDatagram(uint16_t port, const Bytes& datagram) {
  auto bucket_it = udp_pending_.find(port);
  if (bucket_it == udp_pending_.end()) {
    stat_udp_unmatched_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The port's pending calls may span control protocols; try each distinct
  // kind's decoder once, then match the decoded xid against pending calls
  // of that same kind. A duplicate (already-completed xid) or a late reply
  // to an abandoned attempt matches nothing and is dropped — exactly the
  // dedup the xid registry is for.
  uint32_t kinds_tried = 0;
  for (const auto& [key, pending] : bucket_it->second) {
    const uint32_t kind_bit = 1u << static_cast<uint32_t>(pending->spec.binding.control);
    if ((kinds_tried & kind_bit) != 0) {
      continue;
    }
    kinds_tried |= kind_bit;
    Result<RpcReplyMsg> reply = pending->control->DecodeReply(datagram);
    if (!reply.ok()) {
      continue;
    }
    const uint32_t masked = pending->spec.binding.control == ControlKind::kCourier
                                ? (reply->xid & 0xffff)
                                : reply->xid;
    auto hit = bucket_it->second.find(masked);
    if (hit != bucket_it->second.end() && hit->second->control == pending->control) {
      CompleteFromReply(hit->second, std::move(*reply));
      return;
    }
  }
  stat_udp_unmatched_.fetch_add(1, std::memory_order_relaxed);
}

// --- Stream pool ------------------------------------------------------------

void AsyncClientEngine::StartStreamAttempt(PendingCall* call) { TryAssignStream(call); }

void AsyncClientEngine::TryAssignStream(PendingCall* call) {
  const uint16_t port = call->spec.binding.port;
  Pool& pool = pools_[port];
  StreamConn* best = nullptr;
  for (StreamConn* conn : pool.conns) {
    if (static_cast<int>(conn->inflight.size()) >= options_.max_inflight_per_conn) {
      continue;
    }
    if (best == nullptr || conn->inflight.size() < best->inflight.size()) {
      best = conn;
    }
  }
  if (best == nullptr && static_cast<int>(pool.conns.size()) < options_.max_conns_per_remote) {
    Result<StreamConn*> dialed = DialStream(port);
    if (!dialed.ok()) {
      HandleAttemptError(call, dialed.status());
      return;
    }
    best = *dialed;
  }
  if (best == nullptr) {
    // Pool exhausted: a bounded wait — the armed attempt timer (capped by
    // the remaining budget) is what bounds it.
    stat_pool_waits_.fetch_add(1, std::memory_order_relaxed);
    call->waiting = true;
    pool.waiters.push_back(call->id);
    return;
  }
  AssignToConn(call, best);
}

Result<AsyncClientEngine::StreamConn*> AsyncClientEngine::DialStream(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return UnavailableError(StrFormat("socket(tcp): %s", std::strerror(errno)));
  }
  sockaddr_in addr = LoopbackAddr(port);
  int rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const bool connecting = rc < 0 && errno == EINPROGRESS;
  if (rc < 0 && !connecting) {
    int saved = errno;
    close(fd);
    return UnavailableError(StrFormat("connect(127.0.0.1:%u): %s", port,
                                      std::strerror(saved)));
  }
  auto conn = std::make_unique<StreamConn>();
  conn->fd = fd;
  conn->port = port;
  conn->connecting = connecting;
  conn->events = EPOLLIN | EPOLLOUT;
  conn->last_active_ms = SteadyNowMs();
  StreamConn* raw = conn.get();
  Status added =
      reactor_.AddClientFd(fd, conn->events, [this, raw](uint32_t ev) { OnStreamEvent(raw, ev); });
  if (!added.ok()) {
    close(fd);
    return added;
  }
  stat_stream_connects_.fetch_add(1, std::memory_order_relaxed);
  pools_[port].conns.push_back(raw);
  stream_conns_[raw] = std::move(conn);
  ScheduleReap();
  return raw;
}

void AsyncClientEngine::AssignToConn(PendingCall* call, StreamConn* conn) {
  // Unique masked xid per connection (replies match within the conn).
  for (int i = 0; conn->inflight.count(MaskedXid(call)) != 0 && i < 1 << 17; ++i) {
    call->xid = next_xid_.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn->inflight.count(MaskedXid(call)) != 0) {
    // Same rule as the UDP registry: never overwrite a registered xid.
    HandleAttemptError(call, UnavailableError(StrFormat(
                                 "xid space exhausted: %zu calls in flight on 127.0.0.1:%u",
                                 conn->inflight.size(), conn->port)));
    return;
  }
  EncodeAttempt(call);
  AppendFrameHeader(conn->outbuf, call->wire.size());
  conn->outbuf.insert(conn->outbuf.end(), call->wire.begin(), call->wire.end());
  conn->inflight[MaskedXid(call)] = call;
  call->conn = conn;
  conn->last_active_ms = SteadyNowMs();
  if (!conn->connecting) {
    (void)FlushStream(conn);
  }
}

void AsyncClientEngine::OnStreamEvent(StreamConn* conn, uint32_t events) {
  HCS_ASSERT_LOOP(&reactor_);
  if (conn->connecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) {
      return;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      err = errno;
    }
    if (err != 0) {
      FailStreamConn(conn, UnavailableError(StrFormat("connect(127.0.0.1:%u): %s", conn->port,
                                                      std::strerror(err))));
      return;
    }
    conn->connecting = false;
    if (!FlushStream(conn)) {
      return;
    }
    events &= ~static_cast<uint32_t>(EPOLLOUT);
  }
  if ((events & EPOLLIN) != 0) {
    if (!ReadStream(conn)) {
      return;
    }
  } else if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    FailStreamConn(conn, UnavailableError(StrFormat(
                             "stream connection to 127.0.0.1:%u failed", conn->port)));
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    (void)FlushStream(conn);
  }
}

bool AsyncClientEngine::FlushStream(StreamConn* conn) {
  while (conn->out_off < conn->outbuf.size()) {
    ssize_t n = send(conn->fd, conn->outbuf.data() + conn->out_off,
                     conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      FailStreamConn(conn, UnavailableError(StrFormat("send(127.0.0.1:%u): %s", conn->port,
                                                      std::strerror(errno))));
      return false;
    }
    conn->out_off += static_cast<size_t>(n);
  }
  uint32_t want = EPOLLIN;
  if (conn->out_off < conn->outbuf.size()) {
    want |= EPOLLOUT;
  } else {
    conn->outbuf.clear();
    conn->out_off = 0;
  }
  if (want != conn->events) {
    conn->events = want;
    (void)reactor_.ModClientFd(conn->fd, want);  // hcs:ignore-status(best effort; a dead fd surfaces as EPOLLERR and fails the conn)
  }
  return true;
}

bool AsyncClientEngine::ReadStream(StreamConn* conn) {
  bool peer_closed = false;
  while (true) {
    ssize_t n = recv(conn->fd, read_buffer_.data(), read_buffer_.size(), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      FailStreamConn(conn, UnavailableError(StrFormat("recv(127.0.0.1:%u): %s", conn->port,
                                                      std::strerror(errno))));
      return false;
    }
    if (n == 0) {
      // Peer closed (server crash / restart). Complete frames that landed
      // ahead of the EOF still answer their calls — only then does every
      // call left pipelined on this connection fail kUnavailable (budgeted
      // calls retry on a fresh one).
      peer_closed = true;
      break;
    }
    conn->inbuf.insert(conn->inbuf.end(), read_buffer_.begin(), read_buffer_.begin() + n);
  }
  // Frames may arrive torn across reads; reassemble, bound by the cap.
  while (conn->inbuf.size() >= 4) {
    uint32_t frame_len = ReadFrameLength(conn->inbuf);
    if (frame_len > kMaxStreamFrame) {
      FailStreamConn(conn, ProtocolError(StrFormat(
                               "stream frame length %u from 127.0.0.1:%u exceeds cap",
                               frame_len, conn->port)));
      return false;
    }
    if (conn->inbuf.size() < 4 + static_cast<size_t>(frame_len)) {
      break;  // partial frame; more bytes coming
    }
    Bytes frame(conn->inbuf.begin() + 4, conn->inbuf.begin() + 4 + frame_len);
    conn->inbuf.erase(conn->inbuf.begin(), conn->inbuf.begin() + 4 + frame_len);
    DispatchStreamFrame(conn, frame);
  }
  if (peer_closed) {
    FailStreamConn(conn, UnavailableError(StrFormat(
                             "stream peer 127.0.0.1:%u closed with %zu calls in flight",
                             conn->port, conn->inflight.size())));
    return false;
  }
  conn->last_active_ms = SteadyNowMs();
  return true;
}

void AsyncClientEngine::DispatchStreamFrame(StreamConn* conn, const Bytes& frame) {
  uint32_t kinds_tried = 0;
  for (const auto& [key, pending] : conn->inflight) {
    const uint32_t kind_bit = 1u << static_cast<uint32_t>(pending->spec.binding.control);
    if ((kinds_tried & kind_bit) != 0) {
      continue;
    }
    kinds_tried |= kind_bit;
    Result<RpcReplyMsg> reply = pending->control->DecodeReply(frame);
    if (!reply.ok()) {
      continue;
    }
    const uint32_t masked = pending->spec.binding.control == ControlKind::kCourier
                                ? (reply->xid & 0xffff)
                                : reply->xid;
    auto hit = conn->inflight.find(masked);
    if (hit != conn->inflight.end() && hit->second->control == pending->control) {
      // The iteration never resumes after the erase inside CompleteCall:
      // hcs:on-loop(completes exactly one call and returns immediately)
      CompleteFromReply(hit->second, std::move(*reply));
      return;
    }
  }
  // No in-flight xid wants this frame: a reply to an attempt we abandoned
  // (timeout/retry). Dropping it here is what keeps the pipeline correct.
  stat_stream_unmatched_.fetch_add(1, std::memory_order_relaxed);
}

void AsyncClientEngine::FailStreamConn(StreamConn* conn, const Status& error) {
  HCS_ASSERT_LOOP(&reactor_);
#if HCS_LOOP_DEBUG_ENABLED
  ReentryGuard reentry(teardown_depth_, "FailStreamConn");
#endif
  std::vector<PendingCall*> victims;
  victims.reserve(conn->inflight.size());
  for (const auto& [xid, call] : conn->inflight) {
    call->conn = nullptr;  // detach before the conn disappears
    victims.push_back(call);
  }
  conn->inflight.clear();
  const uint16_t port = conn->port;
  RemoveStreamConn(conn);
  for (PendingCall* call : victims) {
    HandleAttemptError(call, error);
  }
  ScheduleDrainWaiters(port);
}

void AsyncClientEngine::RemoveStreamConn(StreamConn* conn) {
  auto pool = pools_.find(conn->port);
  if (pool != pools_.end()) {
    auto& conns = pool->second.conns;
    conns.erase(std::remove(conns.begin(), conns.end(), conn), conns.end());
  }
  reactor_.RemoveClientFd(conn->fd);  // closes the fd
  stream_conns_.erase(conn);
}

void AsyncClientEngine::ScheduleDrainWaiters(uint16_t port) {
  if (stopping_) {
    return;  // the destructor's fail-all completes any queued waiters
  }
  if (std::find(drain_ports_.begin(), drain_ports_.end(), port) == drain_ports_.end()) {
    drain_ports_.push_back(port);
  }
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    (void)reactor_.Post([this] { RunScheduledDrains(); });
  }
}

void AsyncClientEngine::RunScheduledDrains() {
  HCS_ASSERT_LOOP(&reactor_);
  drain_scheduled_ = false;
  std::vector<uint16_t> ports;
  ports.swap(drain_ports_);
  for (uint16_t port : ports) {
    DrainWaiters(port);
  }
}

void AsyncClientEngine::DrainWaiters(uint16_t port) {
  HCS_ASSERT_LOOP(&reactor_);
#if HCS_LOOP_DEBUG_ENABLED
  ReentryGuard reentry(drain_depth_, "DrainWaiters");
#endif
  if (stopping_) {
    return;
  }
  auto pool_it = pools_.find(port);
  if (pool_it == pools_.end()) {
    return;
  }
  Pool& pool = pool_it->second;
  while (!pool.waiters.empty()) {
    uint64_t id = pool.waiters.front();
    pool.waiters.pop_front();
    PendingCall* call = FindCall(id);
    if (call == nullptr || !call->waiting) {
      continue;
    }
    call->waiting = false;
    TryAssignStream(call);
    // TryAssignStream can fail the attempt synchronously (dial or send
    // error) and complete a non-retryable call, freeing it — re-look the
    // call up by id instead of dereferencing the possibly-dead pointer.
    PendingCall* again = FindCall(id);
    if (again != nullptr && again->waiting) {
      return;  // no capacity after all: it re-queued, stop draining
    }
  }
}

void AsyncClientEngine::ScheduleReap() {
  if (reap_scheduled_ || stopping_) {
    return;
  }
  reap_scheduled_ = true;
  (void)reactor_.ScheduleAfter(options_.reap_interval_ms, [this] {
    reap_scheduled_ = false;
    ReapIdle();
    if (!stream_conns_.empty()) {
      ScheduleReap();
    }
  });
}

void AsyncClientEngine::ReapIdle() {
  HCS_ASSERT_LOOP(&reactor_);
  const int64_t now = SteadyNowMs();
  std::vector<StreamConn*> idle;
  for (const auto& [conn, owned] : stream_conns_) {
    if (!conn->connecting && conn->inflight.empty() && conn->outbuf.empty() &&
        now - conn->last_active_ms >= options_.idle_reap_ms) {
      idle.push_back(conn);
    }
  }
  for (StreamConn* conn : idle) {
    stat_stream_reaped_.fetch_add(1, std::memory_order_relaxed);
    RemoveStreamConn(conn);
  }
}

AsyncClientEngine* GlobalAsyncClientEngine() {
  // Function-local static: constructed on first async call, destroyed at
  // exit (which drains outstanding futures and joins the loop thread).
  static AsyncClientEngine engine;
  return &engine;
}

}  // namespace hcs
