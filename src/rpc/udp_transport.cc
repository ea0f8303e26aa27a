#include "src/rpc/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/rpc/context.h"
#include "src/rpc/control.h"
#include "src/rpc/fault.h"
#include "src/rpc/mmsg.h"

namespace hcs {

namespace {

// Large enough for any message in this tree; real 1987 UDP RPC had similar
// single-datagram limits.
constexpr size_t kMaxDatagram = 64 * 1024;

sockaddr_in LoopbackAddress(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// Creates, binds, and reports a loopback socket of the given type.
Result<int> BindLoopback(int type, uint16_t port, uint16_t* bound_port_out) {
  int fd = socket(AF_INET, type, 0);
  if (fd < 0) {
    return UnavailableError(StrFormat("socket(): %s", std::strerror(errno)));
  }
  sockaddr_in addr = LoopbackAddress(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int saved = errno;
    close(fd);
    return UnavailableError(StrFormat("bind(127.0.0.1:%u): %s", port, std::strerror(saved)));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    int saved = errno;
    close(fd);
    return UnavailableError(StrFormat("getsockname(): %s", std::strerror(saved)));
  }
  *bound_port_out = ntohs(addr.sin_port);
  return fd;
}

// One serve loop: receive, dispatch, answer. Exits when `stop` is raised
// (StopAll wakes the blocking recvfrom with a zero-byte datagram); the
// owner closes the socket only after joining this thread. `dropped` counts
// this endpoint's discarded messages (garbled requests, undeliverable
// replies, injector-discarded inbound traffic).
void ServeLoop(int fd, uint16_t port, SimService* service, std::atomic<bool>* stop,
               std::atomic<uint64_t>* dropped) {
  std::vector<uint8_t> buffer(kMaxDatagram);
  while (true) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    ssize_t n = recvfrom(fd, buffer.data(), buffer.size(), 0,
                         reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (stop->load(std::memory_order_acquire)) {
      return;
    }
    if (n < 0) {
      // Transient error: stop serving.
      return;
    }
    CountUdpRecv();
    Bytes request(buffer.begin(), buffer.begin() + n);
    Status admitted = FilterInbound(GlobalFaultInjector(), port, &request);
    if (!admitted.ok()) {
      dropped->fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Result<Bytes> response = service->HandleMessage(request);
    if (!response.ok()) {
      // Transport-level failure (garbled request): drop it, as UDP servers
      // do; the client times out and reports kTimeout.
      dropped->fetch_add(1, std::memory_order_relaxed);
      HCS_LOG(Debug) << "udp server dropping garbled request: " << response.status();
      continue;
    }
    if (sendto(fd, response->data(), response->size(), 0,
               reinterpret_cast<sockaddr*>(&peer), peer_len) < 0) {
      dropped->fetch_add(1, std::memory_order_relaxed);
    } else {
      CountUdpSend();
    }
  }
}

// Batched serve loop: one recvmmsg blocks for the first datagram and sweeps
// up whatever else is queued; replies for the whole batch leave in one
// sendmmsg. Per-frame semantics match ServeLoop exactly — each frame gets
// its own fault decision, a zero-byte frame still runs through filter and
// dispatch (it garbles and counts a drop, and doubles as the stop wake),
// and an unsendable reply is a drop.
void ServeLoopBatched(int fd, uint16_t port, SimService* service, std::atomic<bool>* stop,
                      std::atomic<uint64_t>* dropped, int batch, size_t slot_bytes) {
  UdpRecvBatch recv_batch(batch, slot_bytes);
  // Debug builds stamp every view built over the batch arena with its
  // generation; a view that survives past the next Recv (which Resets the
  // arena) aborts on access instead of reading recycled bytes.
  ScopedArenaViewBinding view_binding(recv_batch.debug_arena());
  std::vector<UdpReply> replies;
  while (true) {
    int count = recv_batch.Recv(fd, /*wait_for_one=*/true);
    if (stop->load(std::memory_order_acquire)) {
      return;
    }
    if (count < 0) {
      // Transient error: stop serving.
      return;
    }
    replies.clear();
    for (int i = 0; i < count; ++i) {
      UdpFrame& frame = recv_batch.frame(i);
      if (frame.truncated) {
        // The kernel cut the datagram to the slot size; it would decode as
        // garbage, so drop it whole.
        dropped->fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Status admitted = FilterInboundFrame(GlobalFaultInjector(), port, frame.data, frame.size);
      if (!admitted.ok()) {
        dropped->fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Result<Bytes> response = service->HandleFrame(frame.data, frame.size);
      if (!response.ok()) {
        dropped->fetch_add(1, std::memory_order_relaxed);
        HCS_LOG(Debug) << "udp server dropping garbled request: " << response.status();
        continue;
      }
      UdpReply reply;
      reply.peer = frame.peer;
      reply.peer_len = frame.peer_len;
      reply.payload = std::move(response).value();
      replies.push_back(std::move(reply));
    }
    size_t sent = SendReplies(fd, replies);
    if (sent < replies.size()) {
      dropped->fetch_add(static_cast<uint64_t>(replies.size() - sent),
                         std::memory_order_relaxed);
    }
  }
}

}  // namespace

ServeMode DefaultServeMode() {
  const char* env = std::getenv("HCS_REACTOR");
  if (env != nullptr && env[0] != '\0') {
    if (env[0] == '1' || env[0] == 'y' || env[0] == 'Y' || env[0] == 't' || env[0] == 'T' ||
        (env[0] == 'o' && env[1] == 'n')) {
      return ServeMode::kReactor;
    }
    return ServeMode::kThreadPerEndpoint;
  }
#ifdef HCS_REACTOR_DEFAULT
  return ServeMode::kReactor;
#else
  return ServeMode::kThreadPerEndpoint;
#endif
}

Result<Reactor*> UdpServerHost::EnsureReactor() {
  if (reactor_ == nullptr) {
    ReactorOptions options;
    options.workers = reactor_workers_;
    options.udp_batch = udp_batch_;
    options.udp_slot_bytes = udp_slot_bytes_;
    reactor_ = std::make_unique<Reactor>(options);
  }
  HCS_RETURN_IF_ERROR(reactor_->Start());
  return reactor_.get();
}

Result<uint16_t> UdpServerHost::Serve(SimService* service, uint16_t port) {
  return ServeUdp(service, port, /*concurrent=*/false);
}

Result<uint16_t> UdpServerHost::ServeConcurrent(SimService* service, uint16_t port) {
  return ServeUdp(service, port, /*concurrent=*/true);
}

Result<uint16_t> UdpServerHost::ServeUdp(SimService* service, uint16_t port, bool concurrent) {
  uint16_t bound_port = 0;
  HCS_ASSIGN_OR_RETURN(int fd, BindLoopback(SOCK_DGRAM, port, &bound_port));

  if (mode_ == ServeMode::kReactor) {
    MutexLock lock(mutex_);
    HCS_ASSIGN_OR_RETURN(Reactor * reactor, EnsureReactor());
    ReactorEndpointOptions options;
    options.concurrent = concurrent;
    options.port = bound_port;
    HCS_RETURN_IF_ERROR(reactor->AddUdpEndpoint(fd, service, options));
    return bound_port;
  }

  Endpoint endpoint;
  endpoint.fd = fd;
  endpoint.port = bound_port;
  endpoint.stop = std::make_unique<std::atomic<bool>>(false);
  endpoint.dropped = std::make_unique<std::atomic<uint64_t>>(0);
  int batch = ResolveUdpBatchSize(udp_batch_);
  if (batch > 1) {
    size_t slot_bytes = udp_slot_bytes_ != 0 ? udp_slot_bytes_ : kMaxDatagram;
    endpoint.thread =
        std::thread(ServeLoopBatched, fd, bound_port, service, endpoint.stop.get(),
                    endpoint.dropped.get(), batch, slot_bytes);
  } else {
    endpoint.thread = std::thread(ServeLoop, fd, bound_port, service, endpoint.stop.get(),
                                  endpoint.dropped.get());
  }

  MutexLock lock(mutex_);
  endpoints_.push_back(std::move(endpoint));
  return bound_port;
}

Result<uint16_t> UdpServerHost::ServeStream(SimService* service, uint16_t port) {
  return ServeStreamInternal(service, port, /*concurrent=*/false);
}

Result<uint16_t> UdpServerHost::ServeStreamConcurrent(SimService* service, uint16_t port) {
  return ServeStreamInternal(service, port, /*concurrent=*/true);
}

Result<uint16_t> UdpServerHost::ServeStreamInternal(SimService* service, uint16_t port,
                                                    bool concurrent) {
  uint16_t bound_port = 0;
  HCS_ASSIGN_OR_RETURN(int fd, BindLoopback(SOCK_STREAM, port, &bound_port));
  if (listen(fd, 64) < 0) {
    int saved = errno;
    close(fd);
    return UnavailableError(StrFormat("listen(): %s", std::strerror(saved)));
  }
  MutexLock lock(mutex_);
  HCS_ASSIGN_OR_RETURN(Reactor * reactor, EnsureReactor());
  ReactorEndpointOptions options;
  options.concurrent = concurrent;
  options.port = bound_port;
  HCS_RETURN_IF_ERROR(reactor->AddStreamListener(fd, service, options));
  return bound_port;
}

std::map<uint16_t, uint64_t> UdpServerHost::dropped_by_endpoint() const {
  MutexLock lock(mutex_);
  std::map<uint16_t, uint64_t> out;
  for (const Endpoint& endpoint : endpoints_) {
    out[endpoint.port] += endpoint.dropped->load(std::memory_order_relaxed);
  }
  if (reactor_ != nullptr) {
    for (const ReactorEndpointStats& stats : reactor_->endpoint_stats()) {
      out[stats.port] += stats.dropped;
    }
  }
  return out;
}

void UdpServerHost::StopAll() {
  MutexLock lock(mutex_);
  if (reactor_ != nullptr) {
    reactor_->Stop();  // graceful drain; closes the endpoint fds it owns
  }
  for (Endpoint& endpoint : endpoints_) {
    // Raise the stop flag, then wake the blocking recvfrom with a zero-byte
    // datagram; the loop notices the flag and exits. The socket is closed
    // only after the join — closing a live fd out from under recvfrom races
    // with fd reuse.
    endpoint.stop->store(true, std::memory_order_release);
    int wake = socket(AF_INET, SOCK_DGRAM, 0);
    if (wake >= 0) {
      sockaddr_in addr = LoopbackAddress(endpoint.port);
      (void)sendto(wake, nullptr, 0, 0, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      close(wake);
    }
    if (endpoint.thread.joinable()) {
      endpoint.thread.join();
    }
    if (endpoint.fd >= 0) {
      close(endpoint.fd);
      endpoint.fd = -1;
    }
  }
  endpoints_.clear();
}

Result<Bytes> UdpTransport::RoundTrip(const std::string& from_host,
                                      const std::string& to_host, uint16_t port,
                                      const Bytes& message) {
  (void)from_host;
  (void)to_host;  // everything lives on 127.0.0.1
  HCS_ASSIGN_OR_RETURN(BytesView reply, Exchange(port, message, timeout_ms_, nullptr));
  return reply.ToBytes();
}

Result<Bytes> UdpTransport::RoundTripWithBudget(const std::string& from_host,
                                                const std::string& to_host, uint16_t port,
                                                const Bytes& message, int64_t budget_ms) {
  (void)from_host;
  (void)to_host;
  int64_t timeout = budget_ms > 0 ? std::min<int64_t>(budget_ms, timeout_ms_) : timeout_ms_;
  HCS_ASSIGN_OR_RETURN(BytesView reply, Exchange(port, message, timeout, nullptr));
  return reply.ToBytes();
}

Result<BytesView> UdpTransport::RoundTripMatching(const std::string& from_host,
                                                  const std::string& to_host, uint16_t port,
                                                  const Bytes& message, int64_t budget_ms,
                                                  const ReplyMatcher& reply, Bytes* storage) {
  (void)from_host;
  (void)to_host;
  (void)storage;
  int64_t timeout = budget_ms > 0 ? std::min<int64_t>(budget_ms, timeout_ms_) : timeout_ms_;
  return Exchange(port, message, timeout, &reply);
}

namespace {

// Thread-local client socket, reused across exchanges: the socket()/close()
// pair per call was two syscalls and a port allocation on the client hot
// path. On ANY failed exchange (send error, timeout, recv error) the socket
// is closed instead of reused — a reply that arrives after its exchange
// gave up must never sit in the queue to be read as the answer to the next
// call (the xid check upstream would reject it as kProtocolError, turning
// an injected drop into the wrong failure kind). A stray that still gets
// queued, such as a duplicate of an answered reply, is dropped by the
// next exchange's ReplyMatcher.
struct ClientSocket {
  int fd = -1;
  int64_t timeout_ms = 0;  // the SO_RCVTIMEO last set on `fd` (0: none yet)
  // Where replies land. Exchange hands out views of it, so the thread's
  // next exchange (a nested call's included) overwrites what they show.
  Bytes buffer = Bytes(kMaxDatagram);
  ~ClientSocket() {
    if (fd >= 0) {
      close(fd);
    }
  }
  void SetTimeout(int64_t ms) {
    if (ms == timeout_ms) {
      return;  // budgeted calls mostly repeat the same first-attempt budget
    }
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    timeout_ms = ms;
  }
  void Abandon() {
    if (fd >= 0) {
      close(fd);
      fd = -1;
      timeout_ms = 0;
    }
  }
};

}  // namespace

Result<BytesView> UdpTransport::Exchange(uint16_t port, const Bytes& message,
                                         int64_t timeout_ms, const ReplyMatcher* reply) {
  if (message.size() > kMaxDatagram) {
    return ResourceExhaustedError("message exceeds one datagram");
  }

  thread_local ClientSocket sock;
  if (sock.fd < 0) {
    sock.fd = socket(AF_INET, SOCK_DGRAM, 0);
    if (sock.fd < 0) {
      return UnavailableError(StrFormat("socket(): %s", std::strerror(errno)));
    }
  }
  if (timeout_ms < 1) {
    timeout_ms = 1;  // 0 would mean "block forever" to SO_RCVTIMEO
  }
  sock.SetTimeout(timeout_ms);

  sockaddr_in addr = LoopbackAddress(port);
  if (sendto(sock.fd, message.data(), message.size(), 0, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    int saved = errno;
    sock.Abandon();
    return UnavailableError(StrFormat("sendto(): %s", std::strerror(saved)));
  }
  CountUdpExchangeSend();

  Bytes& buffer = sock.buffer;
  const int64_t deadline_ms = reply != nullptr ? SteadyNowMs() + timeout_ms : 0;
  while (true) {
    ssize_t n = recv(sock.fd, buffer.data(), buffer.size(), 0);
    if (n < 0) {
      int saved = errno;
      sock.Abandon();
      if (saved == EAGAIN || saved == EWOULDBLOCK) {
        return TimeoutError(StrFormat("no response from 127.0.0.1:%u within %lld ms", port,
                                      static_cast<long long>(timeout_ms)));
      }
      return UnavailableError(StrFormat("recv(): %s", std::strerror(saved)));
    }
    CountUdpExchangeRecv();
    if (reply == nullptr || reply->Matches(buffer.data(), static_cast<size_t>(n))) {
      return BytesView(buffer.data(), static_cast<size_t>(n));
    }
    // A stray reply to an earlier exchange: drop it and wait out the rest
    // of this exchange's timeout.
    int64_t left_ms = deadline_ms - SteadyNowMs();
    if (left_ms <= 0) {
      sock.Abandon();
      return TimeoutError(StrFormat("no response from 127.0.0.1:%u within %lld ms", port,
                                    static_cast<long long>(timeout_ms)));
    }
    sock.SetTimeout(left_ms);
  }
}

}  // namespace hcs
