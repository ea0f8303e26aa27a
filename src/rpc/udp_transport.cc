#include "src/rpc/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/strings.h"
#include "src/rpc/async_client.h"
#include "src/rpc/context.h"
#include "src/rpc/control.h"
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

}  // namespace

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

  MutexLock lock(mutex_);
  HCS_ASSIGN_OR_RETURN(Reactor * reactor, EnsureReactor());
  ReactorEndpointOptions options;
  options.concurrent = concurrent;
  options.port = bound_port;
  HCS_RETURN_IF_ERROR(reactor->AddUdpEndpoint(fd, service, options));
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
  // Opens the socket if a failed exchange abandoned it (or none exists).
  Status Open() {
    if (fd < 0) {
      fd = socket(AF_INET, SOCK_DGRAM, 0);
      if (fd < 0) {
        return UnavailableError(StrFormat("socket(): %s", std::strerror(errno)));
      }
    }
    return Status::Ok();
  }
};

thread_local ClientSocket t_client_socket;

Status SendDatagram(ClientSocket& sock, uint16_t port, const Bytes& message) {
  if (message.size() > kMaxDatagram) {
    return ResourceExhaustedError("message exceeds one datagram");
  }
  sockaddr_in addr = LoopbackAddress(port);
  if (sendto(sock.fd, message.data(), message.size(), 0, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return UnavailableError(StrFormat("sendto(): %s", std::strerror(errno)));
  }
  CountUdpExchangeSend();
  return Status::Ok();
}

}  // namespace

Result<BytesView> UdpTransport::Exchange(uint16_t port, const Bytes& message,
                                         int64_t timeout_ms, const ReplyMatcher* reply) {
  if (message.size() > kMaxDatagram) {
    return ResourceExhaustedError("message exceeds one datagram");
  }
  ClientSocket& sock = t_client_socket;
  HCS_RETURN_IF_ERROR(sock.Open());
  if (timeout_ms < 1) {
    timeout_ms = 1;  // 0 would mean "block forever" to SO_RCVTIMEO
  }
  sock.SetTimeout(timeout_ms);

  Status sent = SendDatagram(sock, port, message);
  if (!sent.ok()) {
    sock.Abandon();
    return sent;
  }

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
    g_client_call_counters.udp_unmatched.fetch_add(1, std::memory_order_relaxed);
    int64_t left_ms = deadline_ms - SteadyNowMs();
    if (left_ms <= 0) {
      sock.Abandon();
      return TimeoutError(StrFormat("no response from 127.0.0.1:%u within %lld ms", port,
                                    static_cast<long long>(timeout_ms)));
    }
    sock.SetTimeout(left_ms);
  }
}

Status UdpTransport::RoundTripWave(const std::string& to_host, uint16_t port,
                                   WaveCalls& calls) {
  (void)to_host;  // everything lives on 127.0.0.1
  ClientSocket& sock = t_client_socket;
  HCS_RETURN_IF_ERROR(sock.Open());
  Status status = Status::Ok();
  std::vector<const Bytes*> sends;
  int64_t budget_ms = 0;
  bool gave_up = false;  // the wave ended with calls unanswered
  while (status.ok()) {
    const bool unanswered = calls.pending();
    if (!calls.NextRound(&sends, &budget_ms)) {
      gave_up = unanswered;
      break;
    }
    // The whole round goes out before any reply is read.
    for (const Bytes* message : sends) {
      status = SendDatagram(sock, port, *message);
      if (!status.ok()) {
        break;
      }
    }
    const int64_t wait_ms = std::max<int64_t>(
        1, budget_ms > 0 ? std::min<int64_t>(budget_ms, timeout_ms_) : timeout_ms_);
    const int64_t deadline_ms = SteadyNowMs() + wait_ms;
    while (status.ok() && calls.pending()) {
      int64_t left_ms = deadline_ms - SteadyNowMs();
      if (left_ms <= 0) {
        break;  // the round's wait ran out; the next round re-sends
      }
      sock.SetTimeout(left_ms);
      ssize_t n = recv(sock.fd, sock.buffer.data(), sock.buffer.size(), 0);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          status = UnavailableError(StrFormat("recv(): %s", std::strerror(errno)));
        }
        break;
      }
      CountUdpExchangeRecv();
      if (!calls.Accept(sock.buffer.data(), static_cast<size_t>(n))) {
        g_client_call_counters.udp_unmatched.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // A call that went unanswered may still be answered late: as in Exchange,
  // the socket goes rather than hold that reply for the next exchange.
  if (!status.ok() || gave_up) {
    sock.Abandon();
  }
  return status;
}

}  // namespace hcs
