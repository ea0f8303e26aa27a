#include "src/rpc/stream_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/strings.h"
#include "src/rpc/context.h"
#include "src/rpc/reactor.h"  // kMaxStreamFrame, SetNonBlocking

namespace hcs {

std::string StreamNetTransport::Key(const std::string& from_host, const std::string& to_host,
                                    uint16_t port) {
  return AsciiToLower(from_host) + ">" + AsciiToLower(to_host) + ":" + std::to_string(port);
}

Result<Bytes> StreamNetTransport::RoundTrip(const std::string& from_host,
                                            const std::string& to_host, uint16_t port,
                                            const Bytes& message) {
  std::string key = Key(from_host, to_host, port);
  if (established_.count(key) == 0) {
    // Connection establishment: a handshake round trip before any data
    // moves (SYN/SYN-ACK/ACK, or the SPP equivalent).
    bool same_host = EqualsIgnoreCase(from_host, to_host);
    world_->ChargeMs(world_->costs().NetRttMs(same_host, 0, 0) +
                     world_->costs().tcp_connect_cpu_ms);
    ++connects_;
    established_.insert(key);
  }
  Result<Bytes> response = world_->RoundTrip(from_host, to_host, port, message);
  if (!response.ok() && response.status().code() == StatusCode::kUnavailable) {
    // Peer gone: the connection is dead too.
    established_.erase(key);
  }
  return response;
}

void StreamNetTransport::CloseConnection(const std::string& from_host,
                                         const std::string& to_host, uint16_t port) {
  established_.erase(Key(from_host, to_host, port));
}

// ---------------------------------------------------------------------------
// TcpStreamTransport: real sockets, nonblocking IO, length-prefixed frames.
// ---------------------------------------------------------------------------

namespace {

// Blocks until `fd` is ready for `events` or the deadline passes.
Status WaitReady(int fd, short events, int64_t deadline_ms, const char* op) {
  while (true) {
    int64_t remaining = deadline_ms - SteadyNowMs();
    if (remaining <= 0) {
      return TimeoutError(StrFormat("stream %s timed out", op));
    }
    pollfd pfd{fd, events, 0};
    int n = poll(&pfd, 1, static_cast<int>(std::min<int64_t>(remaining, 1000)));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return UnavailableError(StrFormat("poll(): %s", std::strerror(errno)));
    }
    if (n > 0) {
      return Status::Ok();
    }
  }
}

// Writes all of [data, data+size), looping on EINTR and polling through
// EAGAIN — a short write is a normal event on a nonblocking socket, not an
// error.
Status WriteFull(int fd, const uint8_t* data, size_t size, int64_t deadline_ms) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        HCS_RETURN_IF_ERROR(WaitReady(fd, POLLOUT, deadline_ms, "write"));
        continue;
      }
      return UnavailableError(StrFormat("send(): %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// Reads exactly `size` bytes, reassembling arbitrarily small chunks (the
// dribbling-peer case) and polling through EAGAIN.
Status ReadFull(int fd, uint8_t* data, size_t size, int64_t deadline_ms) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        HCS_RETURN_IF_ERROR(WaitReady(fd, POLLIN, deadline_ms, "read"));
        continue;
      }
      return UnavailableError(StrFormat("recv(): %s", std::strerror(errno)));
    }
    if (n == 0) {
      return UnavailableError("stream peer closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

TcpStreamTransport::~TcpStreamTransport() { CloseAll(); }

void TcpStreamTransport::CloseAll() {
  MutexLock lock(mutex_);
  for (auto& [port, fds] : idle_) {
    for (int fd : fds) {
      close(fd);
    }
  }
  idle_.clear();
}

uint64_t TcpStreamTransport::connects() const {
  MutexLock lock(mutex_);
  return connects_;
}

Result<int> TcpStreamTransport::AcquireConnection(uint16_t port, int64_t deadline_ms) {
  {
    MutexLock lock(mutex_);
    auto it = idle_.find(port);
    if (it != idle_.end() && !it->second.empty()) {
      int fd = it->second.back();
      it->second.pop_back();
      return fd;
    }
  }
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return UnavailableError(StrFormat("socket(): %s", std::strerror(errno)));
  }
  HCS_RETURN_IF_ERROR(SetNonBlocking(fd));
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    int saved = errno;
    close(fd);
    return UnavailableError(StrFormat("connect(127.0.0.1:%u): %s", port, std::strerror(saved)));
  }
  Status ready = WaitReady(fd, POLLOUT, deadline_ms, "connect");
  if (!ready.ok()) {
    close(fd);
    return ready;
  }
  int error = 0;
  socklen_t error_len = sizeof(error);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &error_len) < 0 || error != 0) {
    close(fd);
    return UnavailableError(
        StrFormat("connect(127.0.0.1:%u): %s", port, std::strerror(error != 0 ? error : errno)));
  }
  MutexLock lock(mutex_);
  ++connects_;
  return fd;
}

void TcpStreamTransport::ReleaseConnection(uint16_t port, int fd) {
  MutexLock lock(mutex_);
  idle_[port].push_back(fd);
}

Result<Bytes> TcpStreamTransport::RoundTrip(const std::string& from_host,
                                            const std::string& to_host, uint16_t port,
                                            const Bytes& message) {
  (void)from_host;
  (void)to_host;  // everything lives on 127.0.0.1
  return Exchange(port, message, timeout_ms_, nullptr);
}

Result<Bytes> TcpStreamTransport::RoundTripWithBudget(const std::string& from_host,
                                                      const std::string& to_host, uint16_t port,
                                                      const Bytes& message, int64_t budget_ms) {
  (void)from_host;
  (void)to_host;
  int64_t timeout = budget_ms > 0 ? std::min<int64_t>(budget_ms, timeout_ms_) : timeout_ms_;
  return Exchange(port, message, timeout, nullptr);
}

Result<BytesView> TcpStreamTransport::RoundTripMatching(const std::string& from_host,
                                                        const std::string& to_host, uint16_t port,
                                                        const Bytes& message, int64_t budget_ms,
                                                        const ReplyMatcher& reply,
                                                        Bytes* storage) {
  (void)from_host;
  (void)to_host;
  int64_t timeout = budget_ms > 0 ? std::min<int64_t>(budget_ms, timeout_ms_) : timeout_ms_;
  Result<Bytes> response = Exchange(port, message, timeout, &reply);
  if (!response.ok()) {
    return response.status();
  }
  *storage = std::move(response).value();
  return BytesView(*storage);
}

Result<Bytes> TcpStreamTransport::Exchange(uint16_t port, const Bytes& message,
                                           int64_t timeout_ms, const ReplyMatcher* reply) {
  if (message.size() > kMaxStreamFrame) {
    return ResourceExhaustedError("message exceeds the stream frame cap");
  }
  const int64_t deadline_ms = SteadyNowMs() + std::max<int64_t>(1, timeout_ms);
  HCS_ASSIGN_OR_RETURN(int fd, AcquireConnection(port, deadline_ms));

  // On any IO failure the connection's stream state is unknown — close it
  // rather than pooling it; the next call dials fresh.
  auto fail = [&](Status status) -> Result<Bytes> {
    close(fd);
    return status;
  };

  uint8_t header[4] = {static_cast<uint8_t>(message.size() >> 24),
                       static_cast<uint8_t>(message.size() >> 16),
                       static_cast<uint8_t>(message.size() >> 8),
                       static_cast<uint8_t>(message.size())};
  Status io = WriteFull(fd, header, sizeof(header), deadline_ms);
  if (io.ok()) {
    io = WriteFull(fd, message.data(), message.size(), deadline_ms);
  }
  if (!io.ok()) {
    return fail(io);
  }

  // A frame the matcher rejects answers an earlier call on this pooled
  // connection (a duplicated reply); drop it and read the next.
  Bytes frame;
  do {
    uint8_t frame_header[4];
    io = ReadFull(fd, frame_header, sizeof(frame_header), deadline_ms);
    if (!io.ok()) {
      return fail(io);
    }
    uint32_t frame_len = (static_cast<uint32_t>(frame_header[0]) << 24) |
                         (static_cast<uint32_t>(frame_header[1]) << 16) |
                         (static_cast<uint32_t>(frame_header[2]) << 8) |
                         static_cast<uint32_t>(frame_header[3]);
    // Framing assertion: a length beyond the cap means the stream is
    // desynchronized or the peer is broken; the connection is unusable.
    if (frame_len > kMaxStreamFrame) {
      return fail(ProtocolError(
          StrFormat("stream frame length %u exceeds cap %zu", frame_len, kMaxStreamFrame)));
    }
    frame.resize(frame_len);
    io = ReadFull(fd, frame.data(), frame.size(), deadline_ms);
    if (!io.ok()) {
      return fail(io);
    }
  } while (reply != nullptr && !reply->Matches(frame.data(), frame.size()));
  ReleaseConnection(port, fd);
  return frame;
}

}  // namespace hcs

