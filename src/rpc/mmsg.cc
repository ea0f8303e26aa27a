#include "src/rpc/mmsg.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/rpc/context.h"

namespace hcs {

namespace {

struct UdpIoCounters {
  std::atomic<uint64_t> recv_syscalls{0};
  std::atomic<uint64_t> recv_datagrams{0};
  std::atomic<uint64_t> send_syscalls{0};
  std::atomic<uint64_t> send_datagrams{0};
  // One datagram per syscall: the snapshot adds these to both totals.
  std::atomic<uint64_t> exchange_recvs{0};
  std::atomic<uint64_t> exchange_sends{0};
};

UdpIoCounters& Counters() {
  static UdpIoCounters counters;
  return counters;
}

int RealRecvmmsg(int fd, mmsghdr* msgs, unsigned int vlen, int flags) {
  return recvmmsg(fd, msgs, vlen, flags, nullptr);
}

int RealSendmmsg(int fd, mmsghdr* msgs, unsigned int vlen, int flags) {
  return sendmmsg(fd, msgs, vlen, flags);
}

std::atomic<RecvmmsgFn> g_recvmmsg{&RealRecvmmsg};
std::atomic<SendmmsgFn> g_sendmmsg{&RealSendmmsg};
std::atomic<bool> g_mmsg_available{true};

// An errno meaning "this kernel/emulation layer does not do batched
// datagram syscalls" rather than "this call failed": degrade permanently.
bool IsUnsupportedErrno(int err) { return err == ENOSYS || err == EOPNOTSUPP; }

#if HCS_VIEW_DEBUG_ENABLED
// Partial-batch poisoning (DESIGN.md §13 rule R3): after a Recv lands
// `count` of `capacity` frames, everything the kernel did not fill is
// trapped — the tail of each received slot past its datagram, and every
// unreceived slot. A decoder that walks past frame.size, or dispatch code
// that touches a neighboring slot, hits poison instead of stale bytes.
// Only ASan needs the pass: Allocate unpoisoned the slots for the kernel
// to write. A canary build's unfilled bytes still carry the scribble,
// because the batch re-poisons exactly what it received before each
// recycle (UdpRecvBatch::Recv) — so it skips this O(capacity) memset.
void PoisonUnreceivedSpans(uint8_t* slots, size_t slot_bytes, const UdpFrame* frames,
                           int count, int capacity) {
  if (!DebugPoisonTraps()) {
    return;
  }
  for (int i = 0; i < count; ++i) {
    uint8_t* slot = slots + static_cast<size_t>(i) * slot_bytes;
    DebugPoisonSpan(slot + frames[i].size, slot_bytes - frames[i].size);
  }
  DebugPoisonSpan(slots + static_cast<size_t>(count) * slot_bytes,
                  static_cast<size_t>(capacity - count) * slot_bytes);
}
#endif

}  // namespace

int ResolveUdpBatchSize(int requested) {
  int batch = requested;
  if (batch <= 0) {
    batch = kDefaultUdpBatch;
    const char* env = std::getenv("HCS_UDP_BATCH");
    if (env != nullptr && env[0] != '\0') {
      char* end = nullptr;
      long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1) {
        batch = static_cast<int>(v);
      }
    }
  }
  if (batch < 1) {
    batch = 1;
  }
  if (batch > kMaxUdpBatch) {
    batch = kMaxUdpBatch;
  }
  return batch;
}

UdpIoSnapshot SnapshotUdpIoCounters() {
  UdpIoCounters& c = Counters();
  UdpIoSnapshot out;
  out.recv_syscalls = c.recv_syscalls.load(std::memory_order_relaxed);
  out.recv_datagrams = c.recv_datagrams.load(std::memory_order_relaxed);
  out.send_syscalls = c.send_syscalls.load(std::memory_order_relaxed);
  out.send_datagrams = c.send_datagrams.load(std::memory_order_relaxed);
  out.exchange_recv_syscalls = c.exchange_recvs.load(std::memory_order_relaxed);
  out.exchange_send_syscalls = c.exchange_sends.load(std::memory_order_relaxed);
  out.recv_syscalls += out.exchange_recv_syscalls;
  out.recv_datagrams += out.exchange_recv_syscalls;
  out.send_syscalls += out.exchange_send_syscalls;
  out.send_datagrams += out.exchange_send_syscalls;
  return out;
}

void CountUdpExchangeRecv() { Counters().exchange_recvs.fetch_add(1, std::memory_order_relaxed); }

void CountUdpExchangeSend() { Counters().exchange_sends.fetch_add(1, std::memory_order_relaxed); }

void EnableReceiveTimestamps(int fd) {
  int on = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &on, sizeof(on));
}

int64_t ReceiveTimestampNs(const msghdr& msg) {
  if (msg.msg_controllen == 0) {
    return 0;
  }
  for (const cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
       c = CMSG_NXTHDR(const_cast<msghdr*>(&msg), const_cast<cmsghdr*>(c))) {
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
      timespec ts{};
      std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
      return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
    }
  }
  return 0;
}

int64_t ArrivalSteadyMs(int64_t rx_realtime_ns) {
  const int64_t now_ms = SteadyNowMs();
  if (rx_realtime_ns <= 0) {
    return now_ms;
  }
  timespec now{};
  clock_gettime(CLOCK_REALTIME, &now);
  const int64_t age_ns =
      static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec - rx_realtime_ns;
  // A wall-clock step can make the age negative or absurd; then the read
  // time is the best estimate left.
  if (age_ns <= 0 || age_ns > int64_t{60} * 1000000000) {
    return now_ms;
  }
  return now_ms - age_ns / 1000000;
}

void SetMmsgSyscallsForTest(RecvmmsgFn recv_fn, SendmmsgFn send_fn) {
  g_recvmmsg.store(recv_fn != nullptr ? recv_fn : &RealRecvmmsg, std::memory_order_release);
  g_sendmmsg.store(send_fn != nullptr ? send_fn : &RealSendmmsg, std::memory_order_release);
}

bool MmsgAvailable() { return g_mmsg_available.load(std::memory_order_acquire); }

void ResetMmsgAvailabilityForTest() { g_mmsg_available.store(true, std::memory_order_release); }

UdpRecvBatch::UdpRecvBatch(int capacity, size_t slot_bytes)
    : capacity_(capacity < 1 ? 1 : capacity),
      slot_bytes_(slot_bytes < 1 ? 1 : slot_bytes),
      arena_(static_cast<size_t>(capacity_) * slot_bytes_),
      landed_(static_cast<size_t>(capacity_)),
      frames_(static_cast<size_t>(capacity_)),
      msgs_(static_cast<size_t>(capacity_)),
      iovs_(static_cast<size_t>(capacity_)),
      controls_(static_cast<size_t>(capacity_)) {}

int UdpRecvBatch::Recv(int fd) {
#if HCS_VIEW_DEBUG_ENABLED
  // Recycle. Only the bytes the last Recv landed can hold a payload, so
  // only they are poisoned again; the arena still bumps its generation (a
  // stale view still aborts) but skips re-poisoning every slot.
  for (int i = 0; i < landed_count_; ++i) {
    DebugPoisonSpan(slots_ + static_cast<size_t>(i) * slot_bytes_,
                    landed_[static_cast<size_t>(i)]);
  }
#endif
  landed_count_ = 0;
  arena_.ResetRepoisoned();
  uint8_t* slots = arena_.Allocate(static_cast<size_t>(capacity_) * slot_bytes_);
  slots_ = slots;

  if (MmsgAvailable()) {
    for (int i = 0; i < capacity_; ++i) {
      UdpFrame& f = frames_[static_cast<size_t>(i)];
      f.peer = sockaddr_in{};
      f.truncated = false;
      iovs_[static_cast<size_t>(i)].iov_base = slots + static_cast<size_t>(i) * slot_bytes_;
      iovs_[static_cast<size_t>(i)].iov_len = slot_bytes_;
      mmsghdr& m = msgs_[static_cast<size_t>(i)];
      std::memset(&m, 0, sizeof(m));
      m.msg_hdr.msg_name = &f.peer;
      m.msg_hdr.msg_namelen = sizeof(f.peer);
      m.msg_hdr.msg_iov = &iovs_[static_cast<size_t>(i)];
      m.msg_hdr.msg_iovlen = 1;
      // Zeroed so a control block nobody filled parses as empty.
      ReceiveControl& control = controls_[static_cast<size_t>(i)];
      std::memset(control.bytes, 0, sizeof(control.bytes));
      m.msg_hdr.msg_control = control.bytes;
      m.msg_hdr.msg_controllen = sizeof(control.bytes);
    }
    RecvmmsgFn recv_fn = g_recvmmsg.load(std::memory_order_acquire);
    int n;
    do {
      n = recv_fn(fd, msgs_.data(), static_cast<unsigned int>(capacity_), MSG_DONTWAIT);
    } while (n < 0 && errno == EINTR);
    if (n >= 0) {
      Counters().recv_syscalls.fetch_add(1, std::memory_order_relaxed);
      Counters().recv_datagrams.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      for (int i = 0; i < n; ++i) {
        UdpFrame& f = frames_[static_cast<size_t>(i)];
        const mmsghdr& m = msgs_[static_cast<size_t>(i)];
        f.peer_len = m.msg_hdr.msg_namelen;
        f.data = slots + static_cast<size_t>(i) * slot_bytes_;
        f.size = m.msg_len;
        f.truncated = (m.msg_hdr.msg_flags & MSG_TRUNC) != 0;
        f.rx_realtime_ns = ReceiveTimestampNs(m.msg_hdr);
        landed_[static_cast<size_t>(i)] = std::min(f.size, slot_bytes_);
      }
      landed_count_ = n;
#if HCS_VIEW_DEBUG_ENABLED
      PoisonUnreceivedSpans(slots, slot_bytes_, frames_.data(), n, capacity_);
#endif
      return n;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return 0;
    }
    if (!IsUnsupportedErrno(errno)) {
      return -1;
    }
    g_mmsg_available.store(false, std::memory_order_release);
    // Fall through to the single-shot loop below.
  }

  // Single-shot fallback: the same frames, one nonblocking recvfrom per
  // datagram; a drained queue ends the batch.
  int count = 0;
  while (count < capacity_) {
    UdpFrame& f = frames_[static_cast<size_t>(count)];
    f.peer = sockaddr_in{};
    f.peer_len = sizeof(f.peer);
    f.data = slots + static_cast<size_t>(count) * slot_bytes_;
    f.rx_realtime_ns = 0;
    ssize_t n = recvfrom(fd, f.data, slot_bytes_, MSG_DONTWAIT | MSG_TRUNC,
                         reinterpret_cast<sockaddr*>(&f.peer), &f.peer_len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      return count > 0 ? count : -1;
    }
    Counters().recv_syscalls.fetch_add(1, std::memory_order_relaxed);
    Counters().recv_datagrams.fetch_add(1, std::memory_order_relaxed);
    // With MSG_TRUNC, recvfrom reports the datagram's full length even when
    // the slot cut it short — the same signal recvmmsg gives via msg_flags.
    f.truncated = static_cast<size_t>(n) > slot_bytes_;
    f.size = f.truncated ? slot_bytes_ : static_cast<size_t>(n);
    landed_[static_cast<size_t>(count)] = f.size;
    ++count;
    landed_count_ = count;
  }
#if HCS_VIEW_DEBUG_ENABLED
  PoisonUnreceivedSpans(slots, slot_bytes_, frames_.data(), count, capacity_);
#endif
  return count;
}

size_t SendReplies(int fd, std::vector<UdpReply>& replies) {
  if (replies.empty()) {
    return 0;
  }

  if (MmsgAvailable()) {
    // Per-thread headers, grown to the largest batch this thread has sent:
    // a steady-state flush allocates nothing.
    thread_local std::vector<mmsghdr> msgs;
    thread_local std::vector<iovec> iovs;
    msgs.resize(replies.size());
    iovs.resize(replies.size());
    for (size_t i = 0; i < replies.size(); ++i) {
      iovs[i].iov_base = replies[i].payload.data();
      iovs[i].iov_len = replies[i].payload.size();
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_name = &replies[i].peer;
      msgs[i].msg_hdr.msg_namelen = replies[i].peer_len;
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    size_t sent = 0;
    SendmmsgFn send_fn = g_sendmmsg.load(std::memory_order_acquire);
    while (sent < replies.size()) {
      int n = send_fn(fd, msgs.data() + sent, static_cast<unsigned int>(replies.size() - sent),
                      MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (IsUnsupportedErrno(errno)) {
          g_mmsg_available.store(false, std::memory_order_release);
          break;  // resume from `sent` on the single-shot path below
        }
        // EAGAIN or a hard error mid-batch: abandon the remainder (UDP
        // drop semantics); the caller accounts for the shortfall.
        return sent;
      }
      Counters().send_syscalls.fetch_add(1, std::memory_order_relaxed);
      Counters().send_datagrams.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      sent += static_cast<size_t>(n);
    }
    if (sent == replies.size()) {
      return sent;
    }
    // Unsupported: finish the batch single-shot, starting where sendmmsg
    // left off.
    size_t done = sent;
    for (size_t i = done; i < replies.size(); ++i) {
      if (sendto(fd, replies[i].payload.data(), replies[i].payload.size(), 0,
                 reinterpret_cast<const sockaddr*>(&replies[i].peer), replies[i].peer_len) < 0) {
        return done;
      }
      Counters().send_syscalls.fetch_add(1, std::memory_order_relaxed);
      Counters().send_datagrams.fetch_add(1, std::memory_order_relaxed);
      ++done;
    }
    return done;
  }

  size_t done = 0;
  for (const UdpReply& reply : replies) {
    ssize_t n;
    do {
      n = sendto(fd, reply.payload.data(), reply.payload.size(), 0,
                 reinterpret_cast<const sockaddr*>(&reply.peer), reply.peer_len);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      return done;
    }
    Counters().send_syscalls.fetch_add(1, std::memory_order_relaxed);
    Counters().send_datagrams.fetch_add(1, std::memory_order_relaxed);
    ++done;
  }
  return done;
}

}  // namespace hcs
