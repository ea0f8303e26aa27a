// Batched UDP I/O: recvmmsg/sendmmsg wrappers shared by the reactor's UDP
// endpoints and the async client's UDP channel. One syscall
// moves up to a batch of datagrams in either direction; each received frame
// is a view into the batch's arena (src/common/arena.h), so decode and
// dispatch run without a per-datagram copy.
//
// Availability and fallback. The first recvmmsg/sendmmsg that fails with
// ENOSYS (or EINVAL from an emulation layer that rejects the vectors) flips
// a process-global flag and every subsequent batch call degrades to a
// recvfrom/sendto loop with identical semantics — same frames, same order,
// same partial-completion accounting — so the callers never need a second
// code path.
//
// Partial completion is the contract, not an error: Recv returns however
// many datagrams were ready, SendReplies returns how many datagrams the
// kernel accepted. Callers MUST consume those counts
// (tools/lint_failpaths.py enforces this for raw recvmmsg/sendmmsg calls).
//
// Tests inject fake syscalls (SetMmsgSyscallsForTest) to exercise ENOSYS
// fallback, partial sends, and EAGAIN mid-batch deterministically.

#ifndef HCS_SRC_RPC_MMSG_H_
#define HCS_SRC_RPC_MMSG_H_

#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bytes.h"

namespace hcs {

// Hard cap on one batch; ResolveUdpBatchSize clamps to it.
constexpr int kMaxUdpBatch = 64;
// Default batch when neither an explicit size nor HCS_UDP_BATCH is given.
constexpr int kDefaultUdpBatch = 16;

// Resolves a requested batch size: > 0 wins (clamped to [1, kMaxUdpBatch]);
// 0 consults the HCS_UDP_BATCH environment variable, else kDefaultUdpBatch.
// A result of 1 reads one datagram per Recv.
int ResolveUdpBatchSize(int requested);

// --- Syscall counters (relaxed; bench_runner derives syscalls/req) ---------
struct UdpIoSnapshot {
  uint64_t recv_syscalls = 0;
  uint64_t recv_datagrams = 0;
  uint64_t send_syscalls = 0;
  uint64_t send_datagrams = 0;
  // Of the counts above, the blocking client exchange's share
  // (UdpTransport): one datagram per syscall, so they subtract from both
  // the syscall and the datagram counts when only the serving side is
  // wanted.
  uint64_t exchange_recv_syscalls = 0;
  uint64_t exchange_send_syscalls = 0;
};
UdpIoSnapshot SnapshotUdpIoCounters();
// One successful datagram syscall (recv or sendto) of the blocking client
// exchange, the one datagram syscall site outside the batch wrappers
// (which count themselves); counted in the totals and the exchange_*
// fields.
void CountUdpExchangeRecv();
void CountUdpExchangeSend();

// Asks the kernel to stamp each datagram `fd` receives with its arrival
// time (SO_TIMESTAMPNS). Best effort: without it UdpFrame::rx_realtime_ns
// stays 0 and callers fall back to the time they read the frame.
void EnableReceiveTimestamps(int fd);
// Steady-clock milliseconds at which a datagram stamped `rx_realtime_ns`
// (CLOCK_REALTIME, from the kernel) arrived; SteadyNowMs() for 0. A
// server that reads its socket only when a worker is free still charges
// the time the datagram sat in the socket queue against its budget.
int64_t ArrivalSteadyMs(int64_t rx_realtime_ns);
// The kernel arrival stamp carried by a received message's control data,
// or 0 when it carries none.
int64_t ReceiveTimestampNs(const msghdr& msg);

// --- Test injection ---------------------------------------------------------
using RecvmmsgFn = int (*)(int fd, mmsghdr* msgs, unsigned int vlen, int flags);
using SendmmsgFn = int (*)(int fd, mmsghdr* msgs, unsigned int vlen, int flags);
// Replaces the batched syscalls (nullptr restores the real ones). Tests
// pair this with restoration in their teardown.
void SetMmsgSyscallsForTest(RecvmmsgFn recv_fn, SendmmsgFn send_fn);
// False once a batched syscall reported it is unsupported; every batch call
// then uses the single-shot fallback.
bool MmsgAvailable();
void ResetMmsgAvailabilityForTest();

// One received datagram: a view into the owning batch's arena, valid until
// the next Recv() on that batch (DESIGN.md §13 lifetime rules). `data` is
// writable — the fault injector corrupts frames in place.
struct UdpFrame {
  sockaddr_in peer{};
  socklen_t peer_len = 0;
  uint8_t* data = nullptr;
  size_t size = 0;
  // The datagram exceeded the batch's slot size and was cut short by the
  // kernel (MSG_TRUNC). Callers drop such frames — a truncated RPC would
  // decode as garbage anyway.
  bool truncated = false;
  // Kernel arrival time (CLOCK_REALTIME ns) when the socket has receive
  // timestamps enabled (EnableReceiveTimestamps), else 0.
  int64_t rx_realtime_ns = 0;
};

// Ancillary-data space for one received datagram's arrival timestamp.
struct ReceiveControl {
  alignas(cmsghdr) uint8_t bytes[CMSG_SPACE(sizeof(timespec))];
};

// A reusable receive batch: `capacity` slots of `slot_bytes` each, landed
// in one arena block per Recv.
class UdpRecvBatch {
 public:
  UdpRecvBatch(int capacity, size_t slot_bytes);

  UdpRecvBatch(const UdpRecvBatch&) = delete;
  UdpRecvBatch& operator=(const UdpRecvBatch&) = delete;

  // Receives up to capacity() datagrams without blocking. Returns the
  // number of frames landed (0 = nothing ready), or -1 on a hard socket
  // error (errno preserved). Invalidates the previous Recv's frames.
  int Recv(int fd);

  int capacity() const { return capacity_; }
  size_t slot_bytes() const { return slot_bytes_; }
  UdpFrame& frame(int i) { return frames_[static_cast<size_t>(i)]; }

  // The arena backing this batch's frames, exposed for the view-lifetime
  // debug binding (ScopedArenaViewBinding) and its generation counter —
  // NOT for allocating into. Dispatch code must treat the batch as the
  // sole owner of this arena (DESIGN.md §13 rule L2).
  Arena* debug_arena() { return &arena_; }

 private:
  const int capacity_;
  const size_t slot_bytes_;
  Arena arena_;
  // Where the slots start and what the last Recv landed in each (the
  // frames themselves are the caller's to edit): the bytes the next Recv
  // poisons before the arena recycles, so debug poisoning costs what was
  // received, not the batch's capacity.
  uint8_t* slots_ = nullptr;
  std::vector<size_t> landed_;
  int landed_count_ = 0;
  std::vector<UdpFrame> frames_;
  std::vector<mmsghdr> msgs_;
  std::vector<iovec> iovs_;
  std::vector<ReceiveControl> controls_;  // one per slot, for arrival stamps
};

// One staged reply. `payload` is owned (encode targets move into it).
struct UdpReply {
  sockaddr_in peer{};
  socklen_t peer_len = 0;
  Bytes payload;
};

// Sends `replies` with as few sendmmsg calls as possible, consuming partial
// completions (a short count resumes from the first unsent message).
// Returns how many datagrams the kernel accepted; on EAGAIN or a hard error
// mid-batch the remainder is abandoned — UDP semantics, the caller counts
// the shortfall as drops and the peer retries.
size_t SendReplies(int fd, std::vector<UdpReply>& replies);

}  // namespace hcs

#endif  // HCS_SRC_RPC_MMSG_H_
