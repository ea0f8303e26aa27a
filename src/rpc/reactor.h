// Reactor: the shared epoll-based service runtime. A host serving the BIND
// meta store, an HNS, and a handful of NSMs needs one reactor — a loop
// thread and a few workers — not one parked thread per socket.
//
// Who reads what. UDP endpoints live in an epoll set the workers wait on
// themselves: the worker a datagram wakes reads the socket, runs the
// handlers inline, and sends the replies — a serial endpoint's in batches
// (one recvmmsg and one sendmmsg per batch), a concurrent endpoint's one
// datagram per turn. A request therefore costs no hand-off between
// threads inside the server. The loop thread multiplexes everything else:
// stream listeners and connections (it parses frames and queues them for
// the workers), plus the client-channel surface below (posted tasks,
// timers, client fds).
//
// Concurrency model. The sim-era services behind these sockets (RpcServer
// over World-touching handlers) are not thread-safe, so by default an
// endpoint is serial: a serial UDP endpoint is registered EPOLLONESHOT, so
// one worker at a time owns it until it has drained the socket and
// re-armed — handlers never overlap and run in arrival order; a serial
// stream endpoint's frames go through a per-endpoint run queue. Endpoints whose service is thread-safe opt in to
// `concurrent` dispatch and fan out across the whole pool. A handler that
// blocks (an NSM calling BIND) holds its worker, so a chain of nested
// calls among one reactor's endpoints needs depth + 1 workers.
//
// Shutdown is a graceful drain: Stop() first halts the event loop (no new
// stream frames or accepts) and withdraws the UDP endpoints from the
// workers, then lets the workers finish every task already queued, then
// flushes pending stream writes best-effort and closes all file
// descriptors. Start() and Stop() are idempotent, and a stopped reactor can
// be started again.

#ifndef HCS_SRC_RPC_REACTOR_H_
#define HCS_SRC_RPC_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/sync.h"
#include "src/sim/world.h"

// Debug loop-affinity enforcement (DESIGN.md §15): on under sanitizer and
// plain Debug builds (or an explicit -DHCS_DEBUG_LOOP=1), compiled out of
// release — bench_smoke holds the floor on the release side, lint_loop.py
// holds the static side of the same contract.
#if !defined(HCS_LOOP_DEBUG_ENABLED)
#if defined(HCS_DEBUG_LOOP) || !defined(NDEBUG)
#define HCS_LOOP_DEBUG_ENABLED 1
#else
#define HCS_LOOP_DEBUG_ENABLED 0
#endif
#endif

namespace hcs {

class UdpRecvBatch;
struct UdpFrame;
struct UdpReply;

// Upper bound on one length-prefixed stream frame (defense against a bogus
// length prefix, and the framing assertion of the stream satellite).
constexpr size_t kMaxStreamFrame = 1 << 20;

struct ReactorOptions {
  // Worker threads; 0 = min(8, max(2, hardware_concurrency)); -1 = no
  // worker pool at all (a client-only reactor: every callback runs on the
  // loop thread, which is the async client engine's threading model; it
  // cannot serve UDP endpoints).
  int workers = 0;
  // Datagrams moved per recvmmsg/sendmmsg on serial UDP endpoints. 0 =
  // resolve from HCS_UDP_BATCH (default kDefaultUdpBatch); 1 = one
  // datagram per read. Clamped to kMaxUdpBatch. A concurrent endpoint's
  // worker takes one datagram per turn whatever the batch size.
  int udp_batch = 0;
  // Bytes per received-datagram slot in a batch; 0 = 64 KiB (the UDP
  // maximum). Smaller slots trade truncation risk for a denser arena.
  size_t udp_slot_bytes = 0;
};

struct ReactorEndpointOptions {
  // True: the service is thread-safe and handler invocations may run on
  // all workers concurrently. False (default): per-endpoint serial
  // execution, in arrival order.
  bool concurrent = false;
  // The local port the socket is bound to. Labels this endpoint's
  // dispatch/drop counters (endpoint_stats()) and keys the fault
  // injector's inbound filtering ("local:<port>" plans).
  uint16_t port = 0;
};

// Per-endpoint counter snapshot (endpoint_stats()). `dropped` counts
// garbled requests, undeliverable replies, and injector-discarded inbound
// messages for that endpoint alone.
struct ReactorEndpointStats {
  uint16_t port = 0;
  bool stream = false;
  uint64_t dispatched = 0;
  uint64_t dropped = 0;
};

class Reactor {
 public:
  explicit Reactor(ReactorOptions options = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Starts the event loop and worker pool. Idempotent.
  HCS_NODISCARD Status Start();
  // Graceful drain; idempotent. After Stop() the reactor holds no fds and
  // may be started again (endpoints must be re-added).
  void Stop();
  bool running() const;

  // Registers a bound UDP socket; the reactor takes ownership of `fd`,
  // makes it nonblocking, and serves `service` on it from the workers.
  // Requires running() and a worker pool.
  HCS_NODISCARD Status AddUdpEndpoint(int fd, SimService* service, ReactorEndpointOptions options = {});

  // Registers a listening, nonblocking TCP socket; accepted connections
  // speak 4-byte big-endian length-prefixed frames, one HandleMessage per
  // frame. The reactor takes ownership of `fd`. Requires running().
  HCS_NODISCARD Status AddStreamListener(int fd, SimService* service, ReactorEndpointOptions options = {});

  // --- Client-channel surface (the async RPC client core) ------------------
  // The engine in src/rpc/async_client.cc registers its nonblocking client
  // sockets here and drives all per-call state from the loop thread; these
  // four methods plus the timers below are its entire contract with the
  // reactor.

  // Runs `fn` on the event-loop thread, FIFO with other posted work. Safe
  // from any thread, including the loop thread itself: a post from the
  // loop costs no wake, because the loop runs posted work until none is
  // left before it blocks again. Returns false (and drops `fn`) when the
  // reactor is not running.
  bool Post(std::function<void()> fn);
  // True when called from the event-loop thread (i.e. from a posted task,
  // timer, or client-fd handler).
  bool on_loop_thread() const;

  // One-shot timer: runs `fn` on the loop thread once `delay_ms` elapses
  // (monotonic clock); returns a nonzero id.
  // hcs:loop-only
  uint64_t ScheduleAfter(int64_t delay_ms, std::function<void()> fn);
  // Cancels a pending timer; a no-op once it fired.
  // hcs:loop-only
  void CancelTimer(uint64_t id);

  // Registers a connected (or connecting) nonblocking fd whose readiness is
  // delivered to `handler(events)` on the loop thread. The reactor takes
  // ownership of the fd. Post the registration onto the loop.
  // hcs:loop-only
  HCS_NODISCARD Status AddClientFd(int fd, uint32_t events,
                                   std::function<void(uint32_t)> handler);
  // Changes the interest set of a registered client fd.
  // hcs:loop-only
  HCS_NODISCARD Status ModClientFd(int fd, uint32_t events);
  // Unregisters and closes a client fd. Safe against events already pulled
  // into the current epoll batch (lookup by identity, like stream conns).
  // hcs:loop-only
  void RemoveClientFd(int fd);

  // Debug (HCS_LOOP_DEBUG_ENABLED): aborts — naming the violating call
  // site and this reactor — when called off the loop thread while the loop
  // is running. Passes when the loop is not running: single-threaded
  // setup and post-join teardown are sanctioned. Use via HCS_ASSERT_LOOP.
  void AssertLoopAffinity(const char* func, const char* file, int line) const;

  // --- Counters (relaxed; for tests and benches) ---------------------------
  uint64_t dispatched() const { return dispatched_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  // Per-endpoint counters (chaos tests assert on these instead of sleeping).
  // Endpoints are released by Stop(), so snapshot before stopping.
  std::vector<ReactorEndpointStats> endpoint_stats() const;

 private:
  struct Endpoint;
  struct Conn;
  struct ClientFd;
  struct WorkerScratch;

  // Tag for the pointer stashed in each epoll event. kWork and kUdp live in
  // the workers' set; the rest in the loop's.
  struct Handle {
    enum class Kind { kWake, kWork, kUdp, kListener, kConn, kClient };
    Kind kind;
    void* target = nullptr;
  };

  // hcs:loop-only
  void LoopMain();
  void WorkerMain();
  // hcs:loop-only
  void RunPosted();
  // Milliseconds until the earliest pending timer (epoll_wait timeout);
  // -1 when no timer is pending.
  // hcs:loop-only
  int NextTimerTimeoutMs();
  // hcs:loop-only
  void RunDueTimers();

  // UDP serving, on whichever worker the endpoint's readiness woke.
  static uint32_t UdpInterest(const Endpoint& endpoint);
  // Drains the socket, then re-arms a serial endpoint's one-shot interest.
  void ServeUdpReady(Endpoint* endpoint, WorkerScratch& scratch);
  // Reads the endpoint into the worker's batch (udp_batch_ datagrams per
  // Recv for a serial endpoint, one for a concurrent one) and answers each
  // batch with one SendReplies.
  void DrainUdp(Endpoint* endpoint, WorkerScratch& scratch);
  // Filter + dispatch for one received frame; the reply goes to `staged`.
  void ProcessUdpFrame(Endpoint* endpoint, UdpFrame& frame, std::vector<UdpReply>& staged);
  void CountDrop(Endpoint* endpoint, uint64_t count);
  // hcs:loop-only
  void DrainAccept(Endpoint* endpoint);
  // hcs:loop-only
  void HandleConnEvent(Conn* conn, uint32_t events, std::vector<uint8_t>& buffer);
  // hcs:loop-only
  void CloseConn(Conn* conn);

  // Queues `task` honoring the endpoint's serial/concurrent mode.
  void Submit(Endpoint* endpoint, std::function<void()> task);
  void Enqueue(std::function<void()> task);
  void RunEndpoint(Endpoint* endpoint);
  void SendOnConn(const std::shared_ptr<Conn>& conn, const Bytes& framed);

  ReactorOptions options_;
  // Resolved at Start() (before the loop/worker threads exist, so plain
  // ints are race-free): the serial endpoints' batch size, and the slot
  // size of every receive batch.
  int udp_batch_ = 1;
  size_t udp_slot_bytes_ = 0;

  mutable Mutex state_mu_{"reactor-state"};
  bool running_ HCS_GUARDED_BY(state_mu_) = false;
  std::vector<std::unique_ptr<Endpoint>> endpoints_ HCS_GUARDED_BY(state_mu_);

  std::atomic<bool> stopping_{false};
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  Handle wake_handle_{Handle::Kind::kWake, nullptr};
  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // The workers' epoll set and its one blocking point: UDP endpoints, plus
  // `work_fd_`, a semaphore eventfd holding one token per queued task.
  int worker_epoll_fd_ = -1;
  int work_fd_ = -1;
  Handle work_handle_{Handle::Kind::kWork, nullptr};
  Mutex work_mu_{"reactor-work"};
  std::deque<std::function<void()>> work_ HCS_GUARDED_BY(work_mu_);
  bool draining_ HCS_GUARDED_BY(work_mu_) = false;

  // Live connections (workers reach conns via the shared_ptr captured in
  // their task; Stop() sweeps them after the loop thread is joined).
  std::map<Conn*, std::shared_ptr<Conn>> conns_;  // hcs:loop-only

  // Posted-work queue: drained on the loop thread after each epoll batch.
  Mutex posted_mu_{"reactor-posted"};
  std::deque<std::function<void()>> posted_ HCS_GUARDED_BY(posted_mu_);
  // True while an eventfd wake is in flight; lets Post coalesce a burst of
  // tasks into one write(wake_fd_).
  std::atomic<bool> wake_pending_{false};

  // Registered client fds; loop-owned, like conns_.
  std::map<ClientFd*, std::shared_ptr<ClientFd>> client_fds_;  // hcs:loop-only
  std::map<int, ClientFd*> client_by_fd_;  // hcs:loop-only

  // Timers; loop-owned. The heap may hold stale entries for cancelled
  // ids (lazy deletion) — timers_ is the source of truth.
  uint64_t next_timer_id_ = 1;  // hcs:loop-only
  std::unordered_map<uint64_t, std::function<void()>> timers_;  // hcs:loop-only
  // (deadline_ms, id) min-heap
  std::vector<std::pair<int64_t, uint64_t>> timer_heap_;  // hcs:loop-only

  // The loop thread's id, for on_loop_thread() and the debug affinity
  // asserts; set by LoopMain on entry, cleared (to the default id) on
  // exit so "loop not running" is observable.
  std::atomic<std::thread::id> loop_tid_{};

  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> accepted_{0};
};

// Makes `fd` nonblocking (O_NONBLOCK); shared by the reactor and the
// real-socket transports.
HCS_NODISCARD Status SetNonBlocking(int fd);

// Debug: the reactor whose event loop is the calling thread, or nullptr
// when this thread is no reactor's loop. Thread-local, set for the
// duration of LoopMain; the Wait-on-loop-thread detector keys on it.
const Reactor* CurrentLoopReactor();

// Debug: aborts with a diagnostic when the calling thread is a reactor
// loop thread. A blocking wait there is a silent self-deadlock — the loop
// is the only thread that could deliver the completion being waited on —
// so the detector turns it into a loud abort naming the operation and the
// waited-on future's birth site. No-op off the loop.
void AbortIfWaitOnLoopThread(const char* what, const char* birth_file,
                             int birth_line);

// Debug assertion for loop-only entry points: aborts (naming the call
// site and the owning reactor) when invoked off `reactor`'s loop thread
// while its loop runs. Compiled out of release builds entirely.
#if HCS_LOOP_DEBUG_ENABLED
#define HCS_ASSERT_LOOP(reactor) \
  (reactor)->AssertLoopAffinity(__func__, __FILE__, __LINE__)
#else
#define HCS_ASSERT_LOOP(reactor) ((void)0)
#endif

}  // namespace hcs

#endif  // HCS_SRC_RPC_REACTOR_H_
