#include "src/rpc/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/rpc/context.h"
#include "src/rpc/fault.h"
#include "src/rpc/mmsg.h"

namespace hcs {

namespace {

constexpr size_t kMaxDatagram = 64 * 1024;

// Which reactor's event loop is the current thread running, if any. Set for
// the whole lifetime of LoopMain and cleared on every exit path; backs both
// CurrentLoopReactor() and the Wait-on-loop-thread detector.
thread_local const Reactor* t_loop_reactor = nullptr;

// Big-endian 4-byte frame length prefix (network order, like the rest of
// the wire formats in this tree).
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

}  // namespace

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return UnavailableError(StrFormat("fcntl(O_NONBLOCK): %s", std::strerror(errno)));
  }
  return Status::Ok();
}

// One registered socket: a UDP endpoint or a stream listener.
struct Reactor::Endpoint {
  int fd = -1;
  SimService* service = nullptr;
  bool stream = false;
  bool concurrent = false;
  uint16_t port = 0;
  Handle handle{Handle::Kind::kUdp, nullptr};

  // Per-endpoint counters (relaxed; see Reactor::endpoint_stats).
  std::atomic<uint64_t> dispatched{0};
  std::atomic<uint64_t> dropped{0};

  // Serial stream endpoints' run queue: frames from every connection run
  // in order, at most one task in flight across the pool. (A serial UDP
  // endpoint needs none: its one-shot registration hands the socket to one
  // worker at a time.)
  Mutex mu{"reactor-endpoint"};
  std::deque<std::function<void()>> queue HCS_GUARDED_BY(mu);
  bool scheduled HCS_GUARDED_BY(mu) = false;
};

// What a worker reads UDP endpoints into, each batch allocated on the
// worker's first wake by that kind of endpoint. Owned by one worker for
// its lifetime: frames land in a batch arena, run through their handlers,
// and the replies leave before the worker reads again.
struct Reactor::WorkerScratch {
  std::unique_ptr<UdpRecvBatch> serial;      // udp_batch_ slots
  std::unique_ptr<UdpRecvBatch> concurrent;  // one slot: one datagram per turn
  std::vector<UdpReply> replies;
};

// One registered client fd (async RPC client channel). Loop-thread-only:
// the handler runs on the loop thread, and registration/removal happen
// there too, so no lock is needed.
struct Reactor::ClientFd {
  ~ClientFd() {
    if (fd >= 0) {
      close(fd);
    }
  }

  int fd = -1;
  Handle handle{Handle::Kind::kClient, nullptr};
  std::function<void(uint32_t)> handler;
};

// One accepted stream connection. The loop thread owns `inbuf` and frame
// parsing; workers append replies to `outbuf` under `mu` and arm EPOLLOUT
// for whatever a direct write could not flush. The fd is closed by the
// destructor, i.e. only after the last worker holding a reference is done —
// never out from under a concurrent write.
struct Reactor::Conn {
  ~Conn() {
    if (fd >= 0) {
      close(fd);
    }
  }

  int fd = -1;
  Endpoint* endpoint = nullptr;
  Handle handle{Handle::Kind::kConn, nullptr};
  Bytes inbuf;  // loop-thread only

  Mutex mu{"reactor-conn"};
  Bytes outbuf HCS_GUARDED_BY(mu);
  size_t out_offset HCS_GUARDED_BY(mu) = 0;
  bool out_armed HCS_GUARDED_BY(mu) = false;
  bool closed HCS_GUARDED_BY(mu) = false;
};

Reactor::Reactor(ReactorOptions options) : options_(options) {}

Reactor::~Reactor() { Stop(); }

bool Reactor::running() const {
  MutexLock lock(state_mu_);
  return running_;
}

Status Reactor::Start() {
  MutexLock lock(state_mu_);
  if (running_) {
    return Status::Ok();
  }
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return UnavailableError(StrFormat("epoll_create1(): %s", std::strerror(errno)));
  }
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    close(epoll_fd_);
    epoll_fd_ = -1;
    return UnavailableError(StrFormat("eventfd(): %s", std::strerror(errno)));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &wake_handle_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    int saved = errno;
    close(wake_fd_);
    close(epoll_fd_);
    wake_fd_ = epoll_fd_ = -1;
    return UnavailableError(StrFormat("epoll_ctl(wake): %s", std::strerror(saved)));
  }

  // The workers' own epoll set: UDP endpoints plus the work semaphore.
  worker_epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  work_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC | EFD_SEMAPHORE);
  ev.events = EPOLLIN;
  ev.data.ptr = &work_handle_;
  if (worker_epoll_fd_ < 0 || work_fd_ < 0 ||
      epoll_ctl(worker_epoll_fd_, EPOLL_CTL_ADD, work_fd_, &ev) < 0) {
    int saved = errno;
    for (int* fd : {&work_fd_, &worker_epoll_fd_, &wake_fd_, &epoll_fd_}) {
      if (*fd >= 0) {
        close(*fd);
        *fd = -1;
      }
    }
    return UnavailableError(StrFormat("worker epoll set: %s", std::strerror(saved)));
  }

  stopping_.store(false, std::memory_order_release);
  {
    MutexLock work_lock(work_mu_);
    draining_ = false;
  }
  udp_batch_ = ResolveUdpBatchSize(options_.udp_batch);
  udp_slot_bytes_ = options_.udp_slot_bytes != 0 ? options_.udp_slot_bytes : kMaxDatagram;
  int workers = options_.workers;
  if (workers < 0) {
    workers = 0;  // client-only reactor: everything runs on the loop thread
  } else if (workers == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    workers = static_cast<int>(std::min(8u, std::max(2u, hw)));
  }
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  loop_thread_ = std::thread([this] { LoopMain(); });  // hcs:on-loop(this lambda IS the loop thread's entry point)
  running_ = true;
  return Status::Ok();
}

void Reactor::Stop() {
  {
    MutexLock lock(state_mu_);
    if (!running_) {
      return;
    }
    running_ = false;
  }
  // Phase 1: halt the event loop — no new reads, frames, or accepts.
  stopping_.store(true, std::memory_order_release);
  uint64_t one = 1;
  (void)!write(wake_fd_, &one, sizeof(one));
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  // Phase 2: drain. UDP endpoints leave the workers' set (a worker
  // mid-drain finishes what it already read), workers run every task
  // already queued, then each takes one stop token from the semaphore and
  // exits.
  {
    MutexLock lock(state_mu_);
    for (auto& endpoint : endpoints_) {
      if (!endpoint->stream) {
        (void)epoll_ctl(worker_epoll_fd_, EPOLL_CTL_DEL, endpoint->fd, nullptr);
      }
    }
  }
  {
    MutexLock lock(work_mu_);
    draining_ = true;
  }
  uint64_t stop_tokens = workers_.size();
  if (stop_tokens > 0) {
    (void)!write(work_fd_, &stop_tokens, sizeof(stop_tokens));
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
  // Phase 3: flush pending stream writes best-effort, then release fds.
  // hcs:on-loop(loop thread joined above — the reactor is single-threaded
  // again, so touching loop-owned state here is sanctioned)
  for (auto& [ptr, conn] : conns_) {
    MutexLock lock(conn->mu);
    while (conn->out_offset < conn->outbuf.size()) {
      ssize_t n = send(conn->fd, conn->outbuf.data() + conn->out_offset,
                       conn->outbuf.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n <= 0) {
        break;
      }
      conn->out_offset += static_cast<size_t>(n);
    }
    conn->closed = true;
  }
  conns_.clear();
  // Client channels, timers, and unrun posted work: the loop is down, so
  // no handler will fire again. Owners (the async client engine) fail
  // their outstanding futures before stopping the reactor.
  client_fds_.clear();  // ~ClientFd closes each fd
  client_by_fd_.clear();
  timers_.clear();
  timer_heap_.clear();
  {
    MutexLock lock(posted_mu_);
    posted_.clear();
  }
  {
    MutexLock lock(state_mu_);
    for (auto& endpoint : endpoints_) {
      if (endpoint->fd >= 0) {
        close(endpoint->fd);
        endpoint->fd = -1;
      }
    }
    endpoints_.clear();
  }
  close(epoll_fd_);
  close(wake_fd_);
  close(worker_epoll_fd_);
  close(work_fd_);
  epoll_fd_ = wake_fd_ = worker_epoll_fd_ = work_fd_ = -1;
  stopping_.store(false, std::memory_order_release);
}

Status Reactor::AddUdpEndpoint(int fd, SimService* service, ReactorEndpointOptions options) {
  MutexLock lock(state_mu_);
  if (!running_) {
    close(fd);
    return UnavailableError("reactor not running");
  }
  if (workers_.empty()) {
    close(fd);
    return UnavailableError("reactor has no workers to serve a UDP endpoint");
  }
  HCS_RETURN_IF_ERROR(SetNonBlocking(fd));
  // Arrival stamps: a datagram may wait in the socket while every worker
  // is busy, and that wait counts against its budget.
  EnableReceiveTimestamps(fd);
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->fd = fd;
  endpoint->service = service;
  endpoint->stream = false;
  endpoint->concurrent = options.concurrent;
  endpoint->port = options.port;
  endpoint->handle = Handle{Handle::Kind::kUdp, endpoint.get()};
  epoll_event ev{};
  ev.events = UdpInterest(*endpoint);
  ev.data.ptr = &endpoint->handle;
  if (epoll_ctl(worker_epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    int saved = errno;
    close(fd);
    return UnavailableError(StrFormat("epoll_ctl(udp): %s", std::strerror(saved)));
  }
  endpoints_.push_back(std::move(endpoint));
  return Status::Ok();
}

Status Reactor::AddStreamListener(int fd, SimService* service, ReactorEndpointOptions options) {
  MutexLock lock(state_mu_);
  if (!running_) {
    close(fd);
    return UnavailableError("reactor not running");
  }
  HCS_RETURN_IF_ERROR(SetNonBlocking(fd));
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->fd = fd;
  endpoint->service = service;
  endpoint->stream = true;
  endpoint->concurrent = options.concurrent;
  endpoint->port = options.port;
  endpoint->handle = Handle{Handle::Kind::kListener, endpoint.get()};
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &endpoint->handle;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    int saved = errno;
    close(fd);
    return UnavailableError(StrFormat("epoll_ctl(listener): %s", std::strerror(saved)));
  }
  endpoints_.push_back(std::move(endpoint));
  return Status::Ok();
}

void Reactor::LoopMain() {
  // Mark this thread as the loop for the whole body, and un-mark it on every
  // exit path (there are early returns below). Clearing loop_tid_ makes
  // "loop not running" observable to AssertLoopAffinity, so the post-join
  // cleanup in Stop() passes the affinity checks legitimately.
  struct LoopMark {
    Reactor* self;
    explicit LoopMark(Reactor* r) : self(r) {
      self->loop_tid_.store(std::this_thread::get_id(), std::memory_order_release);
      t_loop_reactor = self;
    }
    ~LoopMark() {
      t_loop_reactor = nullptr;
      self->loop_tid_.store(std::thread::id{}, std::memory_order_release);
    }
  } mark(this);
  std::vector<epoll_event> events(64);
  std::vector<uint8_t> buffer(kMaxDatagram);
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                       NextTimerTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    for (int i = 0; i < n; ++i) {
      if (stopping_.load(std::memory_order_acquire)) {
        return;
      }
      Handle* handle = static_cast<Handle*>(events[i].data.ptr);
      switch (handle->kind) {
        case Handle::Kind::kWake: {
          uint64_t value;
          (void)!read(wake_fd_, &value, sizeof(value));
          // Re-arm wake coalescing. Any Post that skipped its eventfd write
          // did so before this clear, so its task is already in posted_ and
          // this iteration's RunPosted picks it up.
          wake_pending_.store(false, std::memory_order_release);
          break;
        }
        case Handle::Kind::kWork:
        case Handle::Kind::kUdp:
          break;  // registered in the workers' set, never the loop's
        case Handle::Kind::kListener:
          DrainAccept(static_cast<Endpoint*>(handle->target));
          break;
        case Handle::Kind::kConn:
          HandleConnEvent(static_cast<Conn*>(handle->target), events[i].events, buffer);
          break;
        case Handle::Kind::kClient: {
          // Removal during this batch is possible (a handler may close a
          // sibling); look up by identity before trusting the pointer.
          ClientFd* client = static_cast<ClientFd*>(handle->target);
          auto it = client_fds_.find(client);
          if (it != client_fds_.end()) {
            // Keep the registration alive across the handler: the handler
            // itself may call RemoveClientFd on this fd.
            std::shared_ptr<ClientFd> shared = it->second;
            shared->handler(events[i].events);
          }
          break;
        }
      }
    }
    // Run posted work until none is left — including tasks posted by the
    // tasks and timers run here, which skip the eventfd (Post) — so no
    // self-post waits out the next epoll_wait.
    while (!stopping_.load(std::memory_order_acquire)) {
      RunPosted();
      RunDueTimers();
      MutexLock lock(posted_mu_);
      if (posted_.empty()) {
        break;
      }
    }
  }
}

bool Reactor::Post(std::function<void()> fn) {
  if (stopping_.load(std::memory_order_acquire)) {
    return false;
  }
  {
    MutexLock lock(state_mu_);
    if (!running_) {
      return false;
    }
  }
  {
    MutexLock lock(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  // A post from the loop thread needs no wake: the loop drains posted_
  // until it is empty before it blocks again.
  if (on_loop_thread()) {
    return true;
  }
  // Coalesce wakes: a burst of posts (an async client issuing a window of
  // calls) pays one eventfd write, not one per task. The loop clears the
  // flag when it consumes the wake, before draining posted_.
  if (!wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    uint64_t one = 1;
    (void)!write(wake_fd_, &one, sizeof(one));
  }
  return true;
}

// hcs:on-loop(sanctioned any-thread reader: only loads the loop_tid_ atomic)
bool Reactor::on_loop_thread() const {
  return loop_tid_.load(std::memory_order_acquire) == std::this_thread::get_id();
}

void Reactor::AssertLoopAffinity(const char* func, const char* file, int line) const {
  std::thread::id loop = loop_tid_.load(std::memory_order_acquire);
  if (loop == std::thread::id{} || loop == std::this_thread::get_id()) {
    return;  // loop not running (single-threaded setup/teardown), or on it
  }
  std::fprintf(stderr,
               "HCS_ASSERT_LOOP: %s (%s:%d) touched loop-owned state of reactor %p "
               "from off the loop thread while its loop is running; Post/ScheduleAfter "
               "the work onto the loop instead\n",
               func, file, line, static_cast<const void*>(this));
  std::abort();
}

const Reactor* CurrentLoopReactor() { return t_loop_reactor; }

void AbortIfWaitOnLoopThread(const char* what, const char* birth_file, int birth_line) {
  const Reactor* loop = t_loop_reactor;
  if (loop == nullptr) {
    return;
  }
  std::fprintf(stderr,
               "hcs loop-affinity: %s on the event-loop thread of reactor %p "
               "self-deadlocks: the loop is the only thread that can deliver the "
               "completion it is waiting for (future born at %s:%d). Use "
               "OnComplete, or move the wait off the loop thread.\n",
               what, static_cast<const void*>(loop),
               birth_file != nullptr ? birth_file : "<unknown>", birth_line);
  std::abort();
}

void Reactor::RunPosted() {
  std::deque<std::function<void()>> batch;
  {
    MutexLock lock(posted_mu_);
    batch.swap(posted_);
  }
  for (std::function<void()>& fn : batch) {
    fn();
  }
}

uint64_t Reactor::ScheduleAfter(int64_t delay_ms, std::function<void()> fn) {
  HCS_ASSERT_LOOP(this);
  uint64_t id = next_timer_id_++;
  timers_[id] = std::move(fn);
  timer_heap_.emplace_back(SteadyNowMs() + std::max<int64_t>(delay_ms, 0), id);
  std::push_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
  return id;
}

void Reactor::CancelTimer(uint64_t id) {
  HCS_ASSERT_LOOP(this);
  // Lazy deletion: the heap entry stays and is skipped when popped.
  timers_.erase(id);
}

int Reactor::NextTimerTimeoutMs() {
  while (!timer_heap_.empty() &&
         timers_.find(timer_heap_.front().second) == timers_.end()) {
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
    timer_heap_.pop_back();  // cancelled: drop the stale entry
  }
  if (timer_heap_.empty()) {
    return -1;
  }
  int64_t delta = timer_heap_.front().first - SteadyNowMs();
  if (delta <= 0) {
    return 0;
  }
  return static_cast<int>(std::min<int64_t>(delta, 60 * 1000));
}

void Reactor::RunDueTimers() {
  const int64_t now = SteadyNowMs();
  while (!timer_heap_.empty() && timer_heap_.front().first <= now) {
    uint64_t id = timer_heap_.front().second;
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
    timer_heap_.pop_back();
    auto it = timers_.find(id);
    if (it == timers_.end()) {
      continue;  // cancelled
    }
    std::function<void()> fn = std::move(it->second);
    timers_.erase(it);
    fn();
  }
}

Status Reactor::AddClientFd(int fd, uint32_t events, std::function<void(uint32_t)> handler) {
  HCS_ASSERT_LOOP(this);
  auto client = std::make_shared<ClientFd>();
  client->fd = fd;
  client->handler = std::move(handler);
  client->handle = Handle{Handle::Kind::kClient, client.get()};
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = &client->handle;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    int saved = errno;
    return UnavailableError(StrFormat("epoll_ctl(client add): %s", std::strerror(saved)));
  }
  client_by_fd_[fd] = client.get();
  client_fds_[client.get()] = std::move(client);
  return Status::Ok();
}

Status Reactor::ModClientFd(int fd, uint32_t events) {
  HCS_ASSERT_LOOP(this);
  auto it = client_by_fd_.find(fd);
  if (it == client_by_fd_.end()) {
    return NotFoundError("client fd not registered");
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = &it->second->handle;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return UnavailableError(StrFormat("epoll_ctl(client mod): %s", std::strerror(errno)));
  }
  return Status::Ok();
}

void Reactor::RemoveClientFd(int fd) {
  HCS_ASSERT_LOOP(this);
  auto it = client_by_fd_.find(fd);
  if (it == client_by_fd_.end()) {
    return;
  }
  ClientFd* client = it->second;
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  client_by_fd_.erase(it);
  client_fds_.erase(client);  // ~ClientFd closes the fd
}

uint32_t Reactor::UdpInterest(const Endpoint& endpoint) {
  // A serial endpoint is armed one-shot: the worker its readiness wakes
  // owns the socket until it re-arms, so no two workers read (or run
  // handlers for) it at once, and datagrams run in arrival order. A
  // concurrent endpoint stays armed, so every idle worker may take a turn.
  return endpoint.concurrent ? EPOLLIN : (EPOLLIN | EPOLLONESHOT);
}

void Reactor::ServeUdpReady(Endpoint* endpoint, WorkerScratch& scratch) {
  DrainUdp(endpoint, scratch);
  if (!endpoint->concurrent) {
    // Readiness that arrived during the drain is reported by the re-arm
    // itself. After Stop() removed the endpoint this fails, harmlessly.
    epoll_event ev{};
    ev.events = UdpInterest(*endpoint);
    ev.data.ptr = &endpoint->handle;
    (void)epoll_ctl(worker_epoll_fd_, EPOLL_CTL_MOD, endpoint->fd, &ev);
  }
}

void Reactor::DrainUdp(Endpoint* endpoint, WorkerScratch& scratch) {
  // A concurrent endpoint's worker reads one datagram per turn and hands
  // the socket back: the rest stay queued for the other workers its
  // readiness wakes, so a burst fans out across the pool instead of
  // queueing behind one worker's handlers.
  std::unique_ptr<UdpRecvBatch>& owned =
      endpoint->concurrent ? scratch.concurrent : scratch.serial;
  if (owned == nullptr) {
    owned = std::make_unique<UdpRecvBatch>(endpoint->concurrent ? 1 : udp_batch_,
                                           udp_slot_bytes_);
  }
  UdpRecvBatch& batch = *owned;
  // Debug builds stamp every view built over the batch arena with its
  // generation; a view that survives past the next Recv (which Resets the
  // arena) aborts on access instead of reading recycled bytes.
  ScopedArenaViewBinding view_binding(batch.debug_arena());
  while (true) {
    int count = batch.Recv(endpoint->fd);
    if (count <= 0) {
      // 0: drained (EAGAIN). -1: transient socket error (e.g. ICMP-induced)
      // — either way the socket reports genuine readiness again.
      return;
    }
    // Handlers run inline, in arrival order; the batch's replies leave in
    // one SendReplies before the next Recv recycles the arena.
    scratch.replies.clear();
    for (int i = 0; i < count; ++i) {
      ProcessUdpFrame(endpoint, batch.frame(i), scratch.replies);
    }
    size_t sent = SendReplies(endpoint->fd, scratch.replies);
    if (sent < scratch.replies.size()) {
      // UDP semantics: an unsendable reply is a drop, the client retries.
      CountDrop(endpoint, static_cast<uint64_t>(scratch.replies.size() - sent));
    }
    if (endpoint->concurrent || count < batch.capacity()) {
      return;  // one turn taken, or a short batch: the socket is drained
    }
  }
}

void Reactor::ProcessUdpFrame(Endpoint* endpoint, UdpFrame& frame,
                              std::vector<UdpReply>& staged) {
  if (frame.truncated) {
    // The kernel cut the datagram to the slot size; it would decode as
    // garbage, so drop it whole.
    CountDrop(endpoint, 1);
    return;
  }
  ScopedReceiveTimestamp stamp(ArrivalSteadyMs(frame.rx_realtime_ns));
  // One fault decision per frame, never per batch: the decision stream
  // stays a pure function of (seed, endpoint, per-endpoint sequence)
  // whatever the batch geometry. Corruption rewrites the frame in place in
  // the batch arena.
  Status admitted =
      FilterInboundFrame(GlobalFaultInjector(), endpoint->port, frame.data, frame.size);
  if (!admitted.ok()) {
    CountDrop(endpoint, 1);
    return;
  }
  Result<Bytes> response = endpoint->service->HandleFrame(frame.data, frame.size);
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  endpoint->dispatched.fetch_add(1, std::memory_order_relaxed);
  if (!response.ok()) {
    CountDrop(endpoint, 1);
    HCS_LOG(Debug) << "reactor dropping garbled datagram: " << response.status();
    return;
  }
  UdpReply reply;
  reply.peer = frame.peer;
  reply.peer_len = frame.peer_len;
  reply.payload = std::move(response).value();
  staged.push_back(std::move(reply));
}

void Reactor::CountDrop(Endpoint* endpoint, uint64_t count) {
  dropped_.fetch_add(count, std::memory_order_relaxed);
  endpoint->dropped.fetch_add(count, std::memory_order_relaxed);
}

void Reactor::DrainAccept(Endpoint* endpoint) {
  while (true) {
    int fd = accept4(endpoint->fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN: accepted everything pending
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->endpoint = endpoint;
    conn->handle = Handle{Handle::Kind::kConn, conn.get()};
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &conn->handle;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      continue;  // conn drops out of scope and closes
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    conns_[conn.get()] = std::move(conn);
  }
}

void Reactor::HandleConnEvent(Conn* conn, uint32_t events, std::vector<uint8_t>& buffer) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  std::shared_ptr<Conn> shared = it->second;

  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConn(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    MutexLock lock(conn->mu);
    while (conn->out_offset < conn->outbuf.size()) {
      ssize_t n = send(conn->fd, conn->outbuf.data() + conn->out_offset,
                       conn->outbuf.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;  // EAGAIN: stay armed; hard error surfaces via EPOLLERR
      }
      conn->out_offset += static_cast<size_t>(n);
    }
    if (conn->out_offset >= conn->outbuf.size()) {
      conn->outbuf.clear();
      conn->out_offset = 0;
      conn->out_armed = false;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = &conn->handle;
      (void)epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    }
  }
  if ((events & EPOLLIN) == 0) {
    return;
  }

  // Read until EAGAIN; a nonblocking peer may dribble bytes, so frames
  // accumulate across events.
  while (true) {
    ssize_t n = recv(conn->fd, buffer.data(), buffer.size(), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // EAGAIN: wait for the next event
    }
    if (n == 0) {
      CloseConn(conn);
      return;
    }
    conn->inbuf.insert(conn->inbuf.end(), buffer.begin(), buffer.begin() + n);
  }

  // Framing: 4-byte big-endian length, then the payload. A length beyond
  // kMaxStreamFrame is a protocol violation — drop the connection.
  while (conn->inbuf.size() >= 4) {
    uint32_t frame_len = ReadFrameLength(conn->inbuf);
    if (frame_len > kMaxStreamFrame) {
      HCS_LOG(Debug) << "reactor closing stream conn: frame length " << frame_len
                     << " exceeds cap";
      CloseConn(conn);
      return;
    }
    if (conn->inbuf.size() < 4 + static_cast<size_t>(frame_len)) {
      break;  // partial frame; more bytes coming
    }
    Bytes frame(conn->inbuf.begin() + 4, conn->inbuf.begin() + 4 + frame_len);
    conn->inbuf.erase(conn->inbuf.begin(), conn->inbuf.begin() + 4 + frame_len);
    const int64_t arrival_ms = SteadyNowMs();
    Submit(conn->endpoint, [this, shared, frame = std::move(frame), arrival_ms]() mutable {
      ScopedReceiveTimestamp stamp(arrival_ms);
      Endpoint* endpoint = shared->endpoint;
      Status admitted = FilterInbound(GlobalFaultInjector(), endpoint->port, &frame);
      if (!admitted.ok()) {
        CountDrop(endpoint, 1);
        return;
      }
      Result<Bytes> response = endpoint->service->HandleMessage(frame);
      dispatched_.fetch_add(1, std::memory_order_relaxed);
      endpoint->dispatched.fetch_add(1, std::memory_order_relaxed);
      if (!response.ok()) {
        CountDrop(endpoint, 1);
        HCS_LOG(Debug) << "reactor dropping garbled frame: " << response.status();
        return;
      }
      Bytes framed;
      framed.reserve(4 + response->size());
      AppendFrameHeader(framed, response->size());
      framed.insert(framed.end(), response->begin(), response->end());
      SendOnConn(shared, framed);
    });
  }
}

void Reactor::CloseConn(Conn* conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) {
    return;
  }
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  {
    MutexLock lock(conn->mu);
    conn->closed = true;
  }
  // The fd itself closes when the last shared_ptr (possibly held by a
  // worker mid-reply) goes away — never out from under a concurrent write.
  conns_.erase(it);
}

void Reactor::SendOnConn(const std::shared_ptr<Conn>& conn, const Bytes& framed) {
  MutexLock lock(conn->mu);
  if (conn->closed) {
    CountDrop(conn->endpoint, 1);
    return;
  }
  // Replies queue in completion order; append then flush preserves the
  // byte stream even when several workers answer on one connection.
  conn->outbuf.insert(conn->outbuf.end(), framed.begin(), framed.end());
  while (conn->out_offset < conn->outbuf.size()) {
    ssize_t n = send(conn->fd, conn->outbuf.data() + conn->out_offset,
                     conn->outbuf.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // EAGAIN or error: leave the remainder queued
    }
    conn->out_offset += static_cast<size_t>(n);
  }
  if (conn->out_offset >= conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_offset = 0;
    return;
  }
  // Short write: arm EPOLLOUT so the loop thread finishes the flush.
  if (!conn->out_armed) {
    conn->out_armed = true;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.ptr = &conn->handle;
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
}

void Reactor::Submit(Endpoint* endpoint, std::function<void()> task) {
  if (endpoint->concurrent) {
    Enqueue(std::move(task));
    return;
  }
  bool need_schedule = false;
  {
    MutexLock lock(endpoint->mu);
    endpoint->queue.push_back(std::move(task));
    if (!endpoint->scheduled) {
      endpoint->scheduled = true;
      need_schedule = true;
    }
  }
  if (need_schedule) {
    Enqueue([this, endpoint] { RunEndpoint(endpoint); });
  }
}

void Reactor::Enqueue(std::function<void()> task) {
  {
    MutexLock lock(work_mu_);
    work_.push_back(std::move(task));
  }
  // One semaphore token per task, written after the push: a worker that
  // takes a token always finds a task.
  uint64_t one = 1;
  (void)!write(work_fd_, &one, sizeof(one));
}

void Reactor::RunEndpoint(Endpoint* endpoint) {
  while (true) {
    std::deque<std::function<void()>> batch;
    {
      MutexLock lock(endpoint->mu);
      if (endpoint->queue.empty()) {
        endpoint->scheduled = false;
        return;
      }
      batch.swap(endpoint->queue);
    }
    for (std::function<void()>& task : batch) {
      task();
    }
  }
}

std::vector<ReactorEndpointStats> Reactor::endpoint_stats() const {
  MutexLock lock(state_mu_);
  std::vector<ReactorEndpointStats> out;
  out.reserve(endpoints_.size());
  for (const auto& endpoint : endpoints_) {
    ReactorEndpointStats stats;
    stats.port = endpoint->port;
    stats.stream = endpoint->stream;
    stats.dispatched = endpoint->dispatched.load(std::memory_order_relaxed);
    stats.dropped = endpoint->dropped.load(std::memory_order_relaxed);
    out.push_back(stats);
  }
  return out;
}

void Reactor::WorkerMain() {
  WorkerScratch scratch;
  while (true) {
    // One event per wait: a worker about to block in a handler must not
    // sit on readiness it claimed for another endpoint (a nested call to a
    // sibling endpoint would then wait for itself).
    epoll_event event{};
    int n = epoll_wait(worker_epoll_fd_, &event, 1, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    if (n == 0) {
      continue;
    }
    Handle* handle = static_cast<Handle*>(event.data.ptr);
    if (handle->kind == Handle::Kind::kUdp) {
      ServeUdpReady(static_cast<Endpoint*>(handle->target), scratch);
      continue;
    }
    // The work semaphore: one token per queued task, plus one per worker
    // when Stop() drains. Another worker may have taken this token first.
    uint64_t token = 0;
    if (read(work_fd_, &token, sizeof(token)) != static_cast<ssize_t>(sizeof(token))) {
      continue;
    }
    std::function<void()> task;
    {
      MutexLock lock(work_mu_);
      if (work_.empty()) {
        if (draining_) {
          return;  // a stop token, and nothing left to run
        }
        continue;
      }
      task = std::move(work_.front());
      work_.pop_front();
    }
    task();
  }
}

}  // namespace hcs
