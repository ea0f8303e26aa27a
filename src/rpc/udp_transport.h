// A real UDP transport over 127.0.0.1: the same RpcServer objects that run
// in the simulation can be served on actual sockets, and RpcClient can call
// them through UdpTransport. Demonstrates that the HRPC component split is
// genuine — the control protocols and stubs are byte-level real, and only
// the transport is swapped.
//
// UdpServerHost serves every endpoint on one shared epoll reactor
// (src/rpc/reactor.h): each endpoint is a nonblocking socket whose
// datagrams the reactor's workers read themselves, running the handlers
// inline, serialized per endpoint unless the service opts into concurrent
// dispatch. Services must stay alive until StopAll()/destruction.
// Simulated-time charging is a no-op on this path (pass a null World to
// RpcClient).

#ifndef HCS_SRC_RPC_UDP_TRANSPORT_H_
#define HCS_SRC_RPC_UDP_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/common/result.h"
#include "src/common/sync.h"
#include "src/rpc/reactor.h"
#include "src/rpc/transport.h"

namespace hcs {

// Serves SimService instances on real sockets bound to 127.0.0.1.
class UdpServerHost {
 public:
  // `reactor_workers`, `udp_batch` and `udp_slot_bytes` follow
  // ReactorOptions semantics (0 = the default; a udp_batch of 1 reads a
  // serial endpoint one datagram at a time).
  explicit UdpServerHost(int reactor_workers = 0, int udp_batch = 0,
                         size_t udp_slot_bytes = 0)
      : reactor_workers_(reactor_workers),
        udp_batch_(udp_batch),
        udp_slot_bytes_(udp_slot_bytes) {}
  ~UdpServerHost() { StopAll(); }

  UdpServerHost(const UdpServerHost&) = delete;
  UdpServerHost& operator=(const UdpServerHost&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and serves `service` on UDP.
  // Handler invocations for this endpoint never overlap and run in arrival
  // order (the sim-era services are not thread-safe). Returns the bound
  // port.
  HCS_NODISCARD Result<uint16_t> Serve(SimService* service, uint16_t port = 0);

  // Like Serve, but declares `service` thread-safe: its handlers fan out
  // across the whole worker pool.
  HCS_NODISCARD Result<uint16_t> ServeConcurrent(SimService* service, uint16_t port = 0);

  // Serves `service` on a TCP listener speaking 4-byte big-endian
  // length-prefixed frames (one HandleMessage per frame).
  HCS_NODISCARD Result<uint16_t> ServeStream(SimService* service, uint16_t port = 0);
  HCS_NODISCARD Result<uint16_t> ServeStreamConcurrent(SimService* service, uint16_t port = 0);

  // Drains the reactor and closes the sockets. Idempotent; Serve may be
  // called again afterwards.
  void StopAll();

  // The shared reactor (null until the first endpoint).
  Reactor* reactor() { return reactor_.get(); }

  // Per-endpoint drop counters (port → dropped messages). Drops cover
  // garbled requests, undeliverable replies, and messages the fault
  // injector discarded inbound. Snapshot before StopAll() — stopping
  // releases the endpoints. Chaos tests assert on these counts instead of
  // sleeping.
  std::map<uint16_t, uint64_t> dropped_by_endpoint() const;

 private:
  HCS_NODISCARD Result<uint16_t> ServeUdp(SimService* service, uint16_t port, bool concurrent);
  HCS_NODISCARD Result<uint16_t> ServeStreamInternal(SimService* service, uint16_t port, bool concurrent);
  // Lazily creates and starts the shared reactor.
  HCS_NODISCARD Result<Reactor*> EnsureReactor() HCS_REQUIRES(mutex_);

  const int reactor_workers_;
  const int udp_batch_;
  const size_t udp_slot_bytes_;
  mutable Mutex mutex_{"udp-server-host"};
  std::unique_ptr<Reactor> reactor_ HCS_GUARDED_BY(mutex_);
};

// Client-side transport: each RoundTrip sends one datagram to
// 127.0.0.1:`port` and waits for the response (per-call timeout), on the
// calling thread, over a socket that thread keeps for its exchanges. Any
// failed exchange closes that socket, so a reply that arrives after its
// exchange gave up is never read as the next one's answer, and
// RoundTripMatching drops any stray reply that is still queued (a
// duplicate of one that was answered). RpcClient::Call runs its calls
// through RoundTripMatching and RpcClient::CallMany its waves through
// RoundTripWave, on the same socket. Both count their syscalls in
// SnapshotUdpIoCounters() and the strays they drop in
// GlobalAsyncClientEngine()'s udp_unmatched.
class UdpTransport : public Transport {
 public:
  // `timeout_ms` bounds each exchange; expiry surfaces as kTimeout.
  explicit UdpTransport(int timeout_ms = 2000) : timeout_ms_(timeout_ms) {}

  HCS_NODISCARD Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& message) override;

  // One exchange bounded by min(budget, default timeout); the client
  // runtime's retry loop sizes `budget_ms` per attempt.
  HCS_NODISCARD Result<Bytes> RoundTripWithBudget(const std::string& from_host, const std::string& to_host,
                                    uint16_t port, const Bytes& message,
                                    int64_t budget_ms) override;

  // The blocking client's exchange: a datagram `reply` rejects (a
  // duplicate or late reply to an earlier exchange on this thread's
  // socket) is dropped, and the wait goes on within the same timeout. The
  // returned view is over this thread's receive buffer (`storage` is not
  // used) and lasts until the thread's next exchange.
  HCS_NODISCARD Result<BytesView> RoundTripMatching(const std::string& from_host,
                                                    const std::string& to_host, uint16_t port,
                                                    const Bytes& message, int64_t budget_ms,
                                                    const ReplyMatcher& reply,
                                                    Bytes* storage) override;

  bool SupportsBudget() const override { return true; }

  // A wave runs on the calling thread's socket: each round's requests all
  // go out before any reply is read, and each round waits at most
  // min(its budget, the default timeout). A call still unanswered when
  // the wave ends closes the socket, as a failed exchange does.
  bool SupportsWaves() const override { return true; }
  HCS_NODISCARD Status RoundTripWave(const std::string& to_host, uint16_t port,
                                     WaveCalls& calls) override;

 private:
  // `reply` null: the first datagram received is the answer. The view is
  // over the calling thread's receive buffer, valid until its next
  // exchange.
  HCS_NODISCARD Result<BytesView> Exchange(uint16_t port, const Bytes& message,
                                           int64_t timeout_ms, const ReplyMatcher* reply);

  int timeout_ms_;
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_UDP_TRANSPORT_H_
