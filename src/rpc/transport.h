// Transport component: carries one framed message to a server endpoint and
// returns the response. Implementations:
//   - SimNetTransport: over the simulated internetwork (virtual-clock time),
//   - LoopbackTransport: direct in-process dispatch (real time; used by the
//     examples and the real-transport tests),
//   - UdpTransport (udp_transport.h): real UDP sockets on 127.0.0.1.

#ifndef HCS_SRC_RPC_TRANSPORT_H_
#define HCS_SRC_RPC_TRANSPORT_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/sim/world.h"

namespace hcs {

// Says whether a received datagram answers the message just sent. A
// datagram transport's socket can still hold a duplicate of an earlier
// exchange's reply, or a late one; given a matcher, it drops what the
// matcher rejects and keeps waiting.
class ReplyMatcher {
 public:
  virtual bool Matches(const uint8_t* data, size_t size) const = 0;

 protected:
  ~ReplyMatcher() = default;
};

// The caller's side of a wave (RpcClient::CallMany): what each round puts
// on the wire, and which outstanding call a received reply answers.
class WaveCalls {
 public:
  // Fills `sends` with the messages the next round puts on the wire (every
  // call in the first round, the unanswered ones after) and sets the
  // round's wait for replies (`*budget_ms` <= 0: the transport's default
  // timeout). Returns false when the wave is over.
  virtual bool NextRound(std::vector<const Bytes*>* sends, int64_t* budget_ms) = 0;
  // True when `data` answers an outstanding call, which then has its
  // reply. False for a stray (a duplicate, or a reply to an earlier
  // exchange), which the transport drops.
  virtual bool Accept(const uint8_t* data, size_t size) = 0;
  // True while some call still waits for its reply.
  virtual bool pending() const = 0;

 protected:
  ~WaveCalls() = default;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Sends `message` from a process on `from_host` to the server listening at
  // (`to_host`, `port`) and returns its response.
  HCS_NODISCARD virtual Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                                  uint16_t port, const Bytes& message) = 0;

  // Budget-aware variant: `budget_ms` bounds the whole exchange in real
  // time (<= 0: the transport's own default applies). The base
  // implementation ignores the budget — simulated and in-process transports
  // complete synchronously on the virtual clock.
  HCS_NODISCARD virtual Result<Bytes> RoundTripWithBudget(const std::string& from_host,
                                            const std::string& to_host, uint16_t port,
                                            const Bytes& message, int64_t budget_ms) {
    (void)budget_ms;
    return RoundTrip(from_host, to_host, port, message);
  }

  // The exchange the blocking client makes: RoundTripWithBudget for
  // `budget_ms` > 0, RoundTrip otherwise, and only a reply `reply` accepts
  // is returned. The reply comes back as a view, so the caller decodes it
  // where it landed and copies out only what it keeps: the view is over
  // the transport's own receive buffer when it has one (UdpTransport: the
  // calling thread's, which that thread's next exchange reuses — a nested
  // call's included), else over `*storage`. Either way, read it before this
  // thread makes another call. The base implementation has one reply per
  // exchange, ignores the matcher, and moves the reply into `*storage`.
  HCS_NODISCARD virtual Result<BytesView> RoundTripMatching(const std::string& from_host,
                                                            const std::string& to_host,
                                                            uint16_t port, const Bytes& message,
                                                            int64_t budget_ms,
                                                            const ReplyMatcher& reply,
                                                            Bytes* storage) {
    (void)reply;
    Result<Bytes> response = budget_ms > 0
                                 ? RoundTripWithBudget(from_host, to_host, port, message, budget_ms)
                                 : RoundTrip(from_host, to_host, port, message);
    if (!response.ok()) {
      return response.status();
    }
    *storage = std::move(response).value();
    return BytesView(*storage);
  }

  // True when the transport can bound one exchange in real time — the
  // signal for the client runtime to run its per-attempt retry loop.
  // Simulated transports return false, which keeps sim runs single-attempt
  // and deterministic.
  virtual bool SupportsBudget() const { return false; }

  // True when RoundTripWave runs a wave as one exchange. Otherwise the
  // client makes a wave's calls one after another.
  virtual bool SupportsWaves() const { return false; }

  // Runs a wave of calls to (`to_host`, `port`) on the calling thread:
  // each round sends every message `calls` hands out before it reads any
  // reply, then reads replies into `calls.Accept` until none is pending or
  // the round's wait runs out. A socket error ends the wave with that
  // status. Only transports whose SupportsWaves() is true implement it.
  HCS_NODISCARD virtual Status RoundTripWave(const std::string& to_host, uint16_t port,
                                             WaveCalls& calls) {
    (void)to_host;
    (void)port;
    (void)calls;
    return UnimplementedError("transport runs no waves");
  }
};

// Transport over the simulated internetwork. Endpoints are the services
// registered with the World; latency is charged to the virtual clock.
class SimNetTransport : public Transport {
 public:
  explicit SimNetTransport(World* world) : world_(world) {}

  HCS_NODISCARD Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& message) override {
    return world_->RoundTrip(from_host, to_host, port, message);
  }

 private:
  World* world_;
};

// In-process transport: host names are ignored, ports index a local table.
// No simulated time; useful for real-time operation and transport-agnostic
// tests.
class LoopbackTransport : public Transport {
 public:
  // Registers a service at `port`. The service must outlive the transport.
  HCS_NODISCARD Status Register(uint16_t port, SimService* service) {
    if (services_.count(port) != 0) {
      return AlreadyExistsError("loopback port already in use: " + std::to_string(port));
    }
    services_[port] = service;
    return Status::Ok();
  }

  void Unregister(uint16_t port) { services_.erase(port); }

  HCS_NODISCARD Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& message) override {
    (void)from_host;
    (void)to_host;
    auto it = services_.find(port);
    if (it == services_.end()) {
      return UnavailableError("no loopback service on port " + std::to_string(port));
    }
    return it->second->HandleMessage(message);
  }

 private:
  std::map<uint16_t, SimService*> services_;
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_TRANSPORT_H_
