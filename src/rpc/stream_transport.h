// StreamNetTransport: the connection-oriented transports of the testbed
// (TCP/IP on the Unix side, XNS SPP on the Xerox side) over the simulated
// network. Unlike the datagram transport, the first exchange with an
// endpoint pays a connection-establishment round trip; the connection is
// then cached and later exchanges ride it. Closing (or a server restart)
// forces re-establishment.
//
// This is the fourth HRPC transport component; the cost difference between
// datagram and stream transports is visible to the colocation experiments
// exactly as it was to the 1987 prototype's 22-38 ms Sun-vs-Courier spread.

#ifndef HCS_SRC_RPC_STREAM_TRANSPORT_H_
#define HCS_SRC_RPC_STREAM_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/sync.h"
#include "src/rpc/transport.h"
#include "src/sim/world.h"

namespace hcs {

class StreamNetTransport : public Transport {
 public:
  explicit StreamNetTransport(World* world) : world_(world) {}

  HCS_NODISCARD Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& message) override;

  // Drops one cached connection (peer closed / timeout); the next exchange
  // re-establishes it.
  void CloseConnection(const std::string& from_host, const std::string& to_host,
                       uint16_t port);
  // Drops every cached connection (process restart).
  void CloseAll() { established_.clear(); }

  size_t open_connections() const { return established_.size(); }
  uint64_t connects() const { return connects_; }

 private:
  static std::string Key(const std::string& from_host, const std::string& to_host,
                         uint16_t port);

  World* world_;
  std::set<std::string> established_;
  uint64_t connects_ = 0;
};

// Real TCP client transport over 127.0.0.1, framed as 4-byte big-endian
// length + payload (the reactor's ServeStream framing). Connections are
// cached per port and reused across calls, one call at a time each; a
// timeout or IO error discards the connection and the next call
// reconnects. All socket IO is
// nonblocking with explicit poll-bounded loops — partial reads and short
// writes (a dribbling or slow peer) are reassembled, never treated as
// errors, and a frame length beyond the cap is rejected outright.
class TcpStreamTransport : public Transport {
 public:
  explicit TcpStreamTransport(int timeout_ms = 2000) : timeout_ms_(timeout_ms) {}
  ~TcpStreamTransport() override;

  TcpStreamTransport(const TcpStreamTransport&) = delete;
  TcpStreamTransport& operator=(const TcpStreamTransport&) = delete;

  HCS_NODISCARD Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& message) override;
  HCS_NODISCARD Result<Bytes> RoundTripWithBudget(const std::string& from_host, const std::string& to_host,
                                    uint16_t port, const Bytes& message,
                                    int64_t budget_ms) override;
  // The blocking client's exchange: a frame `reply` rejects (a duplicate
  // of an earlier call's reply, still queued on the pooled connection) is
  // dropped, and the read goes on within the same timeout.
  HCS_NODISCARD Result<BytesView> RoundTripMatching(const std::string& from_host,
                                                    const std::string& to_host, uint16_t port,
                                                    const Bytes& message, int64_t budget_ms,
                                                    const ReplyMatcher& reply,
                                                    Bytes* storage) override;
  bool SupportsBudget() const override { return true; }

  // Drops every cached connection (process restart).
  void CloseAll();
  // TCP connects performed (reuse means fewer connects than calls).
  uint64_t connects() const;

 private:
  // Takes a pooled connection to 127.0.0.1:`port`, or dials a new one.
  HCS_NODISCARD Result<int> AcquireConnection(uint16_t port, int64_t deadline_ms);
  void ReleaseConnection(uint16_t port, int fd);
  // `reply` null: the first frame read is the answer.
  HCS_NODISCARD Result<Bytes> Exchange(uint16_t port, const Bytes& message, int64_t timeout_ms,
                                       const ReplyMatcher* reply);

  int timeout_ms_;
  mutable Mutex mutex_{"tcp-stream-transport"};
  // Idle pooled connections per port; a connection in use by a call is
  // checked out, so concurrent callers each get their own.
  std::map<uint16_t, std::vector<int>> idle_ HCS_GUARDED_BY(mutex_);
  uint64_t connects_ HCS_GUARDED_BY(mutex_) = 0;
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_STREAM_TRANSPORT_H_
