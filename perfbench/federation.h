// The loopback federation: the HNS-modified meta BIND, a public BIND, a
// Clearinghouse, a portmapper and the NSM servers, each a sim-era server
// object in a World of its own, served on 127.0.0.1 UDP sockets through one
// unmodified UdpServerHost on the reactor. Clients are HnsSessions with a
// linked Hns and the composite cache on, in Table 3.1 row 1 ([Client, HNS,
// NSMs]) or row 4 ([NSMs] [Client, HNS]).
//
// Wiring:
//   - UdpTransport sends every datagram to 127.0.0.1 and ignores the host
//     name, so every host name below is a label only.
//   - NSMs dial BIND, the Clearinghouse and the portmapper at the fixed
//     ports of src/rpc/ports.h. Every NSM instance — served, or linked into
//     a client — therefore gets PortMapTransport, which maps those ports to
//     the bound ones. The clients' own transport is a plain UdpTransport, so
//     client calls take the AsyncClientEngine path.
//   - NSMs are registered with their bound ports through Hns::RegisterNsm.
//   - VirtualClock is not thread-safe: each served server, each NSM
//     instance and each linked NSM gets its own World.

#ifndef PERFBENCH_FEDERATION_H_
#define PERFBENCH_FEDERATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/gen.h"
#include "perfbench/trace.h"
#include "src/hns/session.h"
#include "src/rpc/server.h"
#include "src/rpc/udp_transport.h"
#include "src/sim/world.h"

namespace hnsbench {

// Selects the reactor for every UdpServerHost the process creates. Call
// once at startup, before any thread exists.
void UseReactorServing();

// The six NSMs, one per (name service, query class).
enum class NsmId : uint8_t {
  kHostAddrBind,
  kBindingBind,
  kMailboxBind,
  kHostAddrCh,
  kBindingCh,
  kMailboxCh,
};
constexpr int kNsms = 6;
NsmId NsmFor(Pair pair);
const char* NsmName(NsmId id);

// Transport for NSM instances: maps the fixed BIND/CH/portmapper ports to
// the bound ones and sends over UdpTransport's blocking exchange. With a
// span log it records each call as the caller saw it (Layer::kNsmCall).
class PortMapTransport : public hcs::Transport {
 public:
  PortMapTransport(std::map<uint16_t, uint16_t> ports, SpanLog* spans);

  hcs::Result<hcs::Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                                    uint16_t port, const hcs::Bytes& message) override;
  hcs::Result<hcs::Bytes> RoundTripWithBudget(const std::string& from_host,
                                              const std::string& to_host, uint16_t port,
                                              const hcs::Bytes& message,
                                              int64_t budget_ms) override;
  bool SupportsBudget() const override { return true; }

 private:
  std::map<uint16_t, uint16_t> ports_;
  hcs::UdpTransport udp_;
  SpanLog* spans_;
};

// A client process: one HnsSession and the Worlds of the NSMs linked into
// it (declared first, so they outlive the session's NSM instances).
struct Client {
  std::vector<std::unique_ptr<hcs::World>> worlds;
  std::unique_ptr<hcs::HnsSession> session;
};

struct FederationOptions {
  const Population* population = nullptr;
  // Non-null: every served endpoint records a span per request.
  SpanLog* spans = nullptr;
  // Serve a second replica of each NSM in `replicated`.
  std::vector<NsmId> replicated;
};

class Federation {
 public:
  // Builds the zones and CH domain from the population, binds every
  // endpoint and registers name services, contexts and NSMs (replica 0).
  static hcs::Result<std::unique_ptr<Federation>> Start(FederationOptions options);
  ~Federation();

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  // A fresh client. Row 1 links all six NSMs into it; row 4 links only the
  // BIND host-address NSM that resolves the NSM host inside FindNSM.
  hcs::Result<std::unique_ptr<Client>> NewClient(bool link_all_nsms);

  // The registration record of a served NSM replica (its bound port).
  hcs::NsmInfo Registration(NsmId id, int replica) const;

  // Fills the served NSMs' caches for `targets` by calling each replica
  // directly. Call before any caller thread starts.
  hcs::Status WarmServedNsms(const std::vector<Target>& targets);

  // The served NSM instances (every replica).
  std::vector<hcs::Nsm*> ServedNsms() const;

  hcs::UdpServerHost& host() { return host_; }

 private:
  explicit Federation(FederationOptions options) : options_(std::move(options)) {}

  hcs::Status Build();
  hcs::Result<uint16_t> ServeEndpoint(hcs::RpcServer* server, Layer layer);
  hcs::World* NewWorld(const std::string& host);
  std::shared_ptr<hcs::Nsm> MakeNsm(NsmId id, hcs::World* world);

  FederationOptions options_;
  std::vector<std::unique_ptr<hcs::World>> worlds_;
  std::vector<std::unique_ptr<hcs::SimService>> wrappers_;
  std::unique_ptr<PortMapTransport> nsm_transport_;
  hcs::UdpTransport client_transport_;
  uint16_t meta_port_ = 0;
  // (NSM, replica) -> served instance and bound port.
  std::map<std::pair<NsmId, int>, std::pair<std::shared_ptr<hcs::Nsm>, uint16_t>> served_;
  // Declared last: destroyed (stopped) before everything it serves.
  hcs::UdpServerHost host_;
};

}  // namespace hnsbench

#endif  // PERFBENCH_FEDERATION_H_
