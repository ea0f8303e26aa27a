// Heap allocations per warm remote resolution. The remote NSM query hop is
// meant to cost one encode into the buffer handed to the socket and one
// decode from the buffer the socket filled (DESIGN.md §17), so a warm
// HnsSession::Query — composite-cache FindNSM, one UDP exchange to an NSM
// served on the reactor, an NSM cache hit — should allocate little, on the
// client and the server together. This binary replaces the global
// operator new with a counting one and holds the count per resolution to a
// bound; it is a separate test binary because the replacement is
// process-wide.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/bindns/record.h"
#include "src/bindns/server.h"
#include "src/hns/hns.h"
#include "src/hns/query_class.h"
#include "src/hns/servers.h"
#include "src/hns/session.h"
#include "src/nsm/bind_nsms.h"
#include "src/rpc/ports.h"
#include "src/rpc/udp_transport.h"
#include "src/sim/world.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
// GCC pairs free() with malloc() only; here operator new is malloc-backed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace hcs {
namespace {

constexpr char kClientHost[] = "tahiti.cs.washington.edu";
constexpr char kMetaBindHost[] = "wolf.cs.washington.edu";
constexpr char kPublicBindHost[] = "cascade.cs.washington.edu";
constexpr char kNsmHost[] = "yakima.cs.washington.edu";
constexpr char kNameService[] = "UW-BIND";
constexpr uint32_t kNsmHostAddress = 0x0a00fffe;

// Warm resolutions measured, after the warm-up ones.
constexpr int kResolutions = 2000;
// Allocations per warm remote resolution, client plus server. The code
// this bound was set on measured 15 (the codecs before their one-encode,
// one-decode rework measured 66 on this same test). The margin absorbs
// library differences; one lost copy per field on the hop exceeds it.
constexpr double kMaxAllocationsPerResolution = 18.0;

// Sends every exchange to the port the fixed BIND port is served on.
class PortMapTransport : public Transport {
 public:
  explicit PortMapTransport(uint16_t bind_port) : bind_port_(bind_port) {}

  Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& message) override {
    return udp_.RoundTrip(from_host, to_host, port == kBindPort ? bind_port_ : port, message);
  }

 private:
  uint16_t bind_port_;
  UdpTransport udp_;
};

NsmInfo HostAddressNsmInfo() {
  NsmInfo info;
  info.nsm_name = "HostAddrNSM-BIND";
  info.query_class = kQueryClassHostAddress;
  info.ns_name = kNameService;
  info.host = kNsmHost;
  info.host_context = "BIND";
  info.program = kNsmProgram;
  info.port = kNsmBasePort;
  return info;
}

World* NewWorld(std::vector<std::unique_ptr<World>>* worlds, const std::string& host) {
  worlds->push_back(std::make_unique<World>());
  World* world = worlds->back().get();
  if (!host.empty()) {
    EXPECT_TRUE(world->network().AddHost(host, MachineType::kMicroVax, OsType::kUnix).ok());
  }
  return world;
}

std::string TargetHost(int i) { return "host" + std::to_string(i) + ".cs.washington.edu"; }

TEST(HopAllocTest, WarmRemoteResolutionAllocatesWithinItsBudget) {
  std::vector<std::unique_ptr<World>> worlds;
  UdpServerHost host(/*reactor_workers=*/2);

  BindServerOptions meta_options;
  meta_options.allow_dynamic_update = true;
  meta_options.allow_unspecified_type = true;
  Result<BindServer*> meta =
      BindServer::InstallOn(NewWorld(&worlds, kMetaBindHost), kMetaBindHost, meta_options);
  ASSERT_TRUE(meta.ok()) << meta.status();
  ASSERT_TRUE((*meta)->AddZone(MetaStore::kMetaZoneOrigin).ok());

  Result<BindServer*> public_bind = BindServer::InstallOn(
      NewWorld(&worlds, kPublicBindHost), kPublicBindHost, BindServerOptions{});
  ASSERT_TRUE(public_bind.ok()) << public_bind.status();
  Result<Zone*> zone = (*public_bind)->AddZone("cs.washington.edu");
  ASSERT_TRUE(zone.ok()) << zone.status();
  ASSERT_TRUE((*zone)->Add(ResourceRecord::MakeA(kNsmHost, kNsmHostAddress)).ok());
  constexpr int kTargets = 4;
  for (int i = 0; i < kTargets; ++i) {
    ASSERT_TRUE((*zone)->Add(ResourceRecord::MakeA(TargetHost(i), 0x0a000100u + i)).ok());
  }

  Result<uint16_t> meta_port = host.Serve((*meta)->rpc());
  ASSERT_TRUE(meta_port.ok()) << meta_port.status();
  Result<uint16_t> public_port = host.Serve((*public_bind)->rpc());
  ASSERT_TRUE(public_port.ok()) << public_port.status();
  PortMapTransport nsm_transport(*public_port);

  std::shared_ptr<Nsm> nsm = std::make_shared<BindHostAddressNsm>(
      NewWorld(&worlds, ""), kNsmHost, &nsm_transport, HostAddressNsmInfo(), kPublicBindHost);
  Result<NsmServer*> nsm_server = NsmServer::InstallOn(NewWorld(&worlds, kNsmHost), nsm);
  ASSERT_TRUE(nsm_server.ok()) << nsm_server.status();
  Result<uint16_t> nsm_port = host.Serve((*nsm_server)->rpc());
  ASSERT_TRUE(nsm_port.ok()) << nsm_port.status();

  // Register the name service, its context, and the served NSM.
  UdpTransport client_transport;
  HnsOptions admin_options;
  admin_options.meta_server_host = kMetaBindHost;
  admin_options.cache_mode = CacheMode::kNone;
  Hns admin(nullptr, kClientHost, &client_transport, admin_options);
  admin.meta().set_meta_port(*meta_port);
  NameServiceInfo ns;
  ns.name = kNameService;
  ns.type = "BIND";
  ASSERT_TRUE(admin.RegisterNameService(ns).ok());
  ASSERT_TRUE(admin.RegisterContext("BIND", kNameService).ok());
  NsmInfo registration = HostAddressNsmInfo();
  registration.port = *nsm_port;
  ASSERT_TRUE(admin.RegisterNsm(registration).ok());

  // The client links the HNS and a HostAddress NSM (for the NSM's own
  // host address) and calls the served NSM remotely.
  SessionOptions options;
  options.hns_location = HnsLocation::kLinked;
  options.nsm_location = NsmLocation::kRemote;
  options.hns.meta_server_host = kMetaBindHost;
  options.hns.composite_cache = true;
  HnsSession session(nullptr, kClientHost, &client_transport, options);
  session.local_hns()->meta().set_meta_port(*meta_port);
  ASSERT_TRUE(session
                  .LinkNsm(std::make_shared<BindHostAddressNsm>(
                      NewWorld(&worlds, ""), kClientHost, &nsm_transport, HostAddressNsmInfo(),
                      kPublicBindHost))
                  .ok());

  std::vector<HnsName> names(kTargets);
  for (int i = 0; i < kTargets; ++i) {
    names[i].context = "BIND";
    names[i].individual = TargetHost(i);
  }
  const WireValue no_args = WireValue::OfRecord({});
  auto resolve = [&](int i) {
    const HnsName& name = names[i % kTargets];
    Result<WireValue> result = session.Query(name, kQueryClassHostAddress, no_args);
    ASSERT_TRUE(result.ok()) << result.status();
    Result<uint32_t> address = result->Uint32Field("address");
    ASSERT_TRUE(address.ok()) << address.status();
    EXPECT_EQ(*address, 0x0a000100u + static_cast<uint32_t>(i % kTargets));
  };

  // Warm-up: every cache on the path (composite, meta, NSM) fills, and
  // every thread-local buffer reaches its working size.
  for (int i = 0; i < 200; ++i) {
    resolve(i);
  }
  ASSERT_NE(nsm->cache(), nullptr);
  const uint64_t served_hits_before = nsm->cache()->stats().hits;

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kResolutions; ++i) {
    resolve(i);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  // Every measured resolution crossed the hop and hit the served NSM's
  // cache: nothing was answered on the client side.
  EXPECT_EQ(nsm->cache()->stats().hits - served_hits_before,
            static_cast<uint64_t>(kResolutions));
  const double per_resolution =
      static_cast<double>(after - before) / static_cast<double>(kResolutions);
  std::printf("heap allocations per warm remote resolution: %.2f\n", per_resolution);
  EXPECT_LE(per_resolution, kMaxAllocationsPerResolution);

  host.StopAll();
}

}  // namespace
}  // namespace hcs
