// Heap allocations per warm resolution, in two arrangements:
//   - remote NSM: the hop is meant to cost one encode into the buffer handed
//     to the socket and one decode from the buffer the socket filled
//     (DESIGN.md §17), so a warm HnsSession::Query — composite-cache
//     FindNSM, one UDP exchange to an NSM served on the reactor, an NSM
//     cache hit — should allocate little, on the client and the server
//     together;
//   - everything linked (Table 3.1 row 1): a warm query is a composite hit
//     and a marshalled NSM-cache hit, which should allocate only the answer
//     they hand back (DESIGN.md §8).
// This binary replaces the global operator new with a counting one and
// holds the count per resolution to a bound; it is a separate test binary
// because the replacement is process-wide.

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
// this bound was set on measured 12 (15 before the composite hit and the
// NSM cache probe stopped building keys and copying invalidation metadata;
// 66 before the codecs' one-encode, one-decode rework). The margin absorbs
// library differences; one lost copy per field on the hop exceeds it.
constexpr double kMaxAllocationsPerResolution = 14.0;
// Allocations per warm linked resolution. What it must allocate is the
// answer: the composite hit's NSM name and binding strings (3) and the NSM
// result decoded from its marshalled cache entry (its field vector and the
// host string, 2). Measured 5 (8 before this bound was set: folded key
// strings for both probes and the linked-NSM lookup, and the whole
// composite entry copied); a key built on the heap again exceeds it.
constexpr double kMaxAllocationsPerLinkedResolution = 5.0;

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

constexpr int kTargets = 4;

// The BIND side every arrangement resolves against, served over UDP on one
// host: the meta store (name service, context, NSM registration) and the
// public zone holding the NSM's host and the target hosts.
class BindSide {
 public:
  void SetUp() {
    BindServerOptions meta_options;
    meta_options.allow_dynamic_update = true;
    meta_options.allow_unspecified_type = true;
    Result<BindServer*> meta =
        BindServer::InstallOn(NewWorld(&worlds_, kMetaBindHost), kMetaBindHost, meta_options);
    ASSERT_TRUE(meta.ok()) << meta.status();
    ASSERT_TRUE((*meta)->AddZone(MetaStore::kMetaZoneOrigin).ok());

    Result<BindServer*> public_bind = BindServer::InstallOn(
        NewWorld(&worlds_, kPublicBindHost), kPublicBindHost, BindServerOptions{});
    ASSERT_TRUE(public_bind.ok()) << public_bind.status();
    Result<Zone*> zone = (*public_bind)->AddZone("cs.washington.edu");
    ASSERT_TRUE(zone.ok()) << zone.status();
    ASSERT_TRUE((*zone)->Add(ResourceRecord::MakeA(kNsmHost, kNsmHostAddress)).ok());
    for (int i = 0; i < kTargets; ++i) {
      ASSERT_TRUE((*zone)->Add(ResourceRecord::MakeA(TargetHost(i), 0x0a000100u + i)).ok());
    }

    Result<uint16_t> meta_port = host_.Serve((*meta)->rpc());
    ASSERT_TRUE(meta_port.ok()) << meta_port.status();
    meta_port_ = *meta_port;
    Result<uint16_t> public_port = host_.Serve((*public_bind)->rpc());
    ASSERT_TRUE(public_port.ok()) << public_port.status();
    nsm_transport_ = std::make_unique<PortMapTransport>(*public_port);
  }

  // Registers the name service, its context, and the HostAddress NSM at
  // `nsm_port`.
  void Register(uint16_t nsm_port) {
    HnsOptions admin_options;
    admin_options.meta_server_host = kMetaBindHost;
    admin_options.cache_mode = CacheMode::kNone;
    Hns admin(nullptr, kClientHost, &client_transport_, admin_options);
    admin.meta().set_meta_port(meta_port_);
    NameServiceInfo ns;
    ns.name = kNameService;
    ns.type = "BIND";
    ASSERT_TRUE(admin.RegisterNameService(ns).ok());
    ASSERT_TRUE(admin.RegisterContext("BIND", kNameService).ok());
    NsmInfo registration = HostAddressNsmInfo();
    registration.port = nsm_port;
    ASSERT_TRUE(admin.RegisterNsm(registration).ok());
  }

  // A BIND HostAddress NSM running on `locus_host`.
  std::shared_ptr<Nsm> MakeNsm(const std::string& locus_host) {
    return std::make_shared<BindHostAddressNsm>(NewWorld(&worlds_, ""), locus_host,
                                                nsm_transport_.get(), HostAddressNsmInfo(),
                                                kPublicBindHost);
  }

  // A client session with a linked HNS (composite cache on) calling its
  // NSMs at `nsm_location`.
  std::unique_ptr<HnsSession> MakeSession(NsmLocation nsm_location) {
    SessionOptions options;
    options.hns_location = HnsLocation::kLinked;
    options.nsm_location = nsm_location;
    options.hns.meta_server_host = kMetaBindHost;
    options.hns.composite_cache = true;
    auto session =
        std::make_unique<HnsSession>(nullptr, kClientHost, &client_transport_, options);
    session->local_hns()->meta().set_meta_port(meta_port_);
    return session;
  }

  World* NewNsmWorld() { return NewWorld(&worlds_, kNsmHost); }
  UdpServerHost& host() { return host_; }

 private:
  std::vector<std::unique_ptr<World>> worlds_;
  UdpServerHost host_{/*reactor_workers=*/2};
  uint16_t meta_port_ = 0;
  std::unique_ptr<PortMapTransport> nsm_transport_;
  UdpTransport client_transport_;
};

// The names resolved, built once: the queries are what is measured.
std::vector<HnsName> TargetNames() {
  std::vector<HnsName> names(kTargets);
  for (int i = 0; i < kTargets; ++i) {
    names[i].context = "BIND";
    names[i].individual = TargetHost(i);
  }
  return names;
}

// Resolves target `i % kTargets` and checks the answer.
void ResolveTarget(HnsSession* session, const std::vector<HnsName>& names, int i) {
  static const WireValue no_args = WireValue::OfRecord({});
  Result<WireValue> result = session->Query(names[i % kTargets], kQueryClassHostAddress, no_args);
  ASSERT_TRUE(result.ok()) << result.status();
  Result<uint32_t> address = result->Uint32Field("address");
  ASSERT_TRUE(address.ok()) << address.status();
  EXPECT_EQ(*address, 0x0a000100u + static_cast<uint32_t>(i % kTargets));
}

// Warm-up: every cache on the path fills, and every thread-local buffer
// reaches its working size.
void WarmUp(HnsSession* session, const std::vector<HnsName>& names) {
  for (int i = 0; i < 200; ++i) {
    ResolveTarget(session, names, i);
  }
}

// Heap allocations per query over `kResolutions` queries.
double AllocationsPerResolution(HnsSession* session, const std::vector<HnsName>& names) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kResolutions; ++i) {
    ResolveTarget(session, names, i);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / static_cast<double>(kResolutions);
}

TEST(HopAllocTest, WarmRemoteResolutionAllocatesWithinItsBudget) {
  BindSide bind;
  ASSERT_NO_FATAL_FAILURE(bind.SetUp());
  std::shared_ptr<Nsm> nsm = bind.MakeNsm(kNsmHost);
  Result<NsmServer*> nsm_server = NsmServer::InstallOn(bind.NewNsmWorld(), nsm);
  ASSERT_TRUE(nsm_server.ok()) << nsm_server.status();
  Result<uint16_t> nsm_port = bind.host().Serve((*nsm_server)->rpc());
  ASSERT_TRUE(nsm_port.ok()) << nsm_port.status();
  ASSERT_NO_FATAL_FAILURE(bind.Register(*nsm_port));

  // The client links the HNS and a HostAddress NSM (for the NSM's own
  // host address) and calls the served NSM remotely.
  std::unique_ptr<HnsSession> session = bind.MakeSession(NsmLocation::kRemote);
  ASSERT_TRUE(session->LinkNsm(bind.MakeNsm(kClientHost)).ok());

  const std::vector<HnsName> names = TargetNames();
  ASSERT_NO_FATAL_FAILURE(WarmUp(session.get(), names));
  ASSERT_NE(nsm->cache(), nullptr);
  const uint64_t served_hits_before = nsm->cache()->stats().hits;
  const double per_resolution = AllocationsPerResolution(session.get(), names);
  // Every measured resolution crossed the hop and hit the served NSM's
  // cache: nothing was answered on the client side.
  EXPECT_EQ(nsm->cache()->stats().hits - served_hits_before,
            static_cast<uint64_t>(kResolutions));
  std::printf("heap allocations per warm remote resolution: %.2f\n", per_resolution);
  EXPECT_LE(per_resolution, kMaxAllocationsPerResolution);

  bind.host().StopAll();
}

TEST(HopAllocTest, WarmLinkedResolutionAllocatesWithinItsBudget) {
  BindSide bind;
  ASSERT_NO_FATAL_FAILURE(bind.SetUp());
  ASSERT_NO_FATAL_FAILURE(bind.Register(kNsmBasePort));

  // Row 1: client, HNS and NSM in one process; the NSM keeps its results
  // marshalled (its default), so every hit decodes the stored wire form.
  std::shared_ptr<Nsm> nsm = bind.MakeNsm(kClientHost);
  std::unique_ptr<HnsSession> session = bind.MakeSession(NsmLocation::kLinked);
  ASSERT_TRUE(session->LinkNsm(nsm).ok());
  ASSERT_EQ(nsm->cache()->mode(), CacheMode::kMarshalled);

  const std::vector<HnsName> names = TargetNames();
  ASSERT_NO_FATAL_FAILURE(WarmUp(session.get(), names));
  const CacheStats composite_before = session->local_hns()->composite_cache().stats();
  const uint64_t nsm_hits_before = nsm->cache()->stats().hits;
  const double per_resolution = AllocationsPerResolution(session.get(), names);
  // Every measured resolution was a composite hit and an NSM cache hit.
  const CacheStats composite_after = session->local_hns()->composite_cache().stats();
  EXPECT_EQ(composite_after.hits - composite_before.hits, static_cast<uint64_t>(kResolutions));
  EXPECT_EQ(composite_after.misses, composite_before.misses);
  EXPECT_EQ(nsm->cache()->stats().hits - nsm_hits_before,
            static_cast<uint64_t>(kResolutions));
  std::printf("heap allocations per warm linked resolution: %.2f\n", per_resolution);
  EXPECT_LE(per_resolution, kMaxAllocationsPerLinkedResolution);

  bind.host().StopAll();
}

}  // namespace
}  // namespace hcs
