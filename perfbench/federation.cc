#include "perfbench/federation.h"

#include <cstdlib>

#include "src/bindns/server.h"
#include "src/ch/server.h"
#include "src/common/strings.h"
#include "src/hns/servers.h"
#include "src/nsm/bind_nsms.h"
#include "src/nsm/ch_nsms.h"
#include "src/rpc/control.h"
#include "src/rpc/portmapper.h"
#include "src/rpc/ports.h"

namespace hnsbench {

namespace {

// Host labels (UdpTransport ignores them; the Worlds need them).
constexpr char kClientHost[] = "tahiti.cs.washington.edu";
constexpr char kMetaBindHost[] = "wolf.cs.washington.edu";
constexpr char kPublicBindHost[] = "cascade.cs.washington.edu";
constexpr char kPortmapHost[] = "fiji.cs.washington.edu";
constexpr char kNsmHost[] = "yakima.cs.washington.edu";
constexpr char kChServerHost[] = "Dandelion:CSL:Xerox";
constexpr uint32_t kNsmHostAddress = 0x0a00fffe;

constexpr char kNsBind[] = "UW-BIND";
constexpr char kNsCh[] = "Xerox-CH";

struct NsmDef {
  const char* name;
  const char* query_class;
  const char* ns_name;
};
const NsmDef kNsmDefs[kNsms] = {
    {"HostAddrNSM-BIND", hcs::kQueryClassHostAddress, kNsBind},
    {"BindingNSM-BIND", hcs::kQueryClassHrpcBinding, kNsBind},
    {"MailboxNSM-BIND", hcs::kQueryClassMailboxInfo, kNsBind},
    {"HostAddrNSM-CH", hcs::kQueryClassHostAddress, kNsCh},
    {"BindingNSM-CH", hcs::kQueryClassHrpcBinding, kNsCh},
    {"MailboxNSM-CH", hcs::kQueryClassMailboxInfo, kNsCh},
};

hcs::ChCredentials Credentials() {
  hcs::ChCredentials creds;
  creds.user = "HCS:CSL:Xerox";
  creds.password = "hcs-password";
  return creds;
}

// The NSM's registration record before it is bound (port: a placeholder
// that only keys the NSM server inside its own World).
hcs::NsmInfo BaseInfo(NsmId id) {
  const NsmDef& def = kNsmDefs[static_cast<int>(id)];
  hcs::NsmInfo info;
  info.nsm_name = def.name;
  info.query_class = def.query_class;
  info.ns_name = def.ns_name;
  info.host = kNsmHost;
  info.host_context = "BIND";
  info.program = hcs::kNsmProgram;
  info.port = static_cast<uint16_t>(hcs::kNsmBasePort + static_cast<int>(id));
  return info;
}

// Serves a span per request around the wrapped endpoint. The trace id comes
// from the request's own header, read through the public control-protocol
// decoder; the frame is then forwarded to the server's zero-copy entry.
class TracedService : public hcs::SimService {
 public:
  TracedService(hcs::RpcServer* inner, Layer layer, SpanLog* spans)
      : inner_(inner),
        control_(hcs::GetControlProtocol(inner->control_kind())),
        layer_(layer),
        spans_(spans) {}

  hcs::Result<hcs::Bytes> HandleMessage(const hcs::Bytes& request) override {
    return HandleFrame(request.data(), request.size());
  }

  hcs::Result<hcs::Bytes> HandleFrame(const uint8_t* data, size_t size) override {
    Span span;
    span.layer = layer_;
    span.start_ns = NowNs();
    if (hcs::Result<hcs::RpcCallView> call = control_.DecodeCallView(data, size); call.ok()) {
      span.trace_id = call->context.trace_id;
    }
    hcs::Result<hcs::Bytes> reply = inner_->HandleFrame(data, size);
    span.end_ns = NowNs();
    spans_->Record(span);
    return reply;
  }

 private:
  hcs::RpcServer* inner_;
  const hcs::ControlProtocol& control_;
  Layer layer_;
  SpanLog* spans_;
};

}  // namespace

void UseReactorServing() { setenv("HCS_REACTOR", "1", 1); }

const char* NsmName(NsmId id) { return kNsmDefs[static_cast<int>(id)].name; }

NsmId NsmFor(Pair pair) {
  switch (pair) {
    case Pair::kBindBinding:
      return NsmId::kBindingBind;
    case Pair::kBindHost:
      return NsmId::kHostAddrBind;
    case Pair::kBindMail:
      return NsmId::kMailboxBind;
    case Pair::kChHost:
      return NsmId::kHostAddrCh;
    case Pair::kChBinding:
      return NsmId::kBindingCh;
    case Pair::kChMail:
      return NsmId::kMailboxCh;
  }
  return NsmId::kHostAddrBind;
}

// --- PortMapTransport --------------------------------------------------------

PortMapTransport::PortMapTransport(std::map<uint16_t, uint16_t> ports, SpanLog* spans)
    : ports_(std::move(ports)), spans_(spans) {}

hcs::Result<hcs::Bytes> PortMapTransport::RoundTrip(const std::string& from_host,
                                                    const std::string& to_host, uint16_t port,
                                                    const hcs::Bytes& message) {
  return RoundTripWithBudget(from_host, to_host, port, message, 0);
}

hcs::Result<hcs::Bytes> PortMapTransport::RoundTripWithBudget(const std::string& from_host,
                                                              const std::string& to_host,
                                                              uint16_t port,
                                                              const hcs::Bytes& message,
                                                              int64_t budget_ms) {
  auto it = ports_.find(port);
  if (it == ports_.end()) {
    return hcs::UnavailableError("no benchmark endpoint behind port " + std::to_string(port));
  }
  Span span;
  span.layer = Layer::kNsmCall;
  span.start_ns = spans_ != nullptr ? NowNs() : 0;
  hcs::Result<hcs::Bytes> reply =
      udp_.RoundTripWithBudget(from_host, to_host, it->second, message, budget_ms);
  if (spans_ != nullptr) {
    span.end_ns = NowNs();
    span.trace_id = hcs::CurrentRequestContext().trace_id;
    spans_->Record(span);
  }
  return reply;
}

// --- Federation --------------------------------------------------------------

hcs::Result<std::unique_ptr<Federation>> Federation::Start(FederationOptions options) {
  std::unique_ptr<Federation> federation(new Federation(std::move(options)));
  HCS_RETURN_IF_ERROR(federation->Build());
  return federation;
}

Federation::~Federation() { host_.StopAll(); }

hcs::World* Federation::NewWorld(const std::string& host) {
  worlds_.push_back(std::make_unique<hcs::World>());
  hcs::World* world = worlds_.back().get();
  if (!host.empty()) {
    (void)world->network().AddHost(host, hcs::MachineType::kMicroVax, hcs::OsType::kUnix);  // hcs:ignore-status(a fresh World never holds the host yet)
  }
  return world;
}

hcs::Result<uint16_t> Federation::ServeEndpoint(hcs::RpcServer* server, Layer layer) {
  if (options_.spans == nullptr) {
    return host_.Serve(server);
  }
  wrappers_.push_back(std::make_unique<TracedService>(server, layer, options_.spans));
  return host_.Serve(wrappers_.back().get());
}

std::shared_ptr<hcs::Nsm> Federation::MakeNsm(NsmId id, hcs::World* world) {
  hcs::NsmInfo info = BaseInfo(id);
  hcs::Transport* transport = nsm_transport_.get();
  switch (id) {
    case NsmId::kHostAddrBind:
      return std::make_shared<hcs::BindHostAddressNsm>(world, kNsmHost, transport, info,
                                                       kPublicBindHost);
    case NsmId::kBindingBind:
      return std::make_shared<hcs::BindBindingNsm>(world, kNsmHost, transport, info,
                                                   kPublicBindHost);
    case NsmId::kMailboxBind:
      return std::make_shared<hcs::BindMailboxNsm>(world, kNsmHost, transport, info,
                                                   kPublicBindHost);
    case NsmId::kHostAddrCh:
      return std::make_shared<hcs::ChHostAddressNsm>(world, kNsmHost, transport, info,
                                                     kChServerHost, Credentials());
    case NsmId::kBindingCh:
      return std::make_shared<hcs::ChBindingNsm>(world, kNsmHost, transport, info,
                                                 kChServerHost, Credentials());
    case NsmId::kMailboxCh:
      return std::make_shared<hcs::ChMailboxNsm>(world, kNsmHost, transport, info,
                                                 kChServerHost, Credentials());
  }
  return nullptr;
}

hcs::Status Federation::Build() {
  const Population& population = *options_.population;

  // --- HNS-modified meta BIND -------------------------------------------------
  hcs::BindServerOptions meta_options;
  meta_options.allow_dynamic_update = true;
  meta_options.allow_unspecified_type = true;
  HCS_ASSIGN_OR_RETURN(hcs::BindServer * meta,
                       hcs::BindServer::InstallOn(NewWorld(kMetaBindHost), kMetaBindHost,
                                                  meta_options));
  HCS_RETURN_IF_ERROR(meta->AddZone(hcs::MetaStore::kMetaZoneOrigin).status());

  // --- Public BIND ------------------------------------------------------------
  HCS_ASSIGN_OR_RETURN(hcs::BindServer * public_bind,
                       hcs::BindServer::InstallOn(NewWorld(kPublicBindHost), kPublicBindHost,
                                                  hcs::BindServerOptions{}));
  HCS_ASSIGN_OR_RETURN(hcs::Zone * zone, public_bind->AddZone(kBindDomain));
  HCS_RETURN_IF_ERROR(zone->Add(hcs::ResourceRecord::MakeA(kNsmHost, kNsmHostAddress)));
  for (uint32_t i = 0; i < population.size(); ++i) {
    BindHost host = population.BindHostAt(i);
    HCS_RETURN_IF_ERROR(zone->Add(hcs::ResourceRecord::MakeA(host.name, host.address)));
    HCS_RETURN_IF_ERROR(zone->Add(
        hcs::MakeSunServiceRecord(host.name, kBindService, host.program, 1, hcs::kIpProtoUdp)));
    MailDomain domain = population.MailDomainAt(i);
    hcs::ResourceRecord best;
    best.name = domain.name;
    best.type = hcs::RrType::kMx;
    best.rdata = hcs::BytesFromString(std::to_string(domain.best_preference) + " " +
                                      domain.best_relay);
    hcs::ResourceRecord other = best;
    other.rdata = hcs::BytesFromString(std::to_string(domain.other_preference) + " " +
                                       domain.other_relay);
    HCS_RETURN_IF_ERROR(zone->Add(domain.best_first ? best : other));
    HCS_RETURN_IF_ERROR(zone->Add(domain.best_first ? other : best));
  }

  // --- Clearinghouse ------------------------------------------------------------
  hcs::World* ch_world = NewWorld("");
  (void)ch_world->network().AddHost(kChServerHost, hcs::MachineType::kXeroxD, hcs::OsType::kXde);  // hcs:ignore-status(a fresh World never holds the host yet)
  HCS_ASSIGN_OR_RETURN(hcs::ChServer * ch,
                       hcs::ChServer::InstallOn(ch_world, kChServerHost, hcs::ChServerOptions{}));
  ch->AddDomain(kChDomain, kChOrganization);
  hcs::ChCredentials creds = Credentials();
  ch->AddAccount(creds.user, creds.password);
  for (uint32_t i = 0; i < population.size(); ++i) {
    ChHost host = population.ChHostAt(i);
    hcs::ChAddItemRequest add;
    add.credentials = creds;
    HCS_ASSIGN_OR_RETURN(add.name, hcs::ChName::Parse(host.name));
    add.property = hcs::kChPropAddress;
    add.item = hcs::RecordBuilder().U32("address", host.address).Build();
    HCS_RETURN_IF_ERROR(ch->AddItemLocal(add).status());
    add.property = hcs::kChPropService;
    add.item = hcs::RecordBuilder()
                   .Value(hcs::AsciiToLower(kChService), hcs::RecordBuilder()
                                                             .U32("program", host.program)
                                                             .U32("version", 1)
                                                             .U32("port", host.port)
                                                             .Build())
                   .Build();
    HCS_RETURN_IF_ERROR(ch->AddItemLocal(add).status());
    ChUser user = population.ChUserAt(i);
    HCS_ASSIGN_OR_RETURN(add.name, hcs::ChName::Parse(user.name));
    add.property = hcs::kChPropMailboxes;
    add.item = hcs::RecordBuilder().Str("mail_host", user.mail_host).Build();
    HCS_RETURN_IF_ERROR(ch->AddItemLocal(add).status());
  }

  // --- Portmapper -----------------------------------------------------------------
  HCS_ASSIGN_OR_RETURN(hcs::PortMapper * portmapper,
                       hcs::PortMapper::InstallOn(NewWorld(kPortmapHost), kPortmapHost));
  for (uint32_t program : Population::AllPrograms()) {
    portmapper->SetMapping(program, 1, hcs::kIpProtoUdp, Population::PortForProgram(program));
  }

  // --- Bind the underlying services; NSMs reach them through the port map --------
  HCS_ASSIGN_OR_RETURN(meta_port_, ServeEndpoint(meta->rpc(), Layer::kMetaBind));
  HCS_ASSIGN_OR_RETURN(uint16_t public_port, ServeEndpoint(public_bind->rpc(), Layer::kPublicBind));
  HCS_ASSIGN_OR_RETURN(uint16_t ch_port, ServeEndpoint(ch->rpc(), Layer::kCh));
  HCS_ASSIGN_OR_RETURN(uint16_t pm_port, ServeEndpoint(portmapper->server(), Layer::kPortmap));
  nsm_transport_ = std::make_unique<PortMapTransport>(
      std::map<uint16_t, uint16_t>{{hcs::kBindPort, public_port},
                                   {hcs::kClearinghousePort, ch_port},
                                   {hcs::kPortmapperPort, pm_port}},
      options_.spans);

  // --- NSM servers ------------------------------------------------------------------
  for (int n = 0; n < kNsms; ++n) {
    NsmId id = static_cast<NsmId>(n);
    int replicas = 1;
    for (NsmId replicated : options_.replicated) {
      replicas = replicated == id ? 2 : replicas;
    }
    for (int replica = 0; replica < replicas; ++replica) {
      std::shared_ptr<hcs::Nsm> nsm = MakeNsm(id, NewWorld(""));
      HCS_ASSIGN_OR_RETURN(hcs::NsmServer * server, hcs::NsmServer::InstallOn(NewWorld(kNsmHost), nsm));
      HCS_ASSIGN_OR_RETURN(uint16_t port, ServeEndpoint(server->rpc(), Layer::kNsm));
      served_[{id, replica}] = {std::move(nsm), port};
    }
  }

  // --- Registration with the HNS ---------------------------------------------------
  hcs::HnsOptions admin_options;
  admin_options.meta_server_host = kMetaBindHost;
  admin_options.cache_mode = hcs::CacheMode::kNone;
  hcs::Hns admin(nullptr, kClientHost, &client_transport_, admin_options);
  admin.meta().set_meta_port(meta_port_);
  for (auto [name, type] : {std::pair{kNsBind, "BIND"}, std::pair{kNsCh, "Clearinghouse"}}) {
    hcs::NameServiceInfo info;
    info.name = name;
    info.type = type;
    HCS_RETURN_IF_ERROR(admin.RegisterNameService(info));
  }
  for (int p = 0; p < kPairs; ++p) {
    const PairSpec& spec = SpecOf(static_cast<Pair>(p));
    HCS_RETURN_IF_ERROR(admin.RegisterContext(
        spec.context, kNsmDefs[static_cast<int>(NsmFor(static_cast<Pair>(p)))].ns_name));
  }
  for (int n = 0; n < kNsms; ++n) {
    HCS_RETURN_IF_ERROR(admin.RegisterNsm(Registration(static_cast<NsmId>(n), 0)));
  }
  return hcs::Status::Ok();
}

hcs::NsmInfo Federation::Registration(NsmId id, int replica) const {
  hcs::NsmInfo info = BaseInfo(id);
  info.port = served_.at({id, replica}).second;
  return info;
}

hcs::Status Federation::WarmServedNsms(const std::vector<Target>& targets) {
  for (const auto& [key, served] : served_) {
    for (const Target& target : targets) {
      if (NsmFor(target.pair) != key.first) {
        continue;
      }
      HCS_RETURN_IF_ERROR(served.first->Query(target.name, ArgsOf(target.pair)).status());
    }
  }
  return hcs::Status::Ok();
}

std::vector<hcs::Nsm*> Federation::ServedNsms() const {
  std::vector<hcs::Nsm*> nsms;
  for (const auto& [key, served] : served_) {
    nsms.push_back(served.first.get());
  }
  return nsms;
}

hcs::Result<std::unique_ptr<Client>> Federation::NewClient(bool link_all_nsms) {
  auto client = std::make_unique<Client>();
  hcs::SessionOptions options;
  options.hns_location = hcs::HnsLocation::kLinked;
  options.nsm_location = link_all_nsms ? hcs::NsmLocation::kLinked : hcs::NsmLocation::kRemote;
  options.hns.meta_server_host = kMetaBindHost;
  options.hns.composite_cache = true;
  client->session =
      std::make_unique<hcs::HnsSession>(nullptr, kClientHost, &client_transport_, options);
  client->session->local_hns()->meta().set_meta_port(meta_port_);
  for (int n = 0; n < kNsms; ++n) {
    NsmId id = static_cast<NsmId>(n);
    if (!link_all_nsms && id != NsmId::kHostAddrBind) {
      continue;
    }
    client->worlds.push_back(std::make_unique<hcs::World>());
    HCS_RETURN_IF_ERROR(client->session->LinkNsm(MakeNsm(id, client->worlds.back().get())));
  }
  return client;
}

}  // namespace hnsbench
