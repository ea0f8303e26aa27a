#include "src/testbed/testbed.h"

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/rpc/ports.h"
#include "src/wire/xdr.h"

namespace hcs {

namespace {

// NSM server ports on the NSM host.
constexpr uint16_t kPortHostAddrBind = 710;
constexpr uint16_t kPortBindingBind = 711;
constexpr uint16_t kPortMailboxBind = 712;
constexpr uint16_t kPortHostAddrCh = 713;
constexpr uint16_t kPortBindingCh = 714;
constexpr uint16_t kPortMailboxCh = 715;
constexpr uint16_t kPortFileBind = 716;
constexpr uint16_t kPortFileCh = 717;
constexpr uint16_t kPortHostNameBind = 718;
constexpr uint16_t kPortHostNameCh = 719;

}  // namespace

ChCredentials TestbedCredentials() {
  ChCredentials creds;
  creds.user = "HCS:CSL:Xerox";
  creds.password = "hcs-password";
  return creds;
}

std::string ArrangementName(Arrangement a) {
  switch (a) {
    case Arrangement::kAllLinked:
      return "[Client, HNS, NSMs]";
    case Arrangement::kAgent:
      return "[Client] [HNS, NSMs]";
    case Arrangement::kRemoteHns:
      return "[HNS] [Client, NSMs]";
    case Arrangement::kRemoteNsms:
      return "[NSMs] [Client, HNS]";
    case Arrangement::kAllRemote:
      return "[Client] [HNS] [NSMs]";
  }
  return "?";
}

void ClientSetup::FlushAll() {
  if (hns_cache != nullptr) {
    hns_cache->Clear();
  }
  if (composite_cache != nullptr) {
    composite_cache->Clear();
  }
  if (flush_shared) {
    flush_shared();
  }
  FlushNsmCaches();
}

void ClientSetup::FlushNsmCaches() {
  for (HnsCache* cache : nsm_caches) {
    cache->Clear();
  }
}

Testbed::Testbed(TestbedOptions options)
    : options_(options), transport_(&world_) {
  BuildNetwork();
  BuildNameServices();
  RegisterWithHns();
  if (options_.install_remote_servers) {
    InstallRemoteServers();
  }
  BuildBaselines();
  // Setup consumed simulated time; start experiments from zero.
  world_.clock().Reset();
  world_.stats().Clear();
}

void Testbed::BuildNetwork() {
  Network& net = world_.network();
  (void)net.AddHost(kClientHost, MachineType::kMicroVax, OsType::kUnix);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)net.AddHost(kMetaBindHost, MachineType::kMicroVax, OsType::kUnix);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)net.AddHost(kMetaSecondaryHost, MachineType::kMicroVax, OsType::kUnix);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)net.AddHost(kPublicBindHost, MachineType::kMicroVax, OsType::kUnix);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)net.AddHost(kSunServerHost, MachineType::kSun, OsType::kUnix);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)net.AddHost(kHnsServerHost, MachineType::kMicroVax, OsType::kUnix);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)net.AddHost(kNsmServerHost, MachineType::kMicroVax, OsType::kUnix);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)net.AddHost(kAgentHost, MachineType::kMicroVax, OsType::kUnix);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)net.AddHost(kChServerHost, MachineType::kXeroxD, OsType::kXde);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)net.AddHost(kXeroxServerHost, MachineType::kXeroxD, OsType::kXde);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  // Filler population, so zones and tables have realistic bulk.
  for (int i = 1; i <= 20; ++i) {
    (void)net.AddHost(StrFormat("host%02d.cs.washington.edu", i), MachineType::kMicroVax,  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
                      OsType::kUnix);
  }

  // Portmappers on the Unix hosts that export or broker services.
  for (const char* host : {kClientHost, kMetaBindHost, kPublicBindHost, kSunServerHost,
                           kHnsServerHost, kNsmServerHost, kAgentHost}) {
    Result<PortMapper*> pm = PortMapper::InstallOn(&world_, host);
    if (!pm.ok()) {
      HCS_LOG(Error) << "portmapper install failed on " << host << ": " << pm.status();
      continue;
    }
    portmappers_[host] = pm.value();
    if (std::string(host) == kSunServerHost) {
      pm.value()->SetMapping(kDesiredServiceProgram, 1, kIpProtoUdp, kDesiredServicePort);
    }
  }

  // The Sun RPC service Import targets: an echo server on fiji.
  auto desired = std::make_unique<RpcServer>(ControlKind::kSunRpc, "DesiredService@fiji");
  desired->RegisterProcedure(kDesiredServiceProgram, 1,
                             [this](BytesView args) -> Result<Bytes> {
                               world_.ChargeMs(1.0);  // trivial service body
                               return args.ToBytes();           // echo
                             });
  RpcServer* desired_raw = world_.OwnService(std::move(desired));
  (void)world_.RegisterService(kSunServerHost, kDesiredServicePort, desired_raw);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)

  // The Courier service exported from the Xerox side: an echo server too.
  auto print = std::make_unique<RpcServer>(ControlKind::kCourier, "PrintService@Dorado");
  print->RegisterProcedure(kPrintServiceProgram, 1,
                           [this](BytesView args) -> Result<Bytes> {
                             world_.ChargeMs(2.0);
                             return args.ToBytes();
                           });
  RpcServer* print_raw = world_.OwnService(std::move(print));
  (void)world_.RegisterService(kXeroxServerHost, kPrintServicePort, print_raw);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
}

void Testbed::BuildNameServices() {
  // --- HNS-modified BIND (the meta store) ---------------------------------
  BindServerOptions meta_options;
  meta_options.allow_dynamic_update = true;
  meta_options.allow_unspecified_type = true;
  meta_bind_ = BindServer::InstallOn(&world_, kMetaBindHost, meta_options).value();
  (void)meta_bind_->AddZone(MetaStore::kMetaZoneOrigin);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)

  // The caching secondary every HNS instance queries: authoritative for
  // nothing, forwards cold queries to the primary and caches by TTL — the
  // standard BIND site deployment.
  BindServerOptions secondary_options;
  secondary_options.forwarder_host = kMetaBindHost;
  meta_secondary_ =
      BindServer::InstallOn(&world_, kMetaSecondaryHost, secondary_options).value();
  meta_bind_->AddNotifyTarget(kMetaSecondaryHost);

  // --- Public BIND ----------------------------------------------------------
  public_bind_ = BindServer::InstallOn(&world_, kPublicBindHost, BindServerOptions{}).value();
  Zone* uw_zone = public_bind_->AddZone("cs.washington.edu").value();
  for (const HostInfo& host : world_.network().hosts()) {
    if (EndsWith(AsciiToLower(host.name), ".cs.washington.edu")) {
      (void)uw_zone->Add(ResourceRecord::MakeA(host.name, host.address));  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
    }
  }
  // The reverse zone: PTR records for every department host.
  Zone* reverse_zone = public_bind_->AddZone("in-addr.arpa").value();
  for (const HostInfo& host : world_.network().hosts()) {
    if (EndsWith(AsciiToLower(host.name), ".cs.washington.edu")) {
      (void)reverse_zone->Add(MakePtrRecord(host.address, host.name));  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
    }
  }

  // The service descriptor fiji publishes for DesiredService.
  (void)uw_zone->Add(MakeSunServiceRecord(kSunServerHost, kDesiredService,  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
                                          kDesiredServiceProgram, 1, kIpProtoUdp));
  // Mail relays for the department (MailboxInfo query class).
  {
    ResourceRecord mx;
    mx.name = "cs.washington.edu";
    mx.type = RrType::kMx;
    mx.ttl_seconds = 3600;
    mx.rdata = BytesFromString("10 june.cs.washington.edu");
    (void)uw_zone->Add(mx);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
    ResourceRecord mx2 = mx;
    mx2.rdata = BytesFromString("20 cascade.cs.washington.edu");
    (void)uw_zone->Add(mx2);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  }

  // --- Clearinghouse ---------------------------------------------------------
  ch_ = ChServer::InstallOn(&world_, kChServerHost, ChServerOptions{}).value();
  ch_->AddDomain("CSL", "Xerox");
  ChCredentials creds = TestbedCredentials();
  ch_->AddAccount(creds.user, creds.password);

  for (const char* name : {kChServerHost, kXeroxServerHost}) {
    ChName ch_name = ChName::Parse(name).value();
    HostInfo host = world_.network().GetHost(name).value();
    ChAddItemRequest add;
    add.credentials = creds;
    add.name = ch_name;
    add.property = kChPropAddress;
    add.item = RecordBuilder().U32("address", host.address).Build();
    (void)ch_->AddItemLocal(add);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  }
  // The Courier service registration on Dorado.
  {
    ChAddItemRequest add;
    add.credentials = creds;
    add.name = ChName::Parse(kXeroxServerHost).value();
    add.property = kChPropService;
    add.item =
        RecordBuilder()
            .Value(AsciiToLower(kPrintService), RecordBuilder()
                                                    .U32("program", kPrintServiceProgram)
                                                    .U32("version", 1)
                                                    .U32("port", kPrintServicePort)
                                                    .Build())
            .Build();
    (void)ch_->AddItemLocal(add);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  }
  // A user's mailbox registration.
  {
    ChAddItemRequest add;
    add.credentials = creds;
    add.name = ChName::Parse("Purcell:CSL:Xerox").value();
    add.property = kChPropMailboxes;
    add.item = RecordBuilder().Str("mail_host", kChServerHost).Build();
    (void)ch_->AddItemLocal(add);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  }

  // --- File services ---------------------------------------------------------
  nfs_ = NfsLiteServer::InstallOn(&world_, kSunServerHost).value();
  nfs_->PutFile("/usr/doc/readme",
                BytesFromString("The HCS project: loose integration through "
                                "network services.\n"));
  xde_ = XdeFileServer::InstallOn(&world_, kXeroxServerHost).value();
  xde_->AddAccount(creds.user, creds.password);
  xde_->PutFile("<Docs>overview.press", BytesFromString("XDE filing: whole-file access.\n"));

  // --- Mail drops ---------------------------------------------------------
  // The department relay (june) speaks Sun RPC; the Xerox mail drop lives
  // with the Clearinghouse and speaks Courier.
  mail_unix_ =
      MailDropServer::InstallOn(&world_, kHnsServerHost, ControlKind::kSunRpc).value();
  Zone* uw = public_bind_->FindZone("cs.washington.edu");
  (void)uw->Add(MakeSunServiceRecord(kHnsServerHost, "MailDrop", kMailDropProgram, 1,  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
                                     kIpProtoUdp));
  portmappers_[kHnsServerHost]->SetMapping(kMailDropProgram, 1, kIpProtoUdp, kMailDropPort);

  mail_xerox_ =
      MailDropServer::InstallOn(&world_, kChServerHost, ControlKind::kCourier).value();
  {
    ChAddItemRequest add;
    add.credentials = creds;
    add.name = ChName::Parse(kChServerHost).value();
    add.property = kChPropService;
    add.item = RecordBuilder()
                   .Value("maildrop", RecordBuilder()
                                          .U32("program", kMailDropProgram)
                                          .U32("version", 1)
                                          .U32("port", kMailDropPort)
                                          .Build())
                   .Build();
    (void)ch_->AddItemLocal(add);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  }
}

NsmInfo Testbed::HostAddrBindInfo() const {
  NsmInfo info;
  info.nsm_name = kNsmHostAddrBind;
  info.query_class = kQueryClassHostAddress;
  info.ns_name = kNsBind;
  info.host = kNsmServerHost;
  info.host_context = kContextBind;
  info.program = kNsmProgram;
  info.port = kPortHostAddrBind;
  return info;
}

NsmInfo Testbed::BindingBindInfo() const {
  NsmInfo info = HostAddrBindInfo();
  info.nsm_name = kNsmBindingBind;
  info.query_class = kQueryClassHrpcBinding;
  info.port = kPortBindingBind;
  return info;
}

NsmInfo Testbed::MailboxBindInfo() const {
  NsmInfo info = HostAddrBindInfo();
  info.nsm_name = kNsmMailboxBind;
  info.query_class = kQueryClassMailboxInfo;
  info.port = kPortMailboxBind;
  return info;
}

NsmInfo Testbed::HostAddrChInfo() const {
  NsmInfo info;
  info.nsm_name = kNsmHostAddrCh;
  info.query_class = kQueryClassHostAddress;
  info.ns_name = kNsCh;
  info.host = kNsmServerHost;
  info.host_context = kContextBind;
  info.program = kNsmProgram;
  info.port = kPortHostAddrCh;
  return info;
}

NsmInfo Testbed::BindingChInfo() const {
  NsmInfo info = HostAddrChInfo();
  info.nsm_name = kNsmBindingCh;
  info.query_class = kQueryClassHrpcBinding;
  info.port = kPortBindingCh;
  return info;
}

NsmInfo Testbed::MailboxChInfo() const {
  NsmInfo info = HostAddrChInfo();
  info.nsm_name = kNsmMailboxCh;
  info.query_class = kQueryClassMailboxInfo;
  info.port = kPortMailboxCh;
  return info;
}

NsmInfo Testbed::FileBindInfo() const {
  NsmInfo info = HostAddrBindInfo();
  info.nsm_name = kNsmFileBind;
  info.query_class = kQueryClassFileService;
  info.port = kPortFileBind;
  return info;
}

NsmInfo Testbed::FileChInfo() const {
  NsmInfo info = HostAddrChInfo();
  info.nsm_name = kNsmFileCh;
  info.query_class = kQueryClassFileService;
  info.port = kPortFileCh;
  return info;
}

NsmInfo Testbed::HostNameBindInfo() const {
  NsmInfo info = HostAddrBindInfo();
  info.nsm_name = kNsmHostNameBind;
  info.query_class = kQueryClassHostName;
  info.port = kPortHostNameBind;
  return info;
}

NsmInfo Testbed::HostNameChInfo() const {
  NsmInfo info = HostAddrChInfo();
  info.nsm_name = kNsmHostNameCh;
  info.query_class = kQueryClassHostName;
  info.port = kPortHostNameCh;
  return info;
}

void Testbed::RegisterWithHns() {
  HnsOptions admin_options;
  admin_options.meta_server_host = kMetaBindHost;  // admin talks to the primary
  admin_options.cache_mode = CacheMode::kNone;  // administration is uncached
  admin_hns_ =
      std::make_unique<Hns>(&world_, kClientHost, &transport_, admin_options);

  NameServiceInfo bind_info;
  bind_info.name = kNsBind;
  bind_info.type = "BIND";
  (void)admin_hns_->RegisterNameService(bind_info);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  NameServiceInfo ch_info;
  ch_info.name = kNsCh;
  ch_info.type = "Clearinghouse";
  (void)admin_hns_->RegisterNameService(ch_info);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)

  // Several contexts share one name service; its data is stored once.
  (void)admin_hns_->RegisterContext(kContextBind, kNsBind);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterContext(kContextBindBinding, kNsBind);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterContext(kContextBindMail, kNsBind);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterContext(kContextBindFiles, kNsBind);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterContext(kContextCh, kNsCh);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterContext(kContextChBinding, kNsCh);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterContext(kContextChMail, kNsCh);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterContext(kContextChFiles, kNsCh);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)

  (void)admin_hns_->RegisterNsm(HostAddrBindInfo());  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterNsm(BindingBindInfo());  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterNsm(MailboxBindInfo());  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterNsm(HostAddrChInfo());  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterNsm(BindingChInfo());  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterNsm(MailboxChInfo());  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterNsm(FileBindInfo());  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterNsm(FileChInfo());  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterNsm(HostNameBindInfo());  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
  (void)admin_hns_->RegisterNsm(HostNameChInfo());  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
}

std::vector<std::shared_ptr<Nsm>> Testbed::MakeLinkedNsms(const std::string& locus_host) {
  CacheMode mode = options_.nsm_cache_mode;
  ChCredentials creds = TestbedCredentials();
  // Linked NSMs run in the client process, so their remote lookups belong
  // to the client path and go through the fault wrapper when installed.
  Transport* transport = client_transport();
  std::vector<std::shared_ptr<Nsm>> nsms;
  nsms.push_back(std::make_shared<BindHostAddressNsm>(&world_, locus_host, transport,
                                                      HostAddrBindInfo(), kPublicBindHost,
                                                      mode));
  nsms.push_back(std::make_shared<BindBindingNsm>(&world_, locus_host, transport,
                                                  BindingBindInfo(), kPublicBindHost, mode));
  nsms.push_back(std::make_shared<BindMailboxNsm>(&world_, locus_host, transport,
                                                  MailboxBindInfo(), kPublicBindHost, mode));
  nsms.push_back(std::make_shared<ChHostAddressNsm>(&world_, locus_host, transport,
                                                    HostAddrChInfo(), kChServerHost, creds,
                                                    mode));
  nsms.push_back(std::make_shared<ChBindingNsm>(&world_, locus_host, transport,
                                                BindingChInfo(), kChServerHost, creds, mode));
  nsms.push_back(std::make_shared<ChMailboxNsm>(&world_, locus_host, transport,
                                                MailboxChInfo(), kChServerHost, creds, mode));
  nsms.push_back(std::make_shared<BindFileServiceNsm>(&world_, locus_host, transport,
                                                      FileBindInfo(), kPublicBindHost, mode));
  nsms.push_back(std::make_shared<ChFileServiceNsm>(&world_, locus_host, transport,
                                                    FileChInfo(), kChServerHost, creds, mode));
  nsms.push_back(std::make_shared<BindHostNameNsm>(&world_, locus_host, transport,
                                                   HostNameBindInfo(), kPublicBindHost, mode));
  nsms.push_back(std::make_shared<ChHostNameNsm>(&world_, locus_host, transport,
                                                 HostNameChInfo(), kChServerHost, creds,
                                                 "CSL", "Xerox", mode));
  return nsms;
}

void Testbed::InstallFaultInjector(FaultInjector* injector) {
  if (injector == nullptr) {
    fault_transport_.reset();
    return;
  }
  fault_transport_ =
      std::make_unique<FaultInjectingTransport>(&transport_, injector, &world_);
}

Transport* Testbed::client_transport() {
  if (fault_transport_ != nullptr) {
    return fault_transport_.get();
  }
  return &transport_;
}

void Testbed::InstallRemoteServers() {
  HnsOptions server_options;
  server_options.meta_server_host = kMetaSecondaryHost;
  server_options.meta_authority_host = kMetaBindHost;
  server_options.cache_mode = options_.hns_cache_mode;
  server_options.cache = options_.hns_cache;
  server_options.composite_cache = options_.hns_composite_cache;

  hns_server_ = HnsServer::InstallOn(&world_, kHnsServerHost, server_options).value();
  // Recursion avoidance: the HostAddress NSMs are linked with the HNS.
  for (std::shared_ptr<Nsm>& nsm : MakeLinkedNsms(kHnsServerHost)) {
    if (nsm->info().query_class == kQueryClassHostAddress) {
      (void)hns_server_->hns().LinkNsm(std::move(nsm));
    }
  }

  agent_server_ =
      AgentServer::InstallOn(&world_, kAgentHost, server_options, MakeLinkedNsms(kAgentHost))
          .value();

  for (std::shared_ptr<Nsm>& nsm : MakeLinkedNsms(kNsmServerHost)) {
    nsm_servers_.push_back(NsmServer::InstallOn(&world_, std::move(nsm)).value());
  }
}

void Testbed::BuildBaselines() {
  binding_file_ = std::make_shared<ReplicatedBindingFile>();
  HostInfo fiji = world_.network().GetHost(kSunServerHost).value();
  // Filler entries first: the scan cost depends on file size.
  for (int i = 1; i <= 30; ++i) {
    binding_file_->Register(StrFormat("host%02d.cs.washington.edu", (i % 20) + 1),
                            StrFormat("service%02d", i), kUserProgramBase + 100 + i, 1,
                            kIpProtoUdp, 0x80010000 + i);
  }
  binding_file_->Register(kSunServerHost, kDesiredService, kDesiredServiceProgram, 1,
                          kIpProtoUdp, fiji.address);

  // The CH-only reregistered registry.
  ch_->AddDomain("Registry", "HCS");
  ChAddItemRequest add;
  add.credentials = TestbedCredentials();
  add.name = ChName{StrFormat("%s@%s", kDesiredService, kSunServerHost), "Registry", "HCS"};
  add.property = kChPropService;
  add.item = RecordBuilder()
                 .U32("program", kDesiredServiceProgram)
                 .U32("version", 1)
                 .U32("port", kDesiredServicePort)
                 .U32("address", fiji.address)
                 .Build();
  (void)ch_->AddItemLocal(add);  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
}

std::unique_ptr<LocalFileBinder> Testbed::MakeLocalFileBinder() {
  return std::make_unique<LocalFileBinder>(&world_, kClientHost, &transport_, binding_file_);
}

std::unique_ptr<ChOnlyBinder> Testbed::MakeChOnlyBinder() {
  return std::make_unique<ChOnlyBinder>(&world_, kClientHost, &transport_, kChServerHost,
                                        TestbedCredentials(), "Registry", "HCS");
}

ClientSetup Testbed::MakeClient(Arrangement arrangement) {
  ClientSetup setup;
  setup.flush_shared = [this] { meta_secondary_->ClearForwardCache(); };

  SessionOptions options;
  options.hns.meta_server_host = kMetaSecondaryHost;
  options.hns.meta_authority_host = kMetaBindHost;
  options.hns.cache_mode = options_.hns_cache_mode;
  options.hns.cache = options_.hns_cache;
  options.hns.composite_cache = options_.hns_composite_cache;
  options.hns_server_host = kHnsServerHost;
  options.agent_host = kAgentHost;

  auto hns_server_addr_caches = [this](std::vector<HnsCache*>* out) {
    for (const char* name : {kNsmHostAddrBind, kNsmHostAddrCh}) {
      if (Nsm* nsm = hns_server_->hns().LinkedNsm(name); nsm != nullptr) {
        out->push_back(nsm->cache());
      }
    }
  };

  switch (arrangement) {
    case Arrangement::kAllLinked: {
      options.hns_location = HnsLocation::kLinked;
      options.nsm_location = NsmLocation::kLinked;
      setup.session =
          std::make_unique<HnsSession>(&world_, kClientHost, client_transport(), options);
      for (std::shared_ptr<Nsm>& nsm : MakeLinkedNsms(kClientHost)) {
        setup.nsm_caches.push_back(nsm->cache());
        (void)setup.session->LinkNsm(std::move(nsm));  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
      }
      setup.hns_cache = &setup.session->local_hns()->cache();
      setup.composite_cache = &setup.session->local_hns()->composite_cache();
      break;
    }
    case Arrangement::kAgent: {
      options.hns_location = HnsLocation::kAgent;
      setup.session =
          std::make_unique<HnsSession>(&world_, kClientHost, client_transport(), options);
      setup.hns_cache = &agent_server_->hns().cache();
      setup.composite_cache = &agent_server_->hns().composite_cache();
      for (const char* name : {kNsmHostAddrBind, kNsmBindingBind, kNsmMailboxBind,
                               kNsmHostAddrCh, kNsmBindingCh, kNsmMailboxCh, kNsmFileBind,
                               kNsmFileCh}) {
        if (Nsm* nsm = agent_server_->hns().LinkedNsm(name); nsm != nullptr) {
          setup.nsm_caches.push_back(nsm->cache());
        }
      }
      break;
    }
    case Arrangement::kRemoteHns: {
      options.hns_location = HnsLocation::kRemote;
      options.nsm_location = NsmLocation::kLinked;
      setup.session =
          std::make_unique<HnsSession>(&world_, kClientHost, client_transport(), options);
      for (std::shared_ptr<Nsm>& nsm : MakeLinkedNsms(kClientHost)) {
        setup.nsm_caches.push_back(nsm->cache());
        (void)setup.session->LinkNsm(std::move(nsm));  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
      }
      setup.hns_cache = &hns_server_->hns().cache();
      setup.composite_cache = &hns_server_->hns().composite_cache();
      hns_server_addr_caches(&setup.nsm_caches);
      break;
    }
    case Arrangement::kRemoteNsms: {
      options.hns_location = HnsLocation::kLinked;
      options.nsm_location = NsmLocation::kLinked;  // only HostAddress is linked
      setup.session =
          std::make_unique<HnsSession>(&world_, kClientHost, client_transport(), options);
      for (std::shared_ptr<Nsm>& nsm : MakeLinkedNsms(kClientHost)) {
        if (nsm->info().query_class == kQueryClassHostAddress) {
          setup.nsm_caches.push_back(nsm->cache());
          (void)setup.session->LinkNsm(std::move(nsm));  // hcs:ignore-status(testbed wiring over fixed fixtures; failures surface in the tests built on this world)
        }
      }
      setup.hns_cache = &setup.session->local_hns()->cache();
      setup.composite_cache = &setup.session->local_hns()->composite_cache();
      for (NsmServer* server : nsm_servers_) {
        setup.nsm_caches.push_back(server->nsm()->cache());
      }
      break;
    }
    case Arrangement::kAllRemote: {
      options.hns_location = HnsLocation::kRemote;
      options.nsm_location = NsmLocation::kRemote;
      setup.session =
          std::make_unique<HnsSession>(&world_, kClientHost, client_transport(), options);
      setup.hns_cache = &hns_server_->hns().cache();
      setup.composite_cache = &hns_server_->hns().composite_cache();
      hns_server_addr_caches(&setup.nsm_caches);
      for (NsmServer* server : nsm_servers_) {
        setup.nsm_caches.push_back(server->nsm()->cache());
      }
      break;
    }
  }
  return setup;
}

}  // namespace hcs
