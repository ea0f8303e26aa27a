#include "src/hns/servers.h"

#include "src/rpc/context.h"
#include "src/rpc/ports.h"
#include "src/wire/marshal.h"

namespace hcs {

// --------------------------------------------------------------------------
// NsmServer
// --------------------------------------------------------------------------

NsmServer::NsmServer(World* world, std::shared_ptr<Nsm> nsm)
    : world_(world),
      nsm_(std::move(nsm)),
      rpc_server_(nsm_->info().control, "nsm:" + nsm_->info().nsm_name) {
  rpc_server_.RegisterProcedure(
      nsm_->info().program, kNsmProcQuery, [this](BytesView args) -> Result<Bytes> {
        // Server-side stub demarshals the envelope.
        ChargeDemarshal(world_, MarshalEngine::kStubGenerated,
                        MarshalUnitsForBytes(args.size()));
        HCS_ASSIGN_OR_RETURN(NsmQueryRequest request, NsmQueryRequest::Decode(args));
        // The decoded context is ambient (installed by RpcServer); the NSM's
        // own CheckBudget sees it, so no explicit pass is needed here.
        HCS_ASSIGN_OR_RETURN(WireValue result, nsm_->Query(request.name, request.args));
        Bytes body = result.Encode();
        ChargeMarshal(world_, MarshalEngine::kStubGenerated, MarshalUnitsForBytes(body.size()));
        return body;
      });
}

Result<NsmServer*> NsmServer::InstallOn(World* world, std::shared_ptr<Nsm> nsm) {
  const NsmInfo& info = nsm->info();
  if (info.port == 0) {
    return InvalidArgumentError("NSM " + info.nsm_name + " has no port to serve on");
  }
  auto server = std::unique_ptr<NsmServer>(new NsmServer(world, std::move(nsm)));
  NsmServer* raw = world->OwnService(std::move(server));
  HCS_RETURN_IF_ERROR(
      world->RegisterService(raw->nsm()->info().host, raw->nsm()->info().port, raw->rpc()));
  return raw;
}

// --------------------------------------------------------------------------
// HnsServer
// --------------------------------------------------------------------------

HnsServer::HnsServer(World* world, const std::string& host, HnsOptions options)
    : world_(world),
      transport_(world),
      hns_(std::make_unique<Hns>(world, host, &transport_, options)),
      rpc_server_(ControlKind::kRaw, "hns@" + host) {
  rpc_server_.RegisterProcedure(
      kHnsProgram, kHnsProcFindNsm, [this](BytesView args) -> Result<Bytes> {
        ChargeDemarshal(world_, MarshalEngine::kStubGenerated,
                        MarshalUnitsForBytes(args.size()));
        HCS_ASSIGN_OR_RETURN(FindNsmRequest request, FindNsmRequest::Decode(args));
        HnsName probe;
        probe.context = request.context;
        probe.individual = "";
        HCS_ASSIGN_OR_RETURN(NsmHandle handle,
                             hns_->FindNsm(probe, request.query_class, CurrentRequestContext()));
        // FindNSM always resolves the full binding, so a remote HNS can hand
        // it to any client (pointers to its own linked instances stay local).
        FindNsmResponse response;
        response.nsm_name = handle.nsm_name;
        response.binding = handle.binding;
        Bytes body = response.Encode();
        ChargeMarshal(world_, MarshalEngine::kStubGenerated,
                      MarshalUnitsForBytes(body.size()));
        return body;
      });
}

Result<HnsServer*> HnsServer::InstallOn(World* world, const std::string& host,
                                        HnsOptions options) {
  auto server = std::unique_ptr<HnsServer>(new HnsServer(world, host, options));
  HnsServer* raw = world->OwnService(std::move(server));
  HCS_RETURN_IF_ERROR(world->RegisterService(host, kHnsServerPort, raw->rpc()));
  return raw;
}

// --------------------------------------------------------------------------
// AgentServer
// --------------------------------------------------------------------------

AgentServer::AgentServer(World* world, const std::string& host, HnsOptions options)
    : world_(world),
      transport_(world),
      hns_(std::make_unique<Hns>(world, host, &transport_, options)),
      rpc_server_(ControlKind::kRaw, "hns-agent@" + host) {
  rpc_server_.RegisterProcedure(
      kAgentProgram, kAgentProcQuery, [this](BytesView args) -> Result<Bytes> {
        ChargeDemarshal(world_, MarshalEngine::kStubGenerated,
                        MarshalUnitsForBytes(args.size()));
        HCS_ASSIGN_OR_RETURN(AgentQueryRequest request, AgentQueryRequest::Decode(args));
        HCS_ASSIGN_OR_RETURN(NsmHandle handle, hns_->FindNsm(request.name, request.query_class,
                                                             CurrentRequestContext()));
        if (!handle.is_linked()) {
          return UnavailableError("agent has no linked NSM named " + handle.nsm_name);
        }
        HCS_ASSIGN_OR_RETURN(WireValue result,
                             handle.linked->Query(request.name, request.args));
        Bytes body = result.Encode();
        ChargeMarshal(world_, MarshalEngine::kStubGenerated, MarshalUnitsForBytes(body.size()));
        return body;
      });
}

Result<AgentServer*> AgentServer::InstallOn(World* world, const std::string& host,
                                            HnsOptions options,
                                            std::vector<std::shared_ptr<Nsm>> nsms) {
  auto server = std::unique_ptr<AgentServer>(new AgentServer(world, host, options));
  for (std::shared_ptr<Nsm>& nsm : nsms) {
    HCS_RETURN_IF_ERROR(server->hns().LinkNsm(std::move(nsm)));
  }
  AgentServer* raw = world->OwnService(std::move(server));
  HCS_RETURN_IF_ERROR(world->RegisterService(host, kAgentPort, raw->rpc()));
  return raw;
}

}  // namespace hcs
