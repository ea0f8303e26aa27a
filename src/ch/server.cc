#include "src/ch/server.h"

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/rpc/context.h"
#include "src/rpc/ports.h"

namespace hcs {

ChServer::ChServer(World* world, std::string host, ChServerOptions options)
    : world_(world),
      host_(std::move(host)),
      options_(options),
      rpc_server_(ControlKind::kCourier, "clearinghouse@" + host_),
      transport_(world),
      replica_client_(world, host_, &transport_) {
  RegisterHandlers();
}

void ChServer::PropagateWrite(uint32_t procedure, BytesView body) {
  for (const std::string& replica : replica_hosts_) {
    HrpcBinding peer;
    peer.service_name = "clearinghouse";
    peer.host = replica;
    peer.port = kClearinghousePort;
    peer.program = kClearinghouseProgram;
    peer.control = ControlKind::kCourier;
    peer.data_rep = DataRep::kCourier;
    Result<Bytes> ignored = replica_client_.Call(peer, procedure, body);
    if (!ignored.ok()) {
      HCS_LOG(Warning) << host_ << ": replica " << replica
                       << " missed a write: " << ignored.status();
    }
  }
}

Result<ChServer*> ChServer::InstallOn(World* world, const std::string& host,
                                      ChServerOptions options) {
  auto server = std::unique_ptr<ChServer>(new ChServer(world, host, options));
  ChServer* raw = world->OwnService(std::move(server));
  HCS_RETURN_IF_ERROR(world->RegisterService(host, kClearinghousePort, raw->rpc()));
  return raw;
}

std::string ChServer::ObjectKey(const ChName& name) {
  return AsciiToLower(name.ToString());
}

void ChServer::AddDomain(const std::string& domain, const std::string& organization) {
  domains_[AsciiToLower(domain) + ":" + AsciiToLower(organization)] = true;
}

void ChServer::AddAccount(const std::string& user, const std::string& password) {
  accounts_[AsciiToLower(user)] = password;
}

Status ChServer::AddAlias(const ChName& alias, const ChName& target) {
  if (domains_.count(alias.DomainKey()) == 0) {
    return NotFoundError("no such domain: " + alias.DomainKey());
  }
  aliases_[ObjectKey(alias)] = target;
  return Status::Ok();
}

Status ChServer::Authenticate(const ChCredentials& credentials) {
  // Authentication happens on every access and dominates the access cost.
  world_->ChargeMs(world_->costs().ch_auth_ms);
  if (!options_.require_authentication) {
    return Status::Ok();
  }
  auto it = accounts_.find(AsciiToLower(credentials.user));
  if (it == accounts_.end() || it->second != credentials.password) {
    return PermissionDeniedError("Clearinghouse authentication failed for " +
                                 credentials.user);
  }
  return Status::Ok();
}

ChName ChServer::Canonicalize(const ChName& name) const {
  auto it = aliases_.find(ObjectKey(name));
  return it == aliases_.end() ? name : it->second;
}

Result<ChRetrieveItemResponse> ChServer::RetrieveItemLocal(
    const ChRetrieveItemRequest& request) {
  HCS_RETURN_IF_ERROR(Authenticate(request.credentials));
  // Virtually all data is retrieved from disk.
  world_->ChargeMs(world_->costs().ch_disk_ms + world_->costs().ch_lookup_cpu_ms);

  ChName distinguished = Canonicalize(request.name);
  if (domains_.count(distinguished.DomainKey()) == 0) {
    return NotFoundError("no such domain: " + distinguished.DomainKey());
  }
  auto oit = objects_.find(ObjectKey(distinguished));
  if (oit == objects_.end()) {
    return NotFoundError("no such object: " + distinguished.ToString());
  }
  auto pit = oit->second.find(request.property);
  if (pit == oit->second.end()) {
    return NotFoundError(StrFormat("object %s has no property %u",
                                   distinguished.ToString().c_str(), request.property));
  }
  ChRetrieveItemResponse response;
  response.distinguished_name = distinguished;
  response.item = pit->second;
  return response;
}

Result<ChRetrieveItemResponse> ChServer::AddItemLocal(const ChAddItemRequest& request) {
  HCS_RETURN_IF_ERROR(Authenticate(request.credentials));
  world_->ChargeMs(world_->costs().ch_disk_ms + world_->costs().ch_lookup_cpu_ms);

  ChName distinguished = Canonicalize(request.name);
  if (domains_.count(distinguished.DomainKey()) == 0) {
    return NotFoundError("no such domain: " + distinguished.DomainKey());
  }
  std::string object_key = ObjectKey(distinguished);
  objects_[object_key][request.property] = request.item;
  display_names_.try_emplace(object_key, distinguished.object);
  ChRetrieveItemResponse response;
  response.distinguished_name = distinguished;
  response.item = request.item;
  return response;
}

Status ChServer::DeleteItemLocal(const ChDeleteItemRequest& request) {
  HCS_RETURN_IF_ERROR(Authenticate(request.credentials));
  world_->ChargeMs(world_->costs().ch_disk_ms + world_->costs().ch_lookup_cpu_ms);

  ChName distinguished = Canonicalize(request.name);
  auto oit = objects_.find(ObjectKey(distinguished));
  if (oit == objects_.end() || oit->second.erase(request.property) == 0) {
    return NotFoundError("no such item: " + distinguished.ToString());
  }
  if (oit->second.empty()) {
    objects_.erase(oit);
  }
  return Status::Ok();
}

Result<ChListObjectsResponse> ChServer::ListObjectsLocal(
    const ChListObjectsRequest& request) {
  HCS_RETURN_IF_ERROR(Authenticate(request.credentials));
  std::string domain_key =
      AsciiToLower(request.domain) + ":" + AsciiToLower(request.organization);
  if (domains_.count(domain_key) == 0) {
    return NotFoundError("no such domain: " + domain_key);
  }
  ChListObjectsResponse response;
  for (const auto& [key, properties] : objects_) {
    // Keys are "object:domain:org"; match the suffix and report the
    // case-preserved object name.
    size_t colon = key.find(':');
    if (colon != std::string::npos && key.substr(colon + 1) == domain_key) {
      auto display = display_names_.find(key);
      response.objects.push_back(display != display_names_.end() ? display->second
                                                                 : key.substr(0, colon));
    }
  }
  world_->ChargeMs(world_->costs().ch_disk_ms +
                   world_->costs().ch_lookup_cpu_ms *
                       (1.0 + static_cast<double>(response.objects.size()) / 16.0));
  return response;
}

void ChServer::RegisterHandlers() {
  rpc_server_.RegisterProcedure(
      kClearinghouseProgram, kChProcRetrieveItem, [this](BytesView args) -> Result<Bytes> {
        HCS_RETURN_IF_ERROR(ShedIfBudgetSpent("clearinghouse-retrieve"));
        HCS_ASSIGN_OR_RETURN(ChRetrieveItemRequest request,
                             ChRetrieveItemRequest::Decode(args));
        HCS_ASSIGN_OR_RETURN(ChRetrieveItemResponse response, RetrieveItemLocal(request));
        return response.Encode();
      });

  rpc_server_.RegisterProcedure(
      kClearinghouseProgram, kChProcAddItem, [this](BytesView args) -> Result<Bytes> {
        HCS_ASSIGN_OR_RETURN(ChAddItemRequest request, ChAddItemRequest::Decode(args));
        HCS_ASSIGN_OR_RETURN(ChRetrieveItemResponse response, AddItemLocal(request));
        PropagateWrite(kChProcAddItem, args);
        return response.Encode();
      });

  rpc_server_.RegisterProcedure(
      kClearinghouseProgram, kChProcDeleteItem, [this](BytesView args) -> Result<Bytes> {
        HCS_ASSIGN_OR_RETURN(ChDeleteItemRequest request, ChDeleteItemRequest::Decode(args));
        HCS_RETURN_IF_ERROR(DeleteItemLocal(request));
        PropagateWrite(kChProcDeleteItem, args);
        return Bytes{};
      });

  rpc_server_.RegisterProcedure(
      kClearinghouseProgram, kChProcListObjects, [this](BytesView args) -> Result<Bytes> {
        HCS_RETURN_IF_ERROR(ShedIfBudgetSpent("clearinghouse-list"));
        HCS_ASSIGN_OR_RETURN(ChListObjectsRequest request, ChListObjectsRequest::Decode(args));
        HCS_ASSIGN_OR_RETURN(ChListObjectsResponse response, ListObjectsLocal(request));
        return response.Encode();
      });
}

size_t ChServer::item_count() const {
  size_t n = 0;
  for (const auto& [key, properties] : objects_) {
    n += properties.size();
  }
  return n;
}

}  // namespace hcs
