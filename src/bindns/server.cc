#include "src/bindns/server.h"

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/rpc/context.h"
#include "src/rpc/ports.h"
#include "src/wire/marshal.h"

namespace hcs {

BindServer::BindServer(World* world, std::string host, BindServerOptions options)
    : world_(world),
      host_(std::move(host)),
      options_(std::move(options)),
      rpc_server_(ControlKind::kRaw, "bind@" + host_),
      transport_(world),
      forward_client_(world, host_, &transport_) {
  RegisterHandlers();
}

Result<BindServer*> BindServer::InstallOn(World* world, const std::string& host,
                                          BindServerOptions options) {
  auto server = std::unique_ptr<BindServer>(new BindServer(world, host, std::move(options)));
  BindServer* raw = world->OwnService(std::move(server));
  HCS_RETURN_IF_ERROR(world->RegisterService(host, kBindPort, raw->rpc()));
  return raw;
}

Result<Zone*> BindServer::AddZone(const std::string& origin) {
  for (const auto& zone : zones_) {
    if (EqualsIgnoreCase(zone->origin(), origin)) {
      return AlreadyExistsError("zone already present: " + origin);
    }
  }
  zones_.push_back(std::make_unique<Zone>(origin));
  return zones_.back().get();
}

Status BindServer::AddSecondaryZone(const std::string& origin,
                                    const std::string& primary_host) {
  HCS_ASSIGN_OR_RETURN(Zone* zone, AddZone(origin));
  secondaries_.push_back(SecondaryConfig{origin, primary_host, zone});
  return Status::Ok();
}

Result<size_t> BindServer::RefreshSecondaryZones() {
  size_t transferred = 0;
  for (SecondaryConfig& secondary : secondaries_) {
    HrpcBinding primary;
    primary.service_name = "bind";
    primary.host = secondary.primary_host;
    primary.port = kBindPort;
    primary.program = kBindProgram;
    primary.control = ControlKind::kRaw;

    BindAxfrRequest request;
    request.origin = secondary.origin;
    ChargeMarshal(world_, MarshalEngine::kHandCoded, 1);
    HCS_ASSIGN_OR_RETURN(Bytes reply,
                         forward_client_.Call(primary, kBindProcAxfr, request.Encode()));
    HCS_ASSIGN_OR_RETURN(BindAxfrResponse response, BindAxfrResponse::Decode(reply));
    if (response.rcode != Rcode::kNoError) {
      return UnavailableError("secondary refresh failed for " + secondary.origin);
    }
    ChargeDemarshal(world_, MarshalEngine::kHandCoded,
                    static_cast<int>(response.records.size()));
    if (response.serial == secondary.zone->serial()) {
      continue;  // already current
    }
    HCS_RETURN_IF_ERROR(
        secondary.zone->ReplaceAll(std::move(response.records), response.serial));
    ++transferred;
  }
  return transferred;
}

void BindServer::SchedulePeriodicRefresh(double interval_seconds) {
  // hcs:on-loop(sim EventQueue::ScheduleAfter, not the reactor's loop-only timer API)
  world_->events().ScheduleAfter(MsToSim(interval_seconds * 1000.0), [this,
                                                                      interval_seconds] {
    Result<size_t> refreshed = RefreshSecondaryZones();
    if (!refreshed.ok()) {
      HCS_LOG(Warning) << host_ << ": secondary refresh failed: " << refreshed.status();
    }
    SchedulePeriodicRefresh(interval_seconds);
  });
}

Zone* BindServer::FindZone(const std::string& name) {
  Zone* best = nullptr;
  size_t best_len = 0;
  for (const auto& zone : zones_) {
    if (zone->Contains(name) && zone->origin().size() >= best_len) {
      best = zone.get();
      best_len = zone->origin().size();
    }
  }
  return best;
}

void BindServer::RegisterHandlers() {
  rpc_server_.RegisterProcedure(
      kBindProgram, kBindProcQuery, [this](BytesView args) -> Result<Bytes> {
        HCS_RETURN_IF_ERROR(ShedIfBudgetSpent("bind-query"));
        // Server-side demarshal of the request (standard BIND routines).
        ChargeDemarshal(world_, MarshalEngine::kHandCoded, 1);
        HCS_ASSIGN_OR_RETURN(BindQueryRequest request, BindQueryRequest::Decode(args));
        HCS_ASSIGN_OR_RETURN(BindQueryResponse response, HandleQuery(request));
        ChargeMarshal(world_, MarshalEngine::kHandCoded,
                      static_cast<int>(response.answers.size()));
        return response.Encode();
      });

  rpc_server_.RegisterProcedure(
      kBindProgram, kBindProcUpdate, [this](BytesView args) -> Result<Bytes> {
        ChargeDemarshal(world_, MarshalEngine::kHandCoded, 1);
        HCS_ASSIGN_OR_RETURN(BindUpdateRequest request, BindUpdateRequest::Decode(args));
        HCS_ASSIGN_OR_RETURN(BindUpdateResponse response, UpdateLocal(request));
        ChargeMarshal(world_, MarshalEngine::kHandCoded, 1);
        return response.Encode();
      });

  rpc_server_.RegisterProcedure(
      kBindProgram, kBindProcInvalidate, [this](BytesView args) -> Result<Bytes> {
        HCS_ASSIGN_OR_RETURN(BindInvalidateRequest request,
                             BindInvalidateRequest::Decode(args));
        world_->ChargeMs(world_->costs().cache_probe_ms);
        InvalidateForwarded(request.name);
        return Bytes{};
      });

  rpc_server_.RegisterProcedure(
      kBindProgram, kBindProcAxfr, [this](BytesView args) -> Result<Bytes> {
        ChargeDemarshal(world_, MarshalEngine::kHandCoded, 1);
        HCS_ASSIGN_OR_RETURN(BindAxfrRequest request, BindAxfrRequest::Decode(args));
        HCS_ASSIGN_OR_RETURN(BindAxfrResponse response, AxfrLocal(request));
        ChargeMarshal(world_, MarshalEngine::kHandCoded,
                      static_cast<int>(response.records.size()));
        return response.Encode();
      });
}

Result<BindQueryResponse> BindServer::HandleQuery(const BindQueryRequest& request) {
  world_->ChargeMs(world_->costs().bind_lookup_cpu_ms);

  Zone* zone = FindZone(request.name);
  if (zone != nullptr) {
    Result<std::vector<ResourceRecord>> records = zone->Lookup(request.name, request.type);
    BindQueryResponse response;
    response.authoritative = true;
    if (records.ok()) {
      response.answers = std::move(records).value();
      response.rcode = Rcode::kNoError;
    } else {
      response.rcode = Rcode::kNxDomain;
    }
    return response;
  }

  if (!request.recursion_desired || options_.forwarder_host.empty()) {
    BindQueryResponse response;
    response.authoritative = false;
    response.rcode = Rcode::kServFail;
    return response;
  }

  // Caching-forwarder path.
  std::string key = AsciiToLower(request.name) + "|" +
                    std::to_string(static_cast<uint32_t>(request.type));
  auto it = forward_cache_.find(key);
  if (it != forward_cache_.end() && it->second.expires > world_->clock().Now()) {
    ++forward_cache_hits_;
    BindQueryResponse response;
    response.authoritative = false;
    response.rcode = it->second.rcode;
    response.answers = it->second.answers;
    return response;
  }
  ++forward_cache_misses_;
  HCS_ASSIGN_OR_RETURN(BindQueryResponse forwarded, ForwardQuery(request));

  CacheEntry entry;
  entry.answers = forwarded.answers;
  entry.rcode = forwarded.rcode;
  uint32_t min_ttl = 300;  // negative/floor TTL
  for (const ResourceRecord& rr : forwarded.answers) {
    min_ttl = rr.ttl_seconds < min_ttl ? rr.ttl_seconds : min_ttl;
  }
  entry.expires = world_->clock().Now() + MsToSim(min_ttl * 1000.0);
  forward_cache_[key] = std::move(entry);
  return forwarded;
}

Result<BindQueryResponse> BindServer::ForwardQuery(const BindQueryRequest& request) {
  // The forward hop is the expensive part of a miss; re-check the budget
  // here — it may have died while this server worked through its queue.
  HCS_RETURN_IF_ERROR(ShedIfBudgetSpent("bind-forwarder"));
  HrpcBinding upstream;
  upstream.service_name = "bind";
  upstream.host = options_.forwarder_host;
  upstream.port = kBindPort;
  upstream.program = kBindProgram;
  upstream.control = ControlKind::kRaw;
  upstream.data_rep = DataRep::kXdr;

  // Server-to-server traffic uses the hand-coded routines.
  ChargeMarshal(world_, MarshalEngine::kHandCoded, 1);
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       forward_client_.Call(upstream, kBindProcQuery, request.Encode()));
  HCS_ASSIGN_OR_RETURN(BindQueryResponse response, BindQueryResponse::Decode(reply));
  ChargeDemarshal(world_, MarshalEngine::kHandCoded,
                  static_cast<int>(response.answers.size()));
  response.authoritative = false;
  return response;
}

Result<BindQueryResponse> BindServer::QueryLocal(const BindQueryRequest& request) {
  return HandleQuery(request);
}

Result<BindUpdateResponse> BindServer::UpdateLocal(const BindUpdateRequest& request) {
  if (!options_.allow_dynamic_update) {
    return PermissionDeniedError("this BIND instance does not accept dynamic updates");
  }
  if (request.record.type == RrType::kUnspec && !options_.allow_unspecified_type) {
    return PermissionDeniedError("this BIND instance does not accept unspecified-type data");
  }
  world_->ChargeMs(world_->costs().bind_update_cpu_ms);

  Zone* zone = FindZone(request.record.name);
  if (zone == nullptr) {
    BindUpdateResponse response;
    response.rcode = Rcode::kRefused;
    return response;
  }
  BindUpdateResponse response;
  if (request.op == UpdateOp::kAdd) {
    Status status = zone->Add(request.record);
    response.rcode = status.ok() ? Rcode::kNoError : Rcode::kRefused;
  } else {
    std::optional<RrType> type;
    if (request.record.type != RrType::kAny) {
      type = request.record.type;
    }
    zone->Remove(request.record.name, type);
    response.rcode = Rcode::kNoError;
  }

  // Push cache invalidations to the registered secondaries so updates are
  // visible promptly rather than after TTL expiry (part of the HNS's BIND
  // modifications; cheap because the meta data changes slowly).
  if (response.rcode == Rcode::kNoError) {
    BindInvalidateRequest invalidate;
    invalidate.name = request.record.name;
    for (const std::string& target : notify_targets_) {
      HrpcBinding peer;
      peer.service_name = "bind";
      peer.host = target;
      peer.port = kBindPort;
      peer.program = kBindProgram;
      peer.control = ControlKind::kRaw;
      Result<Bytes> ignored =
          forward_client_.Call(peer, kBindProcInvalidate, invalidate.Encode());
      (void)ignored;  // hcs:ignore-status(best effort; a down secondary converges via TTL expiry instead)
    }
  }
  return response;
}

void BindServer::InvalidateForwarded(const std::string& name) {
  std::string prefix = AsciiToLower(name) + "|";
  for (auto it = forward_cache_.begin(); it != forward_cache_.end();) {
    if (StartsWith(it->first, prefix)) {
      it = forward_cache_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<BindAxfrResponse> BindServer::AxfrLocal(const BindAxfrRequest& request) {
  BindAxfrResponse response;
  for (const auto& zone : zones_) {
    if (EqualsIgnoreCase(zone->origin(), request.origin)) {
      response.records = zone->All();
      response.serial = zone->serial();
      response.rcode = Rcode::kNoError;
      world_->ChargeMs(world_->costs().bind_axfr_base_ms +
                       world_->costs().bind_axfr_per_record_ms *
                           static_cast<double>(response.records.size()));
      return response;
    }
  }
  response.rcode = Rcode::kNxDomain;
  return response;
}

}  // namespace hcs
