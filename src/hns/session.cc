#include "src/hns/session.h"

#include "src/common/strings.h"
#include "src/rpc/ports.h"
#include "src/wire/marshal.h"

namespace hcs {

HnsSession::HnsSession(World* world, std::string client_host, Transport* transport,
                       SessionOptions options)
    : world_(world),
      client_host_(std::move(client_host)),
      rpc_client_(world, client_host_, transport),
      options_(std::move(options)) {
  if (options_.hns_location == HnsLocation::kLinked) {
    hns_ = std::make_unique<Hns>(world, client_host_, transport, options_.hns);
  }
}

Status HnsSession::LinkNsm(std::shared_ptr<Nsm> nsm) {
  std::string key = AsciiToLower(nsm->info().nsm_name);
  if (linked_nsms_.count(key) != 0) {
    return AlreadyExistsError("NSM already linked in session: " + nsm->info().nsm_name);
  }
  if (hns_ != nullptr) {
    HCS_RETURN_IF_ERROR(hns_->LinkNsm(nsm));
  }
  linked_nsms_[key] = std::move(nsm);
  return Status::Ok();
}

Result<NsmHandle> HnsSession::FindNsm(const HnsName& name, const QueryClass& query_class,
                                      const RequestContext& context) {
  switch (options_.hns_location) {
    case HnsLocation::kLinked:
      return hns_->FindNsm(name, query_class, context);
    case HnsLocation::kRemote:
      return FindNsmRemote(name, query_class, context);
    case HnsLocation::kAgent:
      return UnimplementedError("agent sessions answer whole queries, not FindNSM");
  }
  return InternalError("bad HnsLocation");
}

std::vector<Result<NsmHandle>> HnsSession::ResolveMany(
    const std::vector<ResolveRequest>& requests, const RequestContext& context) {
  std::vector<Result<NsmHandle>> results;
  results.reserve(requests.size());
  // FindNSM depends only on (context, query class), never on the
  // individual part — one resolution serves every duplicate in the batch.
  std::map<std::string, Result<NsmHandle>> memo;
  // One representative request per unique key, in first-appearance order.
  std::vector<const ResolveRequest*> unique;
  for (const ResolveRequest& request : requests) {
    std::string key =
        AsciiToLower(request.name.context) + '\x1f' + AsciiToLower(request.query_class);
    if (memo.emplace(key, UnavailableError("resolution pending")).second) {
      unique.push_back(&request);
    }
  }

  if (options_.hns_location == HnsLocation::kRemote && unique.size() > 1) {
    // Remote mode: one FindNSM exchange per unique pair, all in flight
    // before any is awaited — N distinct pairs cost one round trip's
    // latency. A transport without an async channel degrades gracefully
    // (each future completes inline, reproducing the sequential loop).
    std::vector<RpcFuture> futures;
    futures.reserve(unique.size());
    for (const ResolveRequest* request : unique) {
      Bytes body = EncodeFindNsm(request->name, request->query_class);
      futures.push_back(
          rpc_client_.CallAsync(HnsServerBinding(), kHnsProcFindNsm, body, context));
    }
    for (size_t i = 0; i < unique.size(); ++i) {
      Result<Bytes> reply = futures[i].Wait();
      std::string key = AsciiToLower(unique[i]->name.context) + '\x1f' +
                        AsciiToLower(unique[i]->query_class);
      memo.at(key) =
          reply.ok() ? DecodeFindNsmReply(*reply) : Result<NsmHandle>(reply.status());
    }
  } else {
    if (options_.hns_location == HnsLocation::kLinked && unique.size() > 1) {
      // Linked mode: warm the meta cache for every pair with concurrent
      // fetch waves, so the per-pair resolutions below are cache hits.
      std::vector<std::pair<std::string, QueryClass>> pairs;
      pairs.reserve(unique.size());
      for (const ResolveRequest* request : unique) {
        pairs.emplace_back(request->name.context, request->query_class);
      }
      hns_->PrefetchFindNsm(pairs, context);
    }
    for (const ResolveRequest* request : unique) {
      std::string key =
          AsciiToLower(request->name.context) + '\x1f' + AsciiToLower(request->query_class);
      memo.at(key) = FindNsm(request->name, request->query_class, context);
    }
  }

  for (const ResolveRequest& request : requests) {
    std::string key =
        AsciiToLower(request.name.context) + '\x1f' + AsciiToLower(request.query_class);
    results.push_back(memo.at(key));
  }
  return results;
}

HrpcBinding HnsSession::HnsServerBinding() const {
  HrpcBinding hns_binding;
  hns_binding.service_name = "hns";
  hns_binding.host = options_.hns_server_host;
  hns_binding.port = kHnsServerPort;
  hns_binding.program = kHnsProgram;
  hns_binding.control = ControlKind::kRaw;
  return hns_binding;
}

Bytes HnsSession::EncodeFindNsm(const HnsName& name, const QueryClass& query_class) {
  FindNsmRequest request;
  request.context = name.context;
  request.query_class = query_class;
  Bytes body = request.Encode();
  if (world_ != nullptr) {
    ChargeMarshal(world_, MarshalEngine::kStubGenerated, MarshalUnitsForBytes(body.size()));
  }
  return body;
}

Result<NsmHandle> HnsSession::DecodeFindNsmReply(const Bytes& reply) {
  if (world_ != nullptr) {
    ChargeDemarshal(world_, MarshalEngine::kStubGenerated,
                    MarshalUnitsForBytes(reply.size()));
  }
  HCS_ASSIGN_OR_RETURN(FindNsmResponse response, FindNsmResponse::Decode(reply));

  NsmHandle handle;
  handle.nsm_name = response.nsm_name;
  handle.binding = response.binding;
  // Prefer an instance linked into this process, when the arrangement has
  // one (row 3: [HNS] [Client, NSMs]).
  auto it = linked_nsms_.find(AsciiToLower(response.nsm_name));
  if (options_.nsm_location == NsmLocation::kLinked && it != linked_nsms_.end()) {
    handle.linked = it->second.get();
  }
  return handle;
}

Result<NsmHandle> HnsSession::FindNsmRemote(const HnsName& name,
                                            const QueryClass& query_class,
                                            const RequestContext& context) {
  Bytes body = EncodeFindNsm(name, query_class);
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       rpc_client_.Call(HnsServerBinding(), kHnsProcFindNsm, body, context));
  return DecodeFindNsmReply(reply);
}

Result<WireValue> HnsSession::CallNsmRemote(const HrpcBinding& binding, const HnsName& name,
                                            const WireValue& args,
                                            const RequestContext& context) {
  Bytes body = NsmQueryRequest::Encode(name, args);
  if (world_ != nullptr) {
    ChargeMarshal(world_, MarshalEngine::kStubGenerated, MarshalUnitsForBytes(body.size()));
  }
  HCS_ASSIGN_OR_RETURN(Bytes reply, rpc_client_.Call(binding, kNsmProcQuery, body, context));
  HCS_ASSIGN_OR_RETURN(WireValue result, WireValue::Decode(reply));
  if (world_ != nullptr) {
    ChargeDemarshal(world_, MarshalEngine::kStubGenerated, MarshalUnits(result));
  }
  return result;
}

Result<WireValue> HnsSession::CallAgent(const HnsName& name, const QueryClass& query_class,
                                        const WireValue& args, const RequestContext& context) {
  AgentQueryRequest request;
  request.name = name;
  request.query_class = query_class;
  request.args = args;

  HrpcBinding agent_binding;
  agent_binding.service_name = "hns-agent";
  agent_binding.host = options_.agent_host;
  agent_binding.port = kAgentPort;
  agent_binding.program = kAgentProgram;
  agent_binding.control = ControlKind::kRaw;

  Bytes body = request.Encode();
  if (world_ != nullptr) {
    ChargeMarshal(world_, MarshalEngine::kStubGenerated, MarshalUnitsForBytes(body.size()));
  }
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       rpc_client_.Call(agent_binding, kAgentProcQuery, body, context));
  HCS_ASSIGN_OR_RETURN(WireValue result, WireValue::Decode(reply));
  if (world_ != nullptr) {
    ChargeDemarshal(world_, MarshalEngine::kStubGenerated, MarshalUnits(result));
  }
  return result;
}

Result<WireValue> HnsSession::Query(const HnsName& name, const QueryClass& query_class,
                                    const WireValue& args, const RequestContext& context) {
  if (options_.hns_location == HnsLocation::kAgent) {
    return CallAgent(name, query_class, args, context);
  }

  HCS_ASSIGN_OR_RETURN(NsmHandle handle, FindNsm(name, query_class, context));

  if (handle.is_linked() && options_.nsm_location == NsmLocation::kLinked) {
    // Colocated NSM: a local procedure call, no remote exchange. The
    // context still applies: make it ambient so the NSM's budget check and
    // any nested resolution it performs see the deadline.
    ScopedRequestContext scope(context.empty() ? CurrentRequestContext() : context);
    return handle.linked->Query(name, args);
  }
  return CallNsmRemote(handle.binding, name, args, context);
}

}  // namespace hcs
