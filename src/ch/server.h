// ChServer: a Clearinghouse-style name server for the Xerox side of the
// testbed. Names are object:domain:organization; each object holds a set of
// (property, item) pairs. Every access is authenticated and the database
// lives on disk, so each access pays authentication + disk costs — the
// paper's explanation for the 156 ms Clearinghouse lookups vs BIND's 27 ms.

#ifndef HCS_SRC_CH_SERVER_H_
#define HCS_SRC_CH_SERVER_H_

#include <map>
#include <memory>
#include <string>

#include "src/ch/protocol.h"
#include "src/rpc/client.h"
#include "src/rpc/server.h"
#include "src/rpc/transport.h"
#include "src/sim/world.h"

namespace hcs {

struct ChServerOptions {
  // Authenticate each access against the registered accounts. When false
  // (test-only), any credentials pass.
  bool require_authentication = true;
};

class ChServer {
 public:
  // Creates the server, registers it at (host, kClearinghousePort), and
  // hands ownership to the world.
  HCS_NODISCARD static Result<ChServer*> InstallOn(World* world, const std::string& host,
                                     ChServerOptions options);

  // Administrative (non-RPC) setup.
  void AddDomain(const std::string& domain, const std::string& organization);
  void AddAccount(const std::string& user, const std::string& password);
  // Registers `alias` as an alternate name for `target`.
  HCS_NODISCARD Status AddAlias(const ChName& alias, const ChName& target);

  // Registers a replica Clearinghouse (already installed in the world) to
  // which this server synchronously propagates writes. Clients fail over to
  // replicas when the primary is unreachable.
  void AddReplicaTarget(const std::string& host) { replica_hosts_.push_back(host); }

  // --- Local (linked) interface; also used by the RPC handlers ------------
  HCS_NODISCARD Result<ChRetrieveItemResponse> RetrieveItemLocal(const ChRetrieveItemRequest& request);
  HCS_NODISCARD Result<ChRetrieveItemResponse> AddItemLocal(const ChAddItemRequest& request);
  HCS_NODISCARD Status DeleteItemLocal(const ChDeleteItemRequest& request);
  HCS_NODISCARD Result<ChListObjectsResponse> ListObjectsLocal(const ChListObjectsRequest& request);

  RpcServer* rpc() { return &rpc_server_; }
  const std::string& host() const { return host_; }

  // Total items across all domains (tests).
  size_t item_count() const;

 private:
  ChServer(World* world, std::string host, ChServerOptions options);
  void RegisterHandlers();

  // Charges the per-access costs and checks credentials.
  HCS_NODISCARD Status Authenticate(const ChCredentials& credentials);
  // Forwards a successful write to every replica (best effort: an
  // unreachable replica converges on its next write or administrative sync).
  void PropagateWrite(uint32_t procedure, BytesView body);
  // Resolves aliases to the distinguished name.
  ChName Canonicalize(const ChName& name) const;

  static std::string ObjectKey(const ChName& name);

  World* world_;
  std::string host_;
  ChServerOptions options_;
  RpcServer rpc_server_;
  SimNetTransport transport_;
  RpcClient replica_client_;
  std::vector<std::string> replica_hosts_;
  // domain key -> exists (domains must be created before use).
  std::map<std::string, bool> domains_;
  // "object:domain:org" (lower) -> property -> item.
  std::map<std::string, std::map<uint32_t, WireValue>> objects_;
  // lower key -> object name as first registered (Clearinghouse names
  // preserve case even though matching ignores it).
  std::map<std::string, std::string> display_names_;
  // alias key (lower) -> distinguished name.
  std::map<std::string, ChName> aliases_;
  std::map<std::string, std::string> accounts_;
};

}  // namespace hcs

#endif  // HCS_SRC_CH_SERVER_H_
