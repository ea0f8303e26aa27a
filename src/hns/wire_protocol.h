// Wire bodies for the HNS-level RPC interfaces: remote NSM queries, remote
// HNS FindNSM, and the combined agent. Shared by the client stubs and the
// server wrappers.

#ifndef HCS_SRC_HNS_WIRE_PROTOCOL_H_
#define HCS_SRC_HNS_WIRE_PROTOCOL_H_

#include <string>

#include "src/common/result.h"
#include "src/hns/name.h"
#include "src/rpc/binding.h"
#include "src/wire/value.h"

namespace hcs {

// Procedure numbers.
constexpr uint32_t kNsmProcQuery = 1;
constexpr uint32_t kHnsProcFindNsm = 1;
constexpr uint32_t kAgentProcQuery = 1;

// --- Remote NSM query --------------------------------------------------------
// All query classes share this envelope; the query-class-specific payloads
// are the self-describing `args` and result values (which is what lets the
// HNS avoid recompilation when query classes are added).
struct NsmQueryRequest {
  HnsName name;
  WireValue args;

  Bytes Encode() const { return Encode(name, args); }
  // The same envelope for a name and args the caller already holds, so a
  // client encodes them without copying them into a request first.
  static Bytes Encode(const HnsName& name, const WireValue& args);
  HCS_NODISCARD static Result<NsmQueryRequest> Decode(BytesView data);
};
// The NSM reply body is a bare encoded WireValue.

// --- Remote HNS FindNSM -----------------------------------------------------
struct FindNsmRequest {
  std::string context;
  QueryClass query_class;

  Bytes Encode() const;
  HCS_NODISCARD static Result<FindNsmRequest> Decode(BytesView data);
};

struct FindNsmResponse {
  std::string nsm_name;
  HrpcBinding binding;

  Bytes Encode() const;
  HCS_NODISCARD static Result<FindNsmResponse> Decode(BytesView data);
};

// --- Agent (colocated HNS + NSMs behind one remote interface) ---------------
struct AgentQueryRequest {
  HnsName name;
  QueryClass query_class;
  WireValue args;

  Bytes Encode() const;
  HCS_NODISCARD static Result<AgentQueryRequest> Decode(BytesView data);
};
// The agent reply body is a bare encoded WireValue (the NSM's result).

}  // namespace hcs

#endif  // HCS_SRC_HNS_WIRE_PROTOCOL_H_
