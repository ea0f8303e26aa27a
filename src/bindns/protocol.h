// The BIND client/server message formats. In the real system these are DNS
// packets; here they are XDR-framed bodies carried by the Raw HRPC control
// protocol (the paper's HNS likewise built an HRPC interface to BIND rather
// than use the standard library's packet routines).

#ifndef HCS_SRC_BINDNS_PROTOCOL_H_
#define HCS_SRC_BINDNS_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/bindns/record.h"
#include "src/common/result.h"

namespace hcs {

// BIND server procedures (program kBindProgram).
constexpr uint32_t kBindProcQuery = 1;
// Dynamic update — supported only by the HNS-modified BIND.
constexpr uint32_t kBindProcUpdate = 2;
// Zone transfer (AXFR) — used by secondaries and by HNS cache preload.
constexpr uint32_t kBindProcAxfr = 3;
// Cache invalidation pushed by the modified-BIND primary to its forwarding
// secondaries when a dynamic update changes a name (part of the dynamic-
// update modification; plain BIND relies on TTL expiry alone).
constexpr uint32_t kBindProcInvalidate = 4;

// Response codes (DNS numbering).
enum class Rcode : uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

struct BindQueryRequest {
  std::string name;
  RrType type = RrType::kA;
  // A recursive query asks the server to chase the answer through its
  // forwarder on a miss; iterative queries fail over to the caller.
  bool recursion_desired = true;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindQueryRequest> Decode(BytesView data);
};

struct BindQueryResponse {
  Rcode rcode = Rcode::kNoError;
  std::vector<ResourceRecord> answers;
  // True when the answer came from this server's authoritative data rather
  // than its forwarding cache.
  bool authoritative = true;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindQueryResponse> Decode(BytesView data);
};

enum class UpdateOp : uint8_t {
  kAdd = 0,
  // Removes all records of (name, type); type kAny removes the whole name.
  kDelete = 1,
};

struct BindUpdateRequest {
  UpdateOp op = UpdateOp::kAdd;
  ResourceRecord record;  // for kDelete only name/type are meaningful

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindUpdateRequest> Decode(BytesView data);
};

struct BindUpdateResponse {
  Rcode rcode = Rcode::kNoError;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindUpdateResponse> Decode(BytesView data);
};

struct BindInvalidateRequest {
  // All cached records of this name (any type) are dropped.
  std::string name;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindInvalidateRequest> Decode(BytesView data);
};

struct BindAxfrRequest {
  std::string origin;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindAxfrRequest> Decode(BytesView data);
};

struct BindAxfrResponse {
  Rcode rcode = Rcode::kNoError;
  uint32_t serial = 0;
  std::vector<ResourceRecord> records;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindAxfrResponse> Decode(BytesView data);
};

}  // namespace hcs

#endif  // HCS_SRC_BINDNS_PROTOCOL_H_
