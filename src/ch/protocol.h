// Clearinghouse protocol: Courier-encoded request/response bodies. Every
// call carries credentials; the server authenticates each access (which is
// a large part of why Clearinghouse lookups are slow — paper footnote 5).

#ifndef HCS_SRC_CH_PROTOCOL_H_
#define HCS_SRC_CH_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "src/ch/name.h"
#include "src/common/result.h"
#include "src/wire/value.h"

namespace hcs {

// Clearinghouse procedures (program kClearinghouseProgram).
constexpr uint32_t kChProcRetrieveItem = 1;
constexpr uint32_t kChProcAddItem = 2;
constexpr uint32_t kChProcDeleteItem = 3;
constexpr uint32_t kChProcListObjects = 4;

// Well-known property ids (Clearinghouse convention: a name maps to a set of
// (property, item) pairs).
constexpr uint32_t kChPropAddress = 4;       // network address of the named entity
constexpr uint32_t kChPropService = 6;       // service registration (binding info)
constexpr uint32_t kChPropUser = 10;         // user descriptor
constexpr uint32_t kChPropMailboxes = 31;    // mail delivery site list

struct ChCredentials {
  std::string user;  // "name:domain:org" of the caller
  std::string password;

  void EncodeTo(class CourierEncoder* enc) const;
  HCS_NODISCARD static Result<ChCredentials> DecodeFrom(class CourierDecoder* dec);
};

struct ChRetrieveItemRequest {
  ChCredentials credentials;
  ChName name;
  uint32_t property = 0;

  Bytes Encode() const;
  HCS_NODISCARD static Result<ChRetrieveItemRequest> Decode(BytesView data);
};

struct ChRetrieveItemResponse {
  // The distinguished (canonical) form of the queried name, aliases
  // resolved.
  ChName distinguished_name;
  WireValue item;

  Bytes Encode() const;
  HCS_NODISCARD static Result<ChRetrieveItemResponse> Decode(BytesView data);
};

struct ChAddItemRequest {
  ChCredentials credentials;
  ChName name;
  uint32_t property = 0;
  WireValue item;

  Bytes Encode() const;
  HCS_NODISCARD static Result<ChAddItemRequest> Decode(BytesView data);
};

struct ChDeleteItemRequest {
  ChCredentials credentials;
  ChName name;
  uint32_t property = 0;

  Bytes Encode() const;
  HCS_NODISCARD static Result<ChDeleteItemRequest> Decode(BytesView data);
};

struct ChListObjectsRequest {
  ChCredentials credentials;
  // domain:organization to enumerate.
  std::string domain;
  std::string organization;

  Bytes Encode() const;
  HCS_NODISCARD static Result<ChListObjectsRequest> Decode(BytesView data);
};

struct ChListObjectsResponse {
  std::vector<std::string> objects;

  Bytes Encode() const;
  HCS_NODISCARD static Result<ChListObjectsResponse> Decode(BytesView data);
};

}  // namespace hcs

#endif  // HCS_SRC_CH_PROTOCOL_H_
