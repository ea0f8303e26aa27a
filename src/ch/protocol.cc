#include "src/ch/protocol.h"

#include "src/wire/courier.h"

namespace hcs {

namespace {

void EncodeName(CourierEncoder* enc, const ChName& name) {
  enc->PutString(name.object);
  enc->PutString(name.domain);
  enc->PutString(name.organization);
}

Result<ChName> DecodeName(CourierDecoder* dec) {
  ChName name;
  HCS_ASSIGN_OR_RETURN(name.object, dec->GetString());
  HCS_ASSIGN_OR_RETURN(name.domain, dec->GetString());
  HCS_ASSIGN_OR_RETURN(name.organization, dec->GetString());
  return name;
}

// WireValues ride inside Courier sequences as their XDR encoding; the
// Clearinghouse treats item bodies as uninterpreted words.
void EncodeItem(CourierEncoder* enc, const WireValue& item) {
  enc->PutSequence(item.Encode());
}

Result<WireValue> DecodeItem(CourierDecoder* dec) {
  HCS_ASSIGN_OR_RETURN(BytesView body, dec->GetSequenceView());
  return WireValue::Decode(body);
}

}  // namespace

void ChCredentials::EncodeTo(CourierEncoder* enc) const {
  enc->PutString(user);
  enc->PutString(password);
}

Result<ChCredentials> ChCredentials::DecodeFrom(CourierDecoder* dec) {
  ChCredentials creds;
  HCS_ASSIGN_OR_RETURN(creds.user, dec->GetString());
  HCS_ASSIGN_OR_RETURN(creds.password, dec->GetString());
  return creds;
}

Bytes ChRetrieveItemRequest::Encode() const {
  CourierEncoder enc;
  credentials.EncodeTo(&enc);
  EncodeName(&enc, name);
  enc.PutLongCardinal(property);
  return enc.Take();
}

Result<ChRetrieveItemRequest> ChRetrieveItemRequest::Decode(BytesView data) {
  CourierDecoder dec(data);
  ChRetrieveItemRequest req;
  HCS_ASSIGN_OR_RETURN(req.credentials, ChCredentials::DecodeFrom(&dec));
  HCS_ASSIGN_OR_RETURN(req.name, DecodeName(&dec));
  HCS_ASSIGN_OR_RETURN(req.property, dec.GetLongCardinal());
  return req;
}

Bytes ChRetrieveItemResponse::Encode() const {
  CourierEncoder enc;
  EncodeName(&enc, distinguished_name);
  EncodeItem(&enc, item);
  return enc.Take();
}

Result<ChRetrieveItemResponse> ChRetrieveItemResponse::Decode(BytesView data) {
  CourierDecoder dec(data);
  ChRetrieveItemResponse resp;
  HCS_ASSIGN_OR_RETURN(resp.distinguished_name, DecodeName(&dec));
  HCS_ASSIGN_OR_RETURN(resp.item, DecodeItem(&dec));
  return resp;
}

Bytes ChAddItemRequest::Encode() const {
  CourierEncoder enc;
  credentials.EncodeTo(&enc);
  EncodeName(&enc, name);
  enc.PutLongCardinal(property);
  EncodeItem(&enc, item);
  return enc.Take();
}

Result<ChAddItemRequest> ChAddItemRequest::Decode(BytesView data) {
  CourierDecoder dec(data);
  ChAddItemRequest req;
  HCS_ASSIGN_OR_RETURN(req.credentials, ChCredentials::DecodeFrom(&dec));
  HCS_ASSIGN_OR_RETURN(req.name, DecodeName(&dec));
  HCS_ASSIGN_OR_RETURN(req.property, dec.GetLongCardinal());
  HCS_ASSIGN_OR_RETURN(req.item, DecodeItem(&dec));
  return req;
}

Bytes ChDeleteItemRequest::Encode() const {
  CourierEncoder enc;
  credentials.EncodeTo(&enc);
  EncodeName(&enc, name);
  enc.PutLongCardinal(property);
  return enc.Take();
}

Result<ChDeleteItemRequest> ChDeleteItemRequest::Decode(BytesView data) {
  CourierDecoder dec(data);
  ChDeleteItemRequest req;
  HCS_ASSIGN_OR_RETURN(req.credentials, ChCredentials::DecodeFrom(&dec));
  HCS_ASSIGN_OR_RETURN(req.name, DecodeName(&dec));
  HCS_ASSIGN_OR_RETURN(req.property, dec.GetLongCardinal());
  return req;
}

Bytes ChListObjectsRequest::Encode() const {
  CourierEncoder enc;
  credentials.EncodeTo(&enc);
  enc.PutString(domain);
  enc.PutString(organization);
  return enc.Take();
}

Result<ChListObjectsRequest> ChListObjectsRequest::Decode(BytesView data) {
  CourierDecoder dec(data);
  ChListObjectsRequest req;
  HCS_ASSIGN_OR_RETURN(req.credentials, ChCredentials::DecodeFrom(&dec));
  HCS_ASSIGN_OR_RETURN(req.domain, dec.GetString());
  HCS_ASSIGN_OR_RETURN(req.organization, dec.GetString());
  return req;
}

Bytes ChListObjectsResponse::Encode() const {
  CourierEncoder enc;
  enc.PutCardinal(static_cast<uint16_t>(objects.size()));
  for (const std::string& object : objects) {
    enc.PutString(object);
  }
  return enc.Take();
}

Result<ChListObjectsResponse> ChListObjectsResponse::Decode(BytesView data) {
  CourierDecoder dec(data);
  ChListObjectsResponse resp;
  HCS_ASSIGN_OR_RETURN(uint16_t n, dec.GetCardinal());
  resp.objects.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    HCS_ASSIGN_OR_RETURN(std::string object, dec.GetString());
    resp.objects.push_back(std::move(object));
  }
  return resp;
}

}  // namespace hcs
