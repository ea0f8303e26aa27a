#include "src/hns/wire_protocol.h"

#include "src/wire/xdr.h"

namespace hcs {

// The self-describing value that closes each envelope below is written and
// read in place, with no length prefix: the envelope ends where the value
// does (its XDR encoding is whole words, so no padding follows), and a
// decode must use every byte.

namespace {

Status CheckEnvelopeEnd(const XdrDecoder& dec, const char* what) {
  if (!dec.AtEnd()) {
    return ProtocolError(std::string("trailing bytes after ") + what);
  }
  return Status::Ok();
}

}  // namespace

Bytes NsmQueryRequest::Encode(const HnsName& name, const WireValue& args) {
  XdrEncoder enc;
  enc.Reserve(XdrEncoder::OpaqueSize(name.context.size()) +
              XdrEncoder::OpaqueSize(name.individual.size()) + args.EncodedSize());
  enc.PutString(name.context);
  enc.PutString(name.individual);
  args.EncodeTo(&enc);
  return enc.Take();
}

Result<NsmQueryRequest> NsmQueryRequest::Decode(BytesView data) {
  XdrDecoder dec(data);
  NsmQueryRequest req;
  HCS_ASSIGN_OR_RETURN(req.name.context, dec.GetString());
  HCS_ASSIGN_OR_RETURN(req.name.individual, dec.GetString());
  HCS_RETURN_IF_ERROR(WireValue::DecodeFrom(&dec, &req.args));
  HCS_RETURN_IF_ERROR(CheckEnvelopeEnd(dec, "NSM query args"));
  return req;
}

Bytes FindNsmRequest::Encode() const {
  XdrEncoder enc;
  enc.PutString(context);
  enc.PutString(query_class);
  return enc.Take();
}

Result<FindNsmRequest> FindNsmRequest::Decode(BytesView data) {
  XdrDecoder dec(data);
  FindNsmRequest req;
  HCS_ASSIGN_OR_RETURN(req.context, dec.GetString());
  HCS_ASSIGN_OR_RETURN(req.query_class, dec.GetString());
  return req;
}

Bytes FindNsmResponse::Encode() const {
  const WireValue wire = binding.ToWire();
  XdrEncoder enc;
  enc.Reserve(XdrEncoder::OpaqueSize(nsm_name.size()) + wire.EncodedSize());
  enc.PutString(nsm_name);
  wire.EncodeTo(&enc);
  return enc.Take();
}

Result<FindNsmResponse> FindNsmResponse::Decode(BytesView data) {
  XdrDecoder dec(data);
  FindNsmResponse resp;
  HCS_ASSIGN_OR_RETURN(resp.nsm_name, dec.GetString());
  HCS_ASSIGN_OR_RETURN(WireValue value, WireValue::DecodeFrom(&dec));
  HCS_RETURN_IF_ERROR(CheckEnvelopeEnd(dec, "FindNSM binding"));
  HCS_ASSIGN_OR_RETURN(resp.binding, HrpcBinding::FromWire(value));
  return resp;
}

Bytes AgentQueryRequest::Encode() const {
  XdrEncoder enc;
  enc.Reserve(XdrEncoder::OpaqueSize(name.context.size()) +
              XdrEncoder::OpaqueSize(name.individual.size()) +
              XdrEncoder::OpaqueSize(query_class.size()) + args.EncodedSize());
  enc.PutString(name.context);
  enc.PutString(name.individual);
  enc.PutString(query_class);
  args.EncodeTo(&enc);
  return enc.Take();
}

Result<AgentQueryRequest> AgentQueryRequest::Decode(BytesView data) {
  XdrDecoder dec(data);
  AgentQueryRequest req;
  HCS_ASSIGN_OR_RETURN(req.name.context, dec.GetString());
  HCS_ASSIGN_OR_RETURN(req.name.individual, dec.GetString());
  HCS_ASSIGN_OR_RETURN(req.query_class, dec.GetString());
  HCS_RETURN_IF_ERROR(WireValue::DecodeFrom(&dec, &req.args));
  HCS_RETURN_IF_ERROR(CheckEnvelopeEnd(dec, "agent query args"));
  return req;
}

}  // namespace hcs
