#include "src/wire/xdr.h"

#include "src/common/strings.h"

namespace hcs {

void XdrEncoder::PutOpaque(BytesView data) {
  w_.PutU32(static_cast<uint32_t>(data.size()));
  w_.PutBytes(data.data(), data.size());
  w_.PutZeros(XdrPadding(data.size()));
}

void XdrEncoder::PutString(const std::string& s) {
  w_.PutU32(static_cast<uint32_t>(s.size()));
  w_.PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  w_.PutZeros(XdrPadding(s.size()));
}

Result<int32_t> XdrDecoder::GetInt32() {
  HCS_ASSIGN_OR_RETURN(uint32_t v, r_.GetU32());
  return static_cast<int32_t>(v);
}

Result<bool> XdrDecoder::GetBool() {
  HCS_ASSIGN_OR_RETURN(uint32_t v, r_.GetU32());
  if (v != 0 && v != 1) {
    return ProtocolError(StrFormat("XDR bool out of range: %u", v));
  }
  return v == 1;
}

Result<Bytes> XdrDecoder::GetOpaque() {
  HCS_ASSIGN_OR_RETURN(uint32_t len, r_.GetU32());
  HCS_ASSIGN_OR_RETURN(Bytes data, r_.GetBytes(len));
  HCS_RETURN_IF_ERROR(r_.Skip(XdrPadding(len)));
  return data;
}

Result<BytesView> XdrDecoder::GetOpaqueView() {
  HCS_ASSIGN_OR_RETURN(uint32_t len, r_.GetU32());
  HCS_ASSIGN_OR_RETURN(BytesView data, r_.GetView(len));
  HCS_RETURN_IF_ERROR(r_.Skip(XdrPadding(len)));
  return data;
}

Result<std::string> XdrDecoder::GetString() {
  HCS_ASSIGN_OR_RETURN(BytesView data, GetOpaqueView());
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

}  // namespace hcs
