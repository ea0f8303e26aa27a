#include "src/wire/courier.h"

#include <cassert>

#include "src/common/strings.h"

namespace hcs {

void CourierEncoder::PutString(const std::string& s) {
  assert(s.size() <= 0xffff && "Courier strings carry a 16-bit length");
  w_.PutU16(static_cast<uint16_t>(s.size()));
  w_.PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  w_.PutZeros(CourierPadding(s.size()));
}

void CourierEncoder::PutSequence(BytesView data) {
  assert(data.size() <= 0xffff && "Courier sequences carry a 16-bit length");
  w_.PutU16(static_cast<uint16_t>(data.size()));
  w_.PutBytes(data.data(), data.size());
  w_.PutZeros(CourierPadding(data.size()));
}

Result<bool> CourierDecoder::GetBoolean() {
  HCS_ASSIGN_OR_RETURN(uint16_t v, r_.GetU16());
  if (v != 0 && v != 1) {
    return ProtocolError(StrFormat("Courier BOOLEAN out of range: %u", v));
  }
  return v == 1;
}

Result<std::string> CourierDecoder::GetString() {
  HCS_ASSIGN_OR_RETURN(BytesView data, GetSequenceView());
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

Result<BytesView> CourierDecoder::GetSequenceView() {
  HCS_ASSIGN_OR_RETURN(uint16_t len, r_.GetU16());
  HCS_ASSIGN_OR_RETURN(BytesView data, r_.GetView(len));
  HCS_RETURN_IF_ERROR(r_.Skip(CourierPadding(len)));
  return data;
}

Result<Bytes> CourierDecoder::GetSequence() {
  HCS_ASSIGN_OR_RETURN(uint16_t len, r_.GetU16());
  HCS_ASSIGN_OR_RETURN(Bytes data, r_.GetBytes(len));
  HCS_RETURN_IF_ERROR(r_.Skip(CourierPadding(len)));
  return data;
}

}  // namespace hcs
