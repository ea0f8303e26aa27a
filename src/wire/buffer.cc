#include "src/wire/buffer.h"

#include "src/common/strings.h"

namespace hcs {

Status BufferReader::Need(size_t n) const {
  // Phrased as a subtraction so a wire-supplied n near SIZE_MAX cannot wrap
  // pos_ + n around and sneak past the bound (pos_ <= size_ always holds).
  if (n > size_ - pos_) {
    return ProtocolError(
        StrFormat("buffer underrun: need %zu bytes at offset %zu of %zu", n, pos_, size_));
  }
  return Status::Ok();
}

Result<uint8_t> BufferReader::GetU8() {
  HCS_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint16_t> BufferReader::GetU16() {
  HCS_RETURN_IF_ERROR(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_] << 8) | data_[pos_ + 1];
  pos_ += 2;
  return v;
}

Result<uint32_t> BufferReader::GetU32() {
  HCS_RETURN_IF_ERROR(Need(4));
  uint32_t v = (static_cast<uint32_t>(data_[pos_]) << 24) |
               (static_cast<uint32_t>(data_[pos_ + 1]) << 16) |
               (static_cast<uint32_t>(data_[pos_ + 2]) << 8) |
               static_cast<uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

Result<uint64_t> BufferReader::GetU64() {
  HCS_ASSIGN_OR_RETURN(uint32_t hi, GetU32());
  HCS_ASSIGN_OR_RETURN(uint32_t lo, GetU32());
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

Result<Bytes> BufferReader::GetBytes(size_t n) {
  HCS_RETURN_IF_ERROR(Need(n));
  Bytes out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

Result<BytesView> BufferReader::GetView(size_t n) {
  HCS_RETURN_IF_ERROR(Need(n));
  BytesView out(data_ + pos_, n);
  pos_ += n;
  return out;
}

Status BufferReader::Skip(size_t n) {
  HCS_RETURN_IF_ERROR(Need(n));
  pos_ += n;
  return Status::Ok();
}

}  // namespace hcs
