// XDR (RFC 1014-style External Data Representation) — the data
// representation used by Sun RPC. All quantities are big-endian and padded
// to 4-byte alignment, exactly as on the wire in 1987.

#ifndef HCS_SRC_WIRE_XDR_H_
#define HCS_SRC_WIRE_XDR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/wire/buffer.h"

namespace hcs {

// Padding needed to align `n` up to a 4-byte boundary.
constexpr size_t XdrPadding(size_t n) { return (4 - n % 4) % 4; }

class XdrEncoder {
 public:
  XdrEncoder() = default;
  // Encodes into `*out` (cleared first) instead of an internal buffer, so
  // hot paths reuse one allocation across calls.
  explicit XdrEncoder(Bytes* out) : w_(out) {}

  void PutUint32(uint32_t v) { w_.PutU32(v); }
  void PutInt32(int32_t v) { w_.PutU32(static_cast<uint32_t>(v)); }
  void PutUint64(uint64_t v) { w_.PutU64(v); }
  void PutBool(bool v) { w_.PutU32(v ? 1 : 0); }

  // Variable-length opaque: 4-byte length, data, zero padding to a 4-byte
  // boundary.
  void PutOpaque(BytesView data);
  // Strings are encoded as opaque byte sequences.
  void PutString(const std::string& s);

  // Sizes of what the Put* calls above append, for Reserve.
  static constexpr size_t OpaqueSize(size_t n) { return 4 + n + XdrPadding(n); }
  void Reserve(size_t n) { w_.Reserve(n); }

  size_t size() const { return w_.size(); }
  const Bytes& bytes() const { return w_.bytes(); }
  Bytes Take() { return w_.Take(); }

 private:
  BufferWriter w_;
};

class XdrDecoder {
 public:
  explicit XdrDecoder(const Bytes& data) : r_(data) {}
  XdrDecoder(const uint8_t* data, size_t size) : r_(data, size) {}
  explicit XdrDecoder(BytesView data) : r_(data.data(), data.size()) {}

  HCS_NODISCARD Result<uint32_t> GetUint32() { return r_.GetU32(); }
  HCS_NODISCARD Result<int32_t> GetInt32();
  HCS_NODISCARD Result<uint64_t> GetUint64() { return r_.GetU64(); }
  HCS_NODISCARD Result<bool> GetBool();
  HCS_NODISCARD Result<Bytes> GetOpaque();
  // Zero-copy variant: the view aliases the decoder's buffer and is valid
  // only while that buffer lives.
  HCS_NODISCARD Result<BytesView> GetOpaqueView();
  // Built straight from the buffer: one allocation at most, none for a
  // string short enough for the small-string buffer.
  HCS_NODISCARD Result<std::string> GetString();

  size_t remaining() const { return r_.remaining(); }
  bool AtEnd() const { return r_.AtEnd(); }

 private:
  BufferReader r_;
};

}  // namespace hcs

#endif  // HCS_SRC_WIRE_XDR_H_
