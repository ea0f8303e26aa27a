// Courier — the Xerox XNS data representation used by the Clearinghouse and
// the Xerox D-machines. Quantities are sequences of big-endian 16-bit words;
// strings are length-prefixed byte sequences padded to a word boundary;
// 32-bit values are two words, high word first.

#ifndef HCS_SRC_WIRE_COURIER_H_
#define HCS_SRC_WIRE_COURIER_H_

#include <cstdint>
#include <string>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/wire/buffer.h"

namespace hcs {

// Padding needed to align `n` bytes up to a 16-bit word boundary.
constexpr size_t CourierPadding(size_t n) { return n % 2; }

class CourierEncoder {
 public:
  CourierEncoder() = default;
  // Encodes into `*out` (cleared first) instead of an internal buffer.
  explicit CourierEncoder(Bytes* out) : w_(out) {}

  // CARDINAL: one 16-bit word.
  void PutCardinal(uint16_t v) { w_.PutU16(v); }
  // LONG CARDINAL: two words, high first.
  void PutLongCardinal(uint32_t v) { w_.PutU32(v); }
  // BOOLEAN: one word, 0 or 1.
  void PutBoolean(bool v) { w_.PutU16(v ? 1 : 0); }
  // STRING: word count prefix is the *byte* length; padded to a word.
  void PutString(const std::string& s);
  // SEQUENCE OF UNSPECIFIED: word length prefix then raw words (byte pairs).
  void PutSequence(BytesView data);

  // Sizes of what PutString/PutSequence append, for Reserve.
  static constexpr size_t SequenceSize(size_t n) { return 2 + n + CourierPadding(n); }
  void Reserve(size_t n) { w_.Reserve(n); }

  size_t size() const { return w_.size(); }
  const Bytes& bytes() const { return w_.bytes(); }
  Bytes Take() { return w_.Take(); }

 private:
  BufferWriter w_;
};

class CourierDecoder {
 public:
  explicit CourierDecoder(const Bytes& data) : r_(data) {}
  CourierDecoder(const uint8_t* data, size_t size) : r_(data, size) {}
  explicit CourierDecoder(BytesView data) : r_(data.data(), data.size()) {}

  HCS_NODISCARD Result<uint16_t> GetCardinal() { return r_.GetU16(); }
  HCS_NODISCARD Result<uint32_t> GetLongCardinal() { return r_.GetU32(); }
  HCS_NODISCARD Result<bool> GetBoolean();
  HCS_NODISCARD Result<std::string> GetString();
  HCS_NODISCARD Result<Bytes> GetSequence();
  // Zero-copy variant: the view aliases the decoder's buffer and is valid
  // only while that buffer lives.
  HCS_NODISCARD Result<BytesView> GetSequenceView();

  size_t remaining() const { return r_.remaining(); }
  bool AtEnd() const { return r_.AtEnd(); }

 private:
  BufferReader r_;
};

}  // namespace hcs

#endif  // HCS_SRC_WIRE_COURIER_H_
