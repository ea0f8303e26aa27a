// Bounds-checked byte-buffer primitives shared by the XDR and Courier data
// representations. BufferWriter appends; BufferReader consumes with
// Result-based error reporting (a truncated or corrupt message surfaces as
// kProtocolError, never as UB).

#ifndef HCS_SRC_WIRE_BUFFER_H_
#define HCS_SRC_WIRE_BUFFER_H_

#include <cstdint>
#include <string>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace hcs {

class BufferWriter {
 public:
  BufferWriter() = default;
  // External-target mode: appends into `*out` (cleared first) instead of an
  // internal buffer, so callers can reuse one allocation across encodes.
  // `*out` must outlive the writer.
  explicit BufferWriter(Bytes* out) : out_(out) { out_->clear(); }

  // Raw big-endian integer appends, each one append of its width.
  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) {
    uint8_t* p = Grow(2);
    p[0] = static_cast<uint8_t>(v >> 8);
    p[1] = static_cast<uint8_t>(v);
  }
  void PutU32(uint32_t v) {
    uint8_t* p = Grow(4);
    p[0] = static_cast<uint8_t>(v >> 24);
    p[1] = static_cast<uint8_t>(v >> 16);
    p[2] = static_cast<uint8_t>(v >> 8);
    p[3] = static_cast<uint8_t>(v);
  }
  void PutU64(uint64_t v) {
    PutU32(static_cast<uint32_t>(v >> 32));
    PutU32(static_cast<uint32_t>(v));
  }

  // Appends `n` bytes of `data`.
  void PutBytes(const uint8_t* data, size_t n) { out_->insert(out_->end(), data, data + n); }
  void PutBytes(const Bytes& data) { PutBytes(data.data(), data.size()); }

  // Appends `n` zero bytes (padding).
  void PutZeros(size_t n) { out_->insert(out_->end(), n, 0); }

  // Makes room for `n` more bytes, so an encoder that knows its message
  // size grows the buffer once instead of doubling its way there. Call it
  // once per message, before the first append: reserve() grows to exactly
  // what is asked, so repeated small reserves would copy on every call.
  void Reserve(size_t n) { out_->reserve(out_->size() + n); }

  size_t size() const { return out_->size(); }
  const Bytes& bytes() const { return *out_; }
  Bytes Take() { return std::move(*out_); }

 private:
  // Appends `n` bytes and returns where they start.
  uint8_t* Grow(size_t n) {
    const size_t at = out_->size();
    out_->resize(at + n);
    return out_->data() + at;
  }

  Bytes own_;
  Bytes* out_ = &own_;
};

class BufferReader {
 public:
  explicit BufferReader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  // Each read checks its bound inline and builds the underrun error out of
  // line (Underrun), so a decode that stays in bounds pays one compare per
  // primitive and no call.
  HCS_NODISCARD Result<uint8_t> GetU8() {
    if (!Has(1)) {
      return Underrun(1);
    }
    return data_[pos_++];
  }
  HCS_NODISCARD Result<uint16_t> GetU16() {
    if (!Has(2)) {
      return Underrun(2);
    }
    uint16_t v = static_cast<uint16_t>(data_[pos_] << 8) | data_[pos_ + 1];
    pos_ += 2;
    return v;
  }
  HCS_NODISCARD Result<uint32_t> GetU32() {
    if (!Has(4)) {
      return Underrun(4);
    }
    uint32_t v = (static_cast<uint32_t>(data_[pos_]) << 24) |
                 (static_cast<uint32_t>(data_[pos_ + 1]) << 16) |
                 (static_cast<uint32_t>(data_[pos_ + 2]) << 8) |
                 static_cast<uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  HCS_NODISCARD Result<uint64_t> GetU64() {
    HCS_ASSIGN_OR_RETURN(uint32_t hi, GetU32());
    HCS_ASSIGN_OR_RETURN(uint32_t lo, GetU32());
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }

  // Reads exactly `n` bytes.
  HCS_NODISCARD Result<Bytes> GetBytes(size_t n) {
    if (!Has(n)) {
      return Underrun(n);
    }
    Bytes out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  // Reads exactly `n` bytes as a view into the underlying buffer (no copy);
  // valid only while that buffer lives.
  HCS_NODISCARD Result<BytesView> GetView(size_t n) {
    if (!Has(n)) {
      return Underrun(n);
    }
    BytesView out(data_ + pos_, n);
    pos_ += n;
    return out;
  }

  // Skips `n` bytes (padding).
  HCS_NODISCARD Status Skip(size_t n) {
    if (!Has(n)) {
      return Underrun(n);
    }
    pos_ += n;
    return Status::Ok();
  }

  // Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }
  // True when the whole buffer has been consumed (message framing checks).
  bool AtEnd() const { return pos_ == size_; }
  size_t position() const { return pos_; }

 private:
  // Phrased as a subtraction so a wire-supplied n near SIZE_MAX cannot wrap
  // pos_ + n around and sneak past the bound (pos_ <= size_ always holds).
  bool Has(size_t n) const { return n <= size_ - pos_; }
  // The kProtocolError for a read of `n` bytes past the end.
  [[gnu::cold, gnu::noinline]] Status Underrun(size_t n) const;

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace hcs

#endif  // HCS_SRC_WIRE_BUFFER_H_
