// WireValue: a self-describing tagged value. Two uses in the tree:
//   1. "data of unspecified type" stored in the HNS-modified BIND meta
//      store (the paper's §3 modification of BIND),
//   2. the standardized per-query-class result formats returned by NSMs.
// Encoded with XDR framing plus a one-word type tag per value.

#ifndef HCS_SRC_WIRE_VALUE_H_
#define HCS_SRC_WIRE_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/wire/xdr.h"

namespace hcs {

class WireValue;

// A record is an ordered list of named fields (order is part of the wire
// format; lookup by name is provided for convenience).
using WireField = std::pair<std::string, WireValue>;

class WireValue {
 public:
  enum class Kind : uint32_t {
    kNull = 0,
    kUint32 = 1,
    kUint64 = 2,
    kString = 3,
    kBlob = 4,
    kList = 5,
    kRecord = 6,
  };

  // Constructors for each kind.
  WireValue() : kind_(Kind::kNull) {}
  static WireValue Null() { return WireValue(); }
  static WireValue OfUint32(uint32_t v);
  static WireValue OfUint64(uint64_t v);
  static WireValue OfString(std::string v);
  static WireValue OfBlob(Bytes v);
  static WireValue OfList(std::vector<WireValue> items);
  static WireValue OfRecord(std::vector<WireField> fields);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  // Typed accessors; return kProtocolError when the kind does not match, so
  // demarshalling code can propagate malformed data cleanly.
  HCS_NODISCARD Result<uint32_t> AsUint32() const;
  HCS_NODISCARD Result<uint64_t> AsUint64() const;
  HCS_NODISCARD Result<std::string> AsString() const;
  HCS_NODISCARD Result<Bytes> AsBlob() const;
  HCS_NODISCARD Result<std::vector<WireValue>> AsList() const;
  HCS_NODISCARD Result<std::vector<WireField>> AsRecord() const;

  // Record field lookup by name (first match). kNotFound when absent,
  // kProtocolError when this value is not a record.
  HCS_NODISCARD Result<WireValue> Field(std::string_view name) const;
  // The same lookup without copying the field: null when this value is not
  // a record or has no such field. The pointer lives as long as this value.
  const WireValue* FindField(std::string_view name) const;
  // Convenience: string/uint32 field access in one step, read in place.
  HCS_NODISCARD Result<std::string> StringField(std::string_view name) const;
  HCS_NODISCARD Result<uint32_t> Uint32Field(std::string_view name) const;
  // StringField without the copy: a view of the field's text, valid as long
  // as this value. Same errors as StringField.
  HCS_NODISCARD Result<std::string_view> StringFieldView(std::string_view name) const;

  // Number of leaf values — the "resource record count" analogue used by
  // the marshalling cost model.
  size_t LeafCount() const;

  // Wire form (XDR with type tags). EncodedSize is the byte count EncodeTo
  // appends, computed without encoding.
  size_t EncodedSize() const;
  void EncodeTo(XdrEncoder* enc) const;
  Bytes Encode() const;
  // Decodes into `*out`, which must be null (default-constructed). Each
  // list item and record field is decoded where it will live, so a record
  // costs no per-field temporaries. On error `*out` is partly filled.
  HCS_NODISCARD static Status DecodeFrom(XdrDecoder* dec, WireValue* out, int depth = 0);
  HCS_NODISCARD static Result<WireValue> DecodeFrom(XdrDecoder* dec, int depth = 0);
  HCS_NODISCARD static Result<WireValue> Decode(BytesView data);

  // Debug rendering, e.g. {host: "fiji", port: 2049}.
  std::string ToString() const;

  friend bool operator==(const WireValue& a, const WireValue& b);
  friend bool operator!=(const WireValue& a, const WireValue& b) { return !(a == b); }

 private:
  Kind kind_;
  uint32_t u32_ = 0;
  uint64_t u64_ = 0;
  std::string str_;
  Bytes blob_;
  std::vector<WireValue> list_;
  std::vector<WireField> fields_;
};

// Builder for record values:
//   WireValue v = RecordBuilder().Str("host", h).U32("port", p).Build();
class RecordBuilder {
 public:
  RecordBuilder& Str(std::string name, std::string value);
  RecordBuilder& U32(std::string name, uint32_t value);
  RecordBuilder& U64(std::string name, uint64_t value);
  RecordBuilder& Blob(std::string name, Bytes value);
  RecordBuilder& Value(std::string name, WireValue value);
  WireValue Build();

 private:
  std::vector<WireField> fields_;
};

}  // namespace hcs

#endif  // HCS_SRC_WIRE_VALUE_H_
