#include "src/wire/value.h"

#include "src/common/strings.h"

namespace hcs {

namespace {
// Recursion guard for decoding adversarial inputs.
constexpr int kMaxDepth = 32;
constexpr uint32_t kMaxContainerSize = 1 << 16;
}  // namespace

WireValue WireValue::OfUint32(uint32_t v) {
  WireValue out;
  out.kind_ = Kind::kUint32;
  out.u32_ = v;
  return out;
}

WireValue WireValue::OfUint64(uint64_t v) {
  WireValue out;
  out.kind_ = Kind::kUint64;
  out.u64_ = v;
  return out;
}

WireValue WireValue::OfString(std::string v) {
  WireValue out;
  out.kind_ = Kind::kString;
  out.str_ = std::move(v);
  return out;
}

WireValue WireValue::OfBlob(Bytes v) {
  WireValue out;
  out.kind_ = Kind::kBlob;
  out.blob_ = std::move(v);
  return out;
}

WireValue WireValue::OfList(std::vector<WireValue> items) {
  WireValue out;
  out.kind_ = Kind::kList;
  out.list_ = std::move(items);
  return out;
}

WireValue WireValue::OfRecord(std::vector<WireField> fields) {
  WireValue out;
  out.kind_ = Kind::kRecord;
  out.fields_ = std::move(fields);
  return out;
}

Result<uint32_t> WireValue::AsUint32() const {
  if (kind_ != Kind::kUint32) {
    return ProtocolError("wire value is not a uint32");
  }
  return u32_;
}

Result<uint64_t> WireValue::AsUint64() const {
  if (kind_ != Kind::kUint64) {
    return ProtocolError("wire value is not a uint64");
  }
  return u64_;
}

Result<std::string> WireValue::AsString() const {
  if (kind_ != Kind::kString) {
    return ProtocolError("wire value is not a string");
  }
  return str_;
}

Result<Bytes> WireValue::AsBlob() const {
  if (kind_ != Kind::kBlob) {
    return ProtocolError("wire value is not a blob");
  }
  return blob_;
}

Result<std::vector<WireValue>> WireValue::AsList() const {
  if (kind_ != Kind::kList) {
    return ProtocolError("wire value is not a list");
  }
  return list_;
}

Result<std::vector<WireField>> WireValue::AsRecord() const {
  if (kind_ != Kind::kRecord) {
    return ProtocolError("wire value is not a record");
  }
  return fields_;
}

const WireValue* WireValue::FindField(const std::string& name) const {
  if (kind_ != Kind::kRecord) {
    return nullptr;
  }
  for (const auto& [field_name, value] : fields_) {
    if (field_name == name) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

// Field()'s errors for a failed FindField.
Status MissingField(const WireValue& record, const std::string& name) {
  if (record.kind() != WireValue::Kind::kRecord) {
    return ProtocolError("wire value is not a record");
  }
  return NotFoundError("record has no field: " + name);
}

}  // namespace

Result<WireValue> WireValue::Field(const std::string& name) const {
  const WireValue* field = FindField(name);
  if (field == nullptr) {
    return MissingField(*this, name);
  }
  return *field;
}

Result<std::string> WireValue::StringField(const std::string& name) const {
  const WireValue* field = FindField(name);
  if (field == nullptr) {
    return MissingField(*this, name);
  }
  return field->AsString();
}

Result<uint32_t> WireValue::Uint32Field(const std::string& name) const {
  const WireValue* field = FindField(name);
  if (field == nullptr) {
    return MissingField(*this, name);
  }
  return field->AsUint32();
}

size_t WireValue::LeafCount() const {
  switch (kind_) {
    case Kind::kNull:
    case Kind::kUint32:
    case Kind::kUint64:
    case Kind::kString:
    case Kind::kBlob:
      return 1;
    case Kind::kList: {
      size_t n = 0;
      for (const auto& v : list_) {
        n += v.LeafCount();
      }
      return n;
    }
    case Kind::kRecord: {
      size_t n = 0;
      for (const auto& [name, v] : fields_) {
        n += v.LeafCount();
      }
      return n;
    }
  }
  return 0;
}

size_t WireValue::EncodedSize() const {
  size_t n = 4;  // the kind tag
  switch (kind_) {
    case Kind::kNull:
      break;
    case Kind::kUint32:
      n += 4;
      break;
    case Kind::kUint64:
      n += 8;
      break;
    case Kind::kString:
      n += XdrEncoder::OpaqueSize(str_.size());
      break;
    case Kind::kBlob:
      n += XdrEncoder::OpaqueSize(blob_.size());
      break;
    case Kind::kList:
      n += 4;
      for (const auto& v : list_) {
        n += v.EncodedSize();
      }
      break;
    case Kind::kRecord:
      n += 4;
      for (const auto& [name, v] : fields_) {
        n += XdrEncoder::OpaqueSize(name.size()) + v.EncodedSize();
      }
      break;
  }
  return n;
}

void WireValue::EncodeTo(XdrEncoder* enc) const {
  enc->PutUint32(static_cast<uint32_t>(kind_));
  switch (kind_) {
    case Kind::kNull:
      break;
    case Kind::kUint32:
      enc->PutUint32(u32_);
      break;
    case Kind::kUint64:
      enc->PutUint64(u64_);
      break;
    case Kind::kString:
      enc->PutString(str_);
      break;
    case Kind::kBlob:
      enc->PutOpaque(blob_);
      break;
    case Kind::kList:
      enc->PutUint32(static_cast<uint32_t>(list_.size()));
      for (const auto& v : list_) {
        v.EncodeTo(enc);
      }
      break;
    case Kind::kRecord:
      enc->PutUint32(static_cast<uint32_t>(fields_.size()));
      for (const auto& [name, v] : fields_) {
        enc->PutString(name);
        v.EncodeTo(enc);
      }
      break;
  }
}

Bytes WireValue::Encode() const {
  XdrEncoder enc;
  enc.Reserve(EncodedSize());
  EncodeTo(&enc);
  return enc.Take();
}

Status WireValue::DecodeFrom(XdrDecoder* dec, WireValue* out, int depth) {
  if (depth > kMaxDepth) {
    return ProtocolError("wire value nesting too deep");
  }
  HCS_ASSIGN_OR_RETURN(uint32_t tag, dec->GetUint32());
  switch (static_cast<Kind>(tag)) {
    case Kind::kNull:
      return Status::Ok();
    case Kind::kUint32: {
      out->kind_ = Kind::kUint32;
      HCS_ASSIGN_OR_RETURN(out->u32_, dec->GetUint32());
      return Status::Ok();
    }
    case Kind::kUint64: {
      out->kind_ = Kind::kUint64;
      HCS_ASSIGN_OR_RETURN(out->u64_, dec->GetUint64());
      return Status::Ok();
    }
    case Kind::kString: {
      out->kind_ = Kind::kString;
      HCS_ASSIGN_OR_RETURN(out->str_, dec->GetString());
      return Status::Ok();
    }
    case Kind::kBlob: {
      out->kind_ = Kind::kBlob;
      HCS_ASSIGN_OR_RETURN(out->blob_, dec->GetOpaque());
      return Status::Ok();
    }
    case Kind::kList: {
      HCS_ASSIGN_OR_RETURN(uint32_t n, dec->GetUint32());
      if (n > kMaxContainerSize) {
        return ProtocolError("wire list too large");
      }
      out->kind_ = Kind::kList;
      out->list_.reserve(n);  // no reallocation below: back() stays put
      for (uint32_t i = 0; i < n; ++i) {
        HCS_RETURN_IF_ERROR(DecodeFrom(dec, &out->list_.emplace_back(), depth + 1));
      }
      return Status::Ok();
    }
    case Kind::kRecord: {
      HCS_ASSIGN_OR_RETURN(uint32_t n, dec->GetUint32());
      if (n > kMaxContainerSize) {
        return ProtocolError("wire record too large");
      }
      out->kind_ = Kind::kRecord;
      out->fields_.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        WireField& field = out->fields_.emplace_back();
        HCS_ASSIGN_OR_RETURN(field.first, dec->GetString());
        HCS_RETURN_IF_ERROR(DecodeFrom(dec, &field.second, depth + 1));
      }
      return Status::Ok();
    }
  }
  return ProtocolError(StrFormat("unknown wire value tag: %u", tag));
}

Result<WireValue> WireValue::DecodeFrom(XdrDecoder* dec, int depth) {
  WireValue out;
  HCS_RETURN_IF_ERROR(DecodeFrom(dec, &out, depth));
  return out;
}

Result<WireValue> WireValue::Decode(BytesView data) {
  XdrDecoder dec(data);
  WireValue v;
  HCS_RETURN_IF_ERROR(DecodeFrom(&dec, &v));
  if (!dec.AtEnd()) {
    return ProtocolError("trailing bytes after wire value");
  }
  return v;
}

std::string WireValue::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kUint32:
      return std::to_string(u32_);
    case Kind::kUint64:
      return std::to_string(u64_);
    case Kind::kString:
      return "\"" + str_ + "\"";
    case Kind::kBlob:
      return StrFormat("<%zu bytes>", blob_.size());
    case Kind::kList: {
      std::string out = "[";
      for (size_t i = 0; i < list_.size(); ++i) {
        if (i != 0) {
          out += ", ";
        }
        out += list_[i].ToString();
      }
      return out + "]";
    }
    case Kind::kRecord: {
      std::string out = "{";
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (i != 0) {
          out += ", ";
        }
        out += fields_[i].first + ": " + fields_[i].second.ToString();
      }
      return out + "}";
    }
  }
  return "?";
}

bool operator==(const WireValue& a, const WireValue& b) {
  if (a.kind_ != b.kind_) {
    return false;
  }
  switch (a.kind_) {
    case WireValue::Kind::kNull:
      return true;
    case WireValue::Kind::kUint32:
      return a.u32_ == b.u32_;
    case WireValue::Kind::kUint64:
      return a.u64_ == b.u64_;
    case WireValue::Kind::kString:
      return a.str_ == b.str_;
    case WireValue::Kind::kBlob:
      return a.blob_ == b.blob_;
    case WireValue::Kind::kList:
      return a.list_ == b.list_;
    case WireValue::Kind::kRecord:
      return a.fields_ == b.fields_;
  }
  return false;
}

RecordBuilder& RecordBuilder::Str(std::string name, std::string value) {
  fields_.emplace_back(std::move(name), WireValue::OfString(std::move(value)));
  return *this;
}

RecordBuilder& RecordBuilder::U32(std::string name, uint32_t value) {
  fields_.emplace_back(std::move(name), WireValue::OfUint32(value));
  return *this;
}

RecordBuilder& RecordBuilder::U64(std::string name, uint64_t value) {
  fields_.emplace_back(std::move(name), WireValue::OfUint64(value));
  return *this;
}

RecordBuilder& RecordBuilder::Blob(std::string name, Bytes value) {
  fields_.emplace_back(std::move(name), WireValue::OfBlob(std::move(value)));
  return *this;
}

RecordBuilder& RecordBuilder::Value(std::string name, WireValue value) {
  fields_.emplace_back(std::move(name), std::move(value));
  return *this;
}

WireValue RecordBuilder::Build() { return WireValue::OfRecord(std::move(fields_)); }

}  // namespace hcs
