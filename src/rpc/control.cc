#include "src/rpc/control.h"

#include "src/common/strings.h"
#include "src/wire/courier.h"
#include "src/wire/xdr.h"

namespace hcs {

namespace {

// Rebases a decoded wire context onto this process's clock, anchored at the
// message's arrival timestamp when the serving runtime recorded one (queue
// time then counts against the budget), else at "now".
RequestContext RebasedContext(const RequestContextWire& wire) {
  int64_t base = CurrentReceiveTimestampMs();
  if (base == 0) {
    base = SteadyNowMs();
  }
  return wire.ToContext(base);
}

// ---------------------------------------------------------------------------
// Sun RPC (RFC 1057-style framing, AUTH_NULL credentials).
// ---------------------------------------------------------------------------

constexpr uint32_t kSunRpcVersion = 2;
constexpr uint32_t kMsgTypeCall = 0;
constexpr uint32_t kMsgTypeReply = 1;
constexpr uint32_t kReplyAccepted = 0;
constexpr uint32_t kAcceptSuccess = 0;
// Credentials flavor carrying the HCS RequestContext as its opaque body
// ("HCSX"). Servers that don't know the flavor skip it, per RFC 1057's
// flavor+opaque credential structure; no-context calls stay AUTH_NULL.
constexpr uint32_t kContextAuthFlavor = 0x48435358;

class SunRpcControl : public ControlProtocol {
 public:
  ControlKind kind() const override { return ControlKind::kSunRpc; }

  void EncodeCallTo(const RpcCallView& call, Bytes* out) const override {
    XdrEncoder enc(out);
    const size_t credential_body = call.context.empty() ? 0 : RequestContextWire::kEncodedSize;
    enc.Reserve(6 * 4 + 8 + credential_body + 8 + XdrEncoder::OpaqueSize(call.args.size()));
    enc.PutUint32(call.xid);
    enc.PutUint32(kMsgTypeCall);
    enc.PutUint32(kSunRpcVersion);
    enc.PutUint32(call.program);
    enc.PutUint32(call.version);
    enc.PutUint32(call.procedure);
    // Credentials: AUTH_NULL, unless a request context rides along — then
    // the context travels as the credential body under its own flavor,
    // written in place (its encoding is whole words, so no padding).
    if (call.context.empty()) {
      enc.PutUint32(0);
      enc.PutUint32(0);
    } else {
      enc.PutUint32(kContextAuthFlavor);
      enc.PutUint32(static_cast<uint32_t>(credential_body));
      RequestContextWire::FromContext(call.context).EncodeTo(enc);
    }
    // Verifier (AUTH_NULL).
    enc.PutUint32(0);
    enc.PutUint32(0);
    enc.PutOpaque(call.args);
  }

  Result<RpcCallView> DecodeCallView(const uint8_t* data, size_t size) const override {
    XdrDecoder dec(data, size);
    RpcCallView call;
    HCS_ASSIGN_OR_RETURN(call.xid, dec.GetUint32());
    HCS_ASSIGN_OR_RETURN(uint32_t mtype, dec.GetUint32());
    if (mtype != kMsgTypeCall) {
      return ProtocolError(StrFormat("SunRPC: expected CALL, got msg type %u", mtype));
    }
    HCS_ASSIGN_OR_RETURN(uint32_t rpcvers, dec.GetUint32());
    if (rpcvers != kSunRpcVersion) {
      return ProtocolError(StrFormat("SunRPC: unsupported RPC version %u", rpcvers));
    }
    HCS_ASSIGN_OR_RETURN(call.program, dec.GetUint32());
    HCS_ASSIGN_OR_RETURN(call.version, dec.GetUint32());
    HCS_ASSIGN_OR_RETURN(call.procedure, dec.GetUint32());
    // Credentials: flavor + opaque body. The HCS context flavor carries the
    // request budget; any other flavor (AUTH_NULL included) is skipped.
    HCS_ASSIGN_OR_RETURN(uint32_t cred_flavor, dec.GetUint32());
    HCS_ASSIGN_OR_RETURN(BytesView cred_body, dec.GetOpaqueView());
    if (cred_flavor == kContextAuthFlavor) {
      XdrDecoder context_dec(cred_body);
      HCS_ASSIGN_OR_RETURN(RequestContextWire wire, RequestContextWire::DecodeFrom(context_dec));
      if (!context_dec.AtEnd()) {
        return ProtocolError("SunRPC: trailing bytes after context credential");
      }
      call.context = RebasedContext(wire);
    }
    // Verifier: flavor + opaque body, AUTH_NULL here but parsed generally.
    HCS_ASSIGN_OR_RETURN(uint32_t verf_flavor, dec.GetUint32());
    (void)verf_flavor;
    HCS_ASSIGN_OR_RETURN(BytesView verf_body, dec.GetOpaqueView());
    (void)verf_body;
    HCS_ASSIGN_OR_RETURN(call.args, dec.GetOpaqueView());
    if (!dec.AtEnd()) {
      return ProtocolError("SunRPC: trailing bytes after call body");
    }
    return call;
  }

  void EncodeReplyTo(const RpcReplyMsg& reply, Bytes* out) const override {
    XdrEncoder enc(out);
    enc.Reserve(7 * 4 + XdrEncoder::OpaqueSize(reply.error_message.size()) +
                XdrEncoder::OpaqueSize(reply.results.size()));
    enc.PutUint32(reply.xid);
    enc.PutUint32(kMsgTypeReply);
    enc.PutUint32(kReplyAccepted);
    // Verifier (AUTH_NULL).
    enc.PutUint32(0);
    enc.PutUint32(0);
    enc.PutUint32(kAcceptSuccess);
    // HCS application status header inside the accepted body.
    enc.PutUint32(static_cast<uint32_t>(reply.app_status));
    enc.PutString(reply.error_message);
    enc.PutOpaque(reply.results);
  }

  std::optional<uint32_t> PeekReplyXid(const uint8_t* data, size_t size) const override {
    XdrDecoder dec(data, size);
    Result<uint32_t> xid = dec.GetUint32();
    Result<uint32_t> mtype = dec.GetUint32();
    if (!xid.ok() || !mtype.ok() || *mtype != kMsgTypeReply) {
      return std::nullopt;
    }
    return *xid;
  }

  Result<RpcReplyView> DecodeReplyView(const uint8_t* data, size_t size) const override {
    XdrDecoder dec(data, size);
    RpcReplyView reply;
    HCS_ASSIGN_OR_RETURN(reply.xid, dec.GetUint32());
    HCS_ASSIGN_OR_RETURN(uint32_t mtype, dec.GetUint32());
    if (mtype != kMsgTypeReply) {
      return ProtocolError(StrFormat("SunRPC: expected REPLY, got msg type %u", mtype));
    }
    HCS_ASSIGN_OR_RETURN(uint32_t reply_stat, dec.GetUint32());
    if (reply_stat != kReplyAccepted) {
      return ProtocolError("SunRPC: call rejected by server");
    }
    HCS_ASSIGN_OR_RETURN(uint32_t verf_flavor, dec.GetUint32());
    (void)verf_flavor;
    HCS_ASSIGN_OR_RETURN(BytesView verf_body, dec.GetOpaqueView());
    (void)verf_body;
    HCS_ASSIGN_OR_RETURN(uint32_t accept_stat, dec.GetUint32());
    if (accept_stat != kAcceptSuccess) {
      return ProtocolError(StrFormat("SunRPC: accept status %u", accept_stat));
    }
    HCS_ASSIGN_OR_RETURN(uint32_t app_status, dec.GetUint32());
    reply.app_status = static_cast<StatusCode>(app_status);
    HCS_ASSIGN_OR_RETURN(reply.error_message, dec.GetString());
    HCS_ASSIGN_OR_RETURN(reply.results, dec.GetOpaqueView());
    if (!dec.AtEnd()) {
      return ProtocolError("SunRPC: trailing bytes after reply body");
    }
    return reply;
  }
};

// ---------------------------------------------------------------------------
// Courier (XNS): CALL(0) / RETURN(2) / ABORT(3) messages over 16-bit words.
// ---------------------------------------------------------------------------

constexpr uint16_t kCourierCall = 0;
constexpr uint16_t kCourierReturn = 2;
constexpr uint16_t kCourierAbort = 3;
// Extension: a CALL whose header carries a RequestContext (emitted only when
// a context is set; plain CALL stays the seed encoding).
constexpr uint16_t kCourierCallWithContext = 4;

// The context fields in Courier's 16-bit-word vocabulary: two LongCardinals
// per 64-bit field, one Cardinal for the attempt counter.
constexpr size_t kCourierContextSize = 4 * 4 + 2;
void EncodeContext(CourierEncoder& enc, const RequestContextWire& wire) {
  enc.PutLongCardinal(static_cast<uint32_t>(wire.budget_ms >> 32));
  enc.PutLongCardinal(static_cast<uint32_t>(wire.budget_ms & 0xffffffffu));
  enc.PutCardinal(static_cast<uint16_t>(wire.attempt));
  enc.PutLongCardinal(static_cast<uint32_t>(wire.trace_id >> 32));
  enc.PutLongCardinal(static_cast<uint32_t>(wire.trace_id & 0xffffffffu));
}

Result<RequestContextWire> DecodeContext(CourierDecoder& dec) {
  RequestContextWire wire;
  HCS_ASSIGN_OR_RETURN(uint32_t budget_hi, dec.GetLongCardinal());
  HCS_ASSIGN_OR_RETURN(uint32_t budget_lo, dec.GetLongCardinal());
  wire.budget_ms = (static_cast<uint64_t>(budget_hi) << 32) | budget_lo;
  HCS_ASSIGN_OR_RETURN(uint16_t attempt, dec.GetCardinal());
  wire.attempt = attempt;
  HCS_ASSIGN_OR_RETURN(uint32_t trace_hi, dec.GetLongCardinal());
  HCS_ASSIGN_OR_RETURN(uint32_t trace_lo, dec.GetLongCardinal());
  wire.trace_id = (static_cast<uint64_t>(trace_hi) << 32) | trace_lo;
  return wire;
}

class CourierControl : public ControlProtocol {
 public:
  ControlKind kind() const override { return ControlKind::kCourier; }

  void EncodeCallTo(const RpcCallView& call, Bytes* out) const override {
    CourierEncoder enc(out);
    enc.Reserve(2 + (call.context.empty() ? 0 : kCourierContextSize) + 10 +
                CourierEncoder::SequenceSize(call.args.size()));
    if (call.context.empty()) {
      enc.PutCardinal(kCourierCall);
    } else {
      enc.PutCardinal(kCourierCallWithContext);
      EncodeContext(enc, RequestContextWire::FromContext(call.context));
    }
    enc.PutCardinal(static_cast<uint16_t>(call.xid));  // transaction id
    enc.PutLongCardinal(call.program);
    enc.PutCardinal(static_cast<uint16_t>(call.version));
    enc.PutCardinal(static_cast<uint16_t>(call.procedure));
    enc.PutSequence(call.args);
  }

  Result<RpcCallView> DecodeCallView(const uint8_t* data, size_t size) const override {
    CourierDecoder dec(data, size);
    HCS_ASSIGN_OR_RETURN(uint16_t mtype, dec.GetCardinal());
    if (mtype != kCourierCall && mtype != kCourierCallWithContext) {
      return ProtocolError(StrFormat("Courier: expected CALL, got message type %u", mtype));
    }
    RpcCallView call;
    if (mtype == kCourierCallWithContext) {
      HCS_ASSIGN_OR_RETURN(RequestContextWire wire, DecodeContext(dec));
      call.context = RebasedContext(wire);
    }
    HCS_ASSIGN_OR_RETURN(uint16_t tid, dec.GetCardinal());
    call.xid = tid;
    HCS_ASSIGN_OR_RETURN(call.program, dec.GetLongCardinal());
    HCS_ASSIGN_OR_RETURN(uint16_t version, dec.GetCardinal());
    call.version = version;
    HCS_ASSIGN_OR_RETURN(uint16_t proc, dec.GetCardinal());
    call.procedure = proc;
    HCS_ASSIGN_OR_RETURN(call.args, dec.GetSequenceView());
    return call;
  }

  void EncodeReplyTo(const RpcReplyMsg& reply, Bytes* out) const override {
    CourierEncoder enc(out);
    enc.Reserve(reply.app_status == StatusCode::kOk
                    ? 4 + CourierEncoder::SequenceSize(reply.results.size())
                    : 6 + CourierEncoder::SequenceSize(reply.error_message.size()));
    if (reply.app_status == StatusCode::kOk) {
      enc.PutCardinal(kCourierReturn);
      enc.PutCardinal(static_cast<uint16_t>(reply.xid));
      enc.PutSequence(reply.results);
    } else {
      enc.PutCardinal(kCourierAbort);
      enc.PutCardinal(static_cast<uint16_t>(reply.xid));
      enc.PutCardinal(static_cast<uint16_t>(reply.app_status));
      enc.PutString(reply.error_message);
    }
  }

  std::optional<uint32_t> PeekReplyXid(const uint8_t* data, size_t size) const override {
    CourierDecoder dec(data, size);
    Result<uint16_t> mtype = dec.GetCardinal();
    Result<uint16_t> tid = dec.GetCardinal();
    if (!mtype.ok() || !tid.ok() || (*mtype != kCourierReturn && *mtype != kCourierAbort)) {
      return std::nullopt;
    }
    return *tid;
  }

  Result<RpcReplyView> DecodeReplyView(const uint8_t* data, size_t size) const override {
    CourierDecoder dec(data, size);
    HCS_ASSIGN_OR_RETURN(uint16_t mtype, dec.GetCardinal());
    RpcReplyView reply;
    HCS_ASSIGN_OR_RETURN(uint16_t tid, dec.GetCardinal());
    reply.xid = tid;
    if (mtype == kCourierReturn) {
      HCS_ASSIGN_OR_RETURN(reply.results, dec.GetSequenceView());
      return reply;
    }
    if (mtype == kCourierAbort) {
      HCS_ASSIGN_OR_RETURN(uint16_t code, dec.GetCardinal());
      reply.app_status = static_cast<StatusCode>(code);
      HCS_ASSIGN_OR_RETURN(reply.error_message, dec.GetString());
      return reply;
    }
    return ProtocolError(StrFormat("Courier: unexpected message type %u", mtype));
  }
};

// ---------------------------------------------------------------------------
// Raw HRPC: magic, xid, program, procedure, args — the minimal
// request/response framing for plain message-passing programs.
// ---------------------------------------------------------------------------

constexpr uint32_t kRawMagic = 0x48525043;     // "HRPC"
constexpr uint32_t kRawMagicContext = 0x48525058;  // "HRPX": call carrying a RequestContext

class RawControl : public ControlProtocol {
 public:
  ControlKind kind() const override { return ControlKind::kRaw; }

  void EncodeCallTo(const RpcCallView& call, Bytes* out) const override {
    XdrEncoder enc(out);
    enc.Reserve(4 + (call.context.empty() ? 0 : RequestContextWire::kEncodedSize) + 3 * 4 +
                XdrEncoder::OpaqueSize(call.args.size()));
    if (call.context.empty()) {
      enc.PutUint32(kRawMagic);
    } else {
      enc.PutUint32(kRawMagicContext);
      RequestContextWire::FromContext(call.context).EncodeTo(enc);
    }
    enc.PutUint32(call.xid);
    enc.PutUint32(call.program);
    enc.PutUint32(call.procedure);
    enc.PutOpaque(call.args);
  }

  Result<RpcCallView> DecodeCallView(const uint8_t* data, size_t size) const override {
    XdrDecoder dec(data, size);
    HCS_ASSIGN_OR_RETURN(uint32_t magic, dec.GetUint32());
    if (magic != kRawMagic && magic != kRawMagicContext) {
      return ProtocolError("RawHRPC: bad magic");
    }
    RpcCallView call;
    call.version = 1;
    if (magic == kRawMagicContext) {
      HCS_ASSIGN_OR_RETURN(RequestContextWire wire, RequestContextWire::DecodeFrom(dec));
      call.context = RebasedContext(wire);
    }
    HCS_ASSIGN_OR_RETURN(call.xid, dec.GetUint32());
    HCS_ASSIGN_OR_RETURN(call.program, dec.GetUint32());
    HCS_ASSIGN_OR_RETURN(call.procedure, dec.GetUint32());
    HCS_ASSIGN_OR_RETURN(call.args, dec.GetOpaqueView());
    if (!dec.AtEnd()) {
      return ProtocolError("RawHRPC: trailing bytes after call body");
    }
    return call;
  }

  void EncodeReplyTo(const RpcReplyMsg& reply, Bytes* out) const override {
    XdrEncoder enc(out);
    enc.Reserve(3 * 4 + XdrEncoder::OpaqueSize(reply.error_message.size()) +
                XdrEncoder::OpaqueSize(reply.results.size()));
    enc.PutUint32(kRawMagic);
    enc.PutUint32(reply.xid);
    enc.PutUint32(static_cast<uint32_t>(reply.app_status));
    enc.PutString(reply.error_message);
    enc.PutOpaque(reply.results);
  }

  std::optional<uint32_t> PeekReplyXid(const uint8_t* data, size_t size) const override {
    XdrDecoder dec(data, size);
    Result<uint32_t> magic = dec.GetUint32();
    Result<uint32_t> xid = dec.GetUint32();
    if (!magic.ok() || !xid.ok() || *magic != kRawMagic) {
      return std::nullopt;
    }
    return *xid;
  }

  Result<RpcReplyView> DecodeReplyView(const uint8_t* data, size_t size) const override {
    XdrDecoder dec(data, size);
    HCS_ASSIGN_OR_RETURN(uint32_t magic, dec.GetUint32());
    if (magic != kRawMagic) {
      return ProtocolError("RawHRPC: bad magic");
    }
    RpcReplyView reply;
    HCS_ASSIGN_OR_RETURN(reply.xid, dec.GetUint32());
    HCS_ASSIGN_OR_RETURN(uint32_t status, dec.GetUint32());
    reply.app_status = static_cast<StatusCode>(status);
    HCS_ASSIGN_OR_RETURN(reply.error_message, dec.GetString());
    HCS_ASSIGN_OR_RETURN(reply.results, dec.GetOpaqueView());
    if (!dec.AtEnd()) {
      return ProtocolError("RawHRPC: trailing bytes after reply body");
    }
    return reply;
  }
};

}  // namespace

RpcCallView RpcCallView::Of(const RpcCall& call) {
  RpcCallView view;
  view.xid = call.xid;
  view.program = call.program;
  view.version = call.version;
  view.procedure = call.procedure;
  view.context = call.context;
  view.args = BytesView(call.args);
  return view;
}

Result<RpcCall> ControlProtocol::DecodeCall(BytesView message) const {
  HCS_ASSIGN_OR_RETURN(RpcCallView view, DecodeCallView(message.data(), message.size()));
  RpcCall call;
  call.xid = view.xid;
  call.program = view.program;
  call.version = view.version;
  call.procedure = view.procedure;
  call.context = view.context;
  call.args = view.args.ToBytes();
  return call;
}

Result<RpcReplyMsg> ControlProtocol::DecodeReply(BytesView message) const {
  HCS_ASSIGN_OR_RETURN(RpcReplyView view, DecodeReplyView(message.data(), message.size()));
  RpcReplyMsg reply;
  reply.xid = view.xid;
  reply.app_status = view.app_status;
  reply.error_message = std::move(view.error_message);
  reply.results = view.results.ToBytes();
  return reply;
}

const ControlProtocol& GetControlProtocol(ControlKind kind) {
  static const SunRpcControl* sun = new SunRpcControl;
  static const CourierControl* courier = new CourierControl;
  static const RawControl* raw = new RawControl;
  switch (kind) {
    case ControlKind::kSunRpc:
      return *sun;
    case ControlKind::kCourier:
      return *courier;
    case ControlKind::kRaw:
      return *raw;
  }
  return *raw;
}

}  // namespace hcs
