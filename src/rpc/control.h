// Control protocols: the component of an RPC facility that frames calls and
// replies and tracks call state. Three real wire formats are implemented —
// Sun RPC (RFC 1057-style), Courier (XNS), and the Raw HRPC
// request/response protocol the HCS project used to talk to arbitrary
// message-passing programs ("make a request and wait for a response").
//
// An insular server speaks exactly one of these; the HRPC client selects the
// matching implementation at call time from the binding.

#ifndef HCS_SRC_RPC_CONTROL_H_
#define HCS_SRC_RPC_CONTROL_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/rpc/binding.h"
#include "src/rpc/context.h"

namespace hcs {

// A framed call as seen by the control protocol, owning its argument bytes.
struct RpcCall {
  uint32_t xid = 0;
  uint32_t program = 0;
  uint32_t version = 0;
  uint32_t procedure = 0;
  // Per-request budget, carried in the RPC header. An empty context is
  // wire-invisible: every protocol then emits its seed encoding, byte for
  // byte, so context-free callers (the whole sim-world path) are unchanged.
  RequestContext context;
  Bytes args;
};

// A framed reply. Application-level failures travel as a status code plus
// message so a remote Status round-trips losslessly.
struct RpcReplyMsg {
  uint32_t xid = 0;
  StatusCode app_status = StatusCode::kOk;
  std::string error_message;
  Bytes results;
};

// A call whose argument bytes are a view: what DecodeCallView returns (the
// zero-copy hand-off from transport to dispatch) and what EncodeCallTo
// reads (so a client encodes the caller's argument bytes straight into the
// message, with no copy into an RpcCall first). The view is valid only
// while its buffer lives (on the serve path: until the handler returns;
// DESIGN.md §13).
struct RpcCallView {
  uint32_t xid = 0;
  uint32_t program = 0;
  uint32_t version = 0;
  uint32_t procedure = 0;
  RequestContext context;
  // Call-scoped carrier: built and consumed within one statement sequence —
  // HandleFrame's decode-dispatch, or one encode of a caller's arguments.
  // hcs:owns-view(call-scoped: dies with the frame or the encode that built it)
  BytesView args;

  static RpcCallView Of(const RpcCall& call);
};

// A decoded reply whose result bytes are a view into the message buffer:
// the caller copies them once, into whatever it keeps. Valid only while
// that buffer lives.
struct RpcReplyView {
  uint32_t xid = 0;
  StatusCode app_status = StatusCode::kOk;
  std::string error_message;
  // hcs:owns-view(call-scoped: read and copied before the next exchange on the thread)
  BytesView results;
};

class ControlProtocol {
 public:
  virtual ~ControlProtocol() = default;
  virtual ControlKind kind() const = 0;

  // Encode into `*out` (cleared first, then sized once): the
  // allocation-reusing primitives the hot paths call.
  virtual void EncodeCallTo(const RpcCallView& call, Bytes* out) const = 0;
  virtual void EncodeReplyTo(const RpcReplyMsg& reply, Bytes* out) const = 0;
  // Decode without copying the argument or result bytes; the returned view
  // aliases [data, data + size).
  HCS_NODISCARD virtual Result<RpcCallView> DecodeCallView(const uint8_t* data,
                                                           size_t size) const = 0;
  HCS_NODISCARD virtual Result<RpcReplyView> DecodeReplyView(const uint8_t* data,
                                                             size_t size) const = 0;
  // The transaction id a reply's header carries (Courier's is 16 bits),
  // read without decoding the body; nullopt when the bytes do not start
  // like a reply of this protocol.
  virtual std::optional<uint32_t> PeekReplyXid(const uint8_t* data, size_t size) const = 0;

  // Owning convenience wrappers over the primitives above.
  Bytes EncodeCall(const RpcCall& call) const {
    Bytes out;
    EncodeCallTo(RpcCallView::Of(call), &out);
    return out;
  }
  Bytes EncodeReply(const RpcReplyMsg& reply) const {
    Bytes out;
    EncodeReplyTo(reply, &out);
    return out;
  }
  HCS_NODISCARD Result<RpcCall> DecodeCall(BytesView message) const;
  HCS_NODISCARD Result<RpcReplyMsg> DecodeReply(BytesView message) const;
};

// Returns the process-wide instance for a control protocol kind.
const ControlProtocol& GetControlProtocol(ControlKind kind);

}  // namespace hcs

#endif  // HCS_SRC_RPC_CONTROL_H_
