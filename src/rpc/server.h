// RpcServer: the server-side runtime. An insular server speaks exactly one
// control protocol; procedures are registered per (program, procedure) and
// receive raw argument bytes (the stub layer above decodes them with the
// server's native data representation).

#ifndef HCS_SRC_RPC_SERVER_H_
#define HCS_SRC_RPC_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/rpc/control.h"
#include "src/sim/world.h"

namespace hcs {

class RpcServer : public SimService {
 public:
  // A procedure body: argument bytes in, result bytes out. CPU costs are
  // charged by the body itself (simulated servers) or not at all (real
  // transports). The argument bytes are a view into the arrival buffer,
  // valid only until the handler returns: a handler decodes from the view,
  // and one that keeps the bytes copies them with ToBytes().
  using Handler = std::function<Result<Bytes>(BytesView args)>;

  // `name` appears in diagnostics only.
  RpcServer(ControlKind control, std::string name)
      : control_(GetControlProtocol(control)), name_(std::move(name)) {}

  // Registers the body for (program, procedure). Replaces any previous
  // registration.
  void RegisterProcedure(uint32_t program, uint32_t procedure, Handler handler) {
    handlers_[Key(program, procedure)] = std::move(handler);
  }

  // SimService: decodes the call with this server's control protocol,
  // dispatches, and encodes the reply. Application-level failures (including
  // "no such procedure") are carried inside a well-formed reply; only a
  // garbled request surfaces as a transport-level error. HandleFrame is the
  // zero-copy path (call header and args decoded as views into `data`);
  // HandleMessage delegates to it.
  HCS_NODISCARD Result<Bytes> HandleMessage(const Bytes& request) override;
  HCS_NODISCARD Result<Bytes> HandleFrame(const uint8_t* data, size_t size) override;

  const std::string& name() const { return name_; }
  ControlKind control_kind() const { return control_.kind(); }

 private:
  static uint64_t Key(uint32_t program, uint32_t procedure) {
    return (static_cast<uint64_t>(program) << 32) | procedure;
  }

  const ControlProtocol& control_;
  std::string name_;
  std::map<uint64_t, Handler> handlers_;
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_SERVER_H_
