#include "src/rpc/portmapper.h"

#include <memory>

#include "src/common/strings.h"
#include "src/rpc/context.h"
#include "src/rpc/ports.h"
#include "src/wire/xdr.h"

namespace hcs {

PortMapper::PortMapper(World* world, std::string host)
    : world_(world),
      host_(std::move(host)),
      server_(ControlKind::kSunRpc, "portmapper@" + host_) {
  RegisterHandlers();
}

uint64_t PortMapper::Key(uint32_t program, uint32_t version, uint32_t protocol) {
  // Protocol is 6 or 17; pack it into the low byte.
  return (static_cast<uint64_t>(program) << 24) | (static_cast<uint64_t>(version) << 8) |
         (protocol & 0xff);
}

void PortMapper::RegisterHandlers() {
  server_.RegisterProcedure(kPortmapperProgram, kPmapProcNull,
                            [](BytesView) -> Result<Bytes> { return Bytes{}; });

  server_.RegisterProcedure(
      kPortmapperProgram, kPmapProcGetPort, [this](BytesView args) -> Result<Bytes> {
        HCS_RETURN_IF_ERROR(ShedIfBudgetSpent("portmapper"));
        world_->ChargeMs(world_->costs().sun_portmapper_cpu_ms);
        XdrDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(uint32_t program, dec.GetUint32());
        HCS_ASSIGN_OR_RETURN(uint32_t version, dec.GetUint32());
        HCS_ASSIGN_OR_RETURN(uint32_t protocol, dec.GetUint32());
        XdrEncoder enc;
        auto it = mappings_.find(Key(program, version, protocol));
        // Real portmappers answer GETPORT with port 0 when unregistered; we
        // keep that convention so the caller decides how to report it.
        enc.PutUint32(it == mappings_.end() ? 0 : it->second);
        return enc.Take();
      });

  server_.RegisterProcedure(
      kPortmapperProgram, kPmapProcSet, [this](BytesView args) -> Result<Bytes> {
        world_->ChargeMs(world_->costs().sun_portmapper_cpu_ms);
        XdrDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(uint32_t program, dec.GetUint32());
        HCS_ASSIGN_OR_RETURN(uint32_t version, dec.GetUint32());
        HCS_ASSIGN_OR_RETURN(uint32_t protocol, dec.GetUint32());
        HCS_ASSIGN_OR_RETURN(uint32_t port, dec.GetUint32());
        bool fresh = mappings_.count(Key(program, version, protocol)) == 0;
        if (fresh) {
          mappings_[Key(program, version, protocol)] = static_cast<uint16_t>(port);
        }
        XdrEncoder enc;
        enc.PutUint32(fresh ? 1 : 0);
        return enc.Take();
      });

  server_.RegisterProcedure(
      kPortmapperProgram, kPmapProcUnset, [this](BytesView args) -> Result<Bytes> {
        world_->ChargeMs(world_->costs().sun_portmapper_cpu_ms);
        XdrDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(uint32_t program, dec.GetUint32());
        HCS_ASSIGN_OR_RETURN(uint32_t version, dec.GetUint32());
        HCS_ASSIGN_OR_RETURN(uint32_t protocol, dec.GetUint32());
        bool existed = mappings_.erase(Key(program, version, protocol)) > 0;
        XdrEncoder enc;
        enc.PutUint32(existed ? 1 : 0);
        return enc.Take();
      });
}

Result<PortMapper*> PortMapper::InstallOn(World* world, const std::string& host) {
  auto pm = std::unique_ptr<PortMapper>(new PortMapper(world, host));
  PortMapper* raw = world->OwnService(std::move(pm));
  HCS_RETURN_IF_ERROR(world->RegisterService(host, kPortmapperPort, raw->server()));
  return raw;
}

void PortMapper::SetMapping(uint32_t program, uint32_t version, uint32_t protocol,
                            uint16_t port) {
  mappings_[Key(program, version, protocol)] = port;
}

void PortMapper::UnsetMapping(uint32_t program, uint32_t version, uint32_t protocol) {
  mappings_.erase(Key(program, version, protocol));
}

Result<uint16_t> PortMapper::GetPort(RpcClient* client, const std::string& host,
                                     uint32_t program, uint32_t version, uint32_t protocol) {
  HrpcBinding pmap;
  pmap.service_name = "portmapper";
  pmap.host = host;
  pmap.port = kPortmapperPort;
  pmap.program = kPortmapperProgram;
  pmap.version = 2;
  pmap.data_rep = DataRep::kXdr;
  pmap.control = ControlKind::kSunRpc;
  pmap.bind_protocol = BindProtocol::kStatic;

  XdrEncoder enc;
  enc.PutUint32(program);
  enc.PutUint32(version);
  enc.PutUint32(protocol);

  HCS_ASSIGN_OR_RETURN(Bytes reply, client->Call(pmap, kPmapProcGetPort, enc.Take()));
  XdrDecoder dec(reply);
  HCS_ASSIGN_OR_RETURN(uint32_t port, dec.GetUint32());
  if (port == 0) {
    return NotFoundError(StrFormat("program %u not registered with portmapper on %s",
                                   program, host.c_str()));
  }
  return static_cast<uint16_t>(port);
}

}  // namespace hcs
