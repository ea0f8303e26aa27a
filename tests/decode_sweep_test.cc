// Deterministic truncation/corruption sweep over every Encode/Decode pair.
//
// fuzz_test.cc samples the mutation space with a seeded RNG; this sweep is
// exhaustive where exhaustiveness is affordable: each message type is encoded
// from a representative valid value, then re-decoded at *every* truncation
// length and with single-byte corruptions at *every* offset. The contract for
// each attempt:
//
//   * the decoder must return (no crash, no hang, no sanitizer finding —
//     check.sh runs this binary under ASan/UBSan);
//   * a failed decode must be a clean non-OK Status;
//   * a decode that still succeeds (tolerant readings exist: a flipped bit
//     inside a string payload is just a different string) must not be
//     OK-with-garbage: re-encoding the parsed value must reach a fixed point
//     (encode(decode(x)) decodes again and re-encodes to the same bytes).
//
// tools/lint_wire.py cross-checks that every pair it discovers is named in
// this file, so a new message type cannot ship without sweep coverage.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <cstring>

#include "src/bindns/protocol.h"
#include "src/bindns/record.h"
#include "src/ch/name.h"
#include "src/ch/protocol.h"
#include "src/common/arena.h"
#include "src/hns/name.h"
#include "src/hns/wire_protocol.h"
#include "src/rpc/binding.h"
#include "src/rpc/context.h"
#include "src/rpc/control.h"
#include "src/wire/courier.h"
#include "src/wire/value.h"
#include "src/wire/xdr.h"
#include "src/workload/trace.h"

namespace hcs {
namespace {

// Decodes `data` as one message type and, on success, re-encodes the parsed
// value. The sweep never looks inside the value; stability under a second
// decode/encode round is the garbage detector.
using Roundtrip = std::function<Result<Bytes>(const Bytes&)>;

struct SweepTotals {
  size_t types = 0;
  size_t attempts = 0;
  size_t rejected = 0;   // clean non-OK Status
  size_t tolerated = 0;  // decoded OK and re-encoded to a fixed point
};

SweepTotals& Totals() {
  static SweepTotals totals;
  return totals;
}

void CheckAttempt(const std::string& label, const std::string& what,
                  const Bytes& input, const Roundtrip& roundtrip) {
  ++Totals().attempts;
  Result<Bytes> first = roundtrip(input);
  if (!first.ok()) {
    ++Totals().rejected;
    return;  // clean rejection is the expected outcome
  }
  ++Totals().tolerated;
  // Tolerant parse: must be stable, not garbage. One normalization step is
  // allowed (e.g. a corrupted bool byte reads as true and re-encodes as 1);
  // after that the bytes must be a fixed point.
  Result<Bytes> second = roundtrip(*first);
  ASSERT_TRUE(second.ok())
      << label << ": " << what << " decoded OK but its re-encoding ("
      << first->size() << " bytes) does not decode";
  EXPECT_EQ(*first, *second)
      << label << ": " << what
      << " decoded OK but re-encoding is not a fixed point (garbage parse)";
}

void Sweep(const std::string& label, const Bytes& good,
           const Roundtrip& roundtrip) {
  ++Totals().types;
  // The valid encoding itself must round-trip byte-identically.
  Result<Bytes> reencoded = roundtrip(good);
  ASSERT_TRUE(reencoded.ok())
      << label << ": valid encoding does not decode: "
      << reencoded.status().ToString();
  ASSERT_EQ(good, *reencoded)
      << label << ": valid encoding does not re-encode byte-identically";

  // Every truncation length, including the empty frame.
  for (size_t len = 0; len < good.size(); ++len) {
    Bytes truncated(good.begin(), good.begin() + static_cast<long>(len));
    CheckAttempt(label, "truncation to " + std::to_string(len) + " bytes",
                 truncated, roundtrip);
  }

  // Single-byte corruption at every offset: a low bit, the high bit, and a
  // full invert, which between them hit flags, length words, and tags.
  for (size_t i = 0; i < good.size(); ++i) {
    for (uint8_t mask : {0x01, 0x80, 0xFF}) {
      Bytes corrupted = good;
      corrupted[i] = static_cast<uint8_t>(corrupted[i] ^ mask);
      CheckAttempt(label,
                   "corruption at offset " + std::to_string(i) + " mask " +
                       std::to_string(mask),
                   corrupted, roundtrip);
    }
  }
}

// Roundtrip adapter for the common shape: Bytes Encode() const +
// static Result<T> Decode(BytesView).
template <typename T>
Roundtrip ByteCodec() {
  return [](const Bytes& data) -> Result<Bytes> {
    HCS_ASSIGN_OR_RETURN(T value, T::Decode(data));
    return value.Encode();
  };
}

WireValue RepresentativeValue() {
  return WireValue::OfRecord({
      {"host", WireValue::OfString("fiji.cs.washington.edu")},
      {"address", WireValue::OfUint32(0x0a000042)},
      {"aliases", WireValue::OfList({WireValue::OfString("fiji"),
                                     WireValue::OfString("fiji.cs")})},
      {"blob", WireValue::OfBlob(Bytes{1, 2, 3, 4, 5})},
      {"stamp", WireValue::OfUint64(0x1122334455667788ull)},
  });
}

ChCredentials RepresentativeCredentials() {
  ChCredentials credentials;
  credentials.user = "svc:CSL:Xerox";
  credentials.password = "plaintext";
  return credentials;
}

ChName RepresentativeChName() {
  ChName name;
  name.object = "Dorado";
  name.domain = "CSL";
  name.organization = "Xerox";
  return name;
}

ResourceRecord RepresentativeRecord() {
  return ResourceRecord::MakeA("fiji.cs.washington.edu", 0x0a000042);
}

TEST(DecodeSweepTest, WireValue) {
  Sweep("WireValue", RepresentativeValue().Encode(), ByteCodec<WireValue>());
}

TEST(DecodeSweepTest, NsmQueryRequest) {
  NsmQueryRequest request;
  request.name = HnsName::Parse("BIND!fiji.cs.washington.edu").value();
  request.args = RepresentativeValue();
  Sweep("NsmQueryRequest", request.Encode(), ByteCodec<NsmQueryRequest>());
}

TEST(DecodeSweepTest, FindNsmRequest) {
  FindNsmRequest request;
  request.context = "BIND";
  request.query_class = "HostAddress";
  Sweep("FindNsmRequest", request.Encode(), ByteCodec<FindNsmRequest>());
}

TEST(DecodeSweepTest, FindNsmResponse) {
  FindNsmResponse response;
  response.nsm_name = "BindingNSM-BIND";
  response.binding.service_name = "nsm";
  response.binding.host = "yakima.cs.washington.edu";
  response.binding.address = 0x0a000017;
  response.binding.port = 711;
  response.binding.program = 400100;
  Sweep("FindNsmResponse", response.Encode(), ByteCodec<FindNsmResponse>());
}

TEST(DecodeSweepTest, AgentQueryRequest) {
  AgentQueryRequest request;
  request.name = HnsName::Parse("CH!Dorado:CSL:Xerox").value();
  request.query_class = "HostAddress";
  request.args = RepresentativeValue();
  Sweep("AgentQueryRequest", request.Encode(), ByteCodec<AgentQueryRequest>());
}

TEST(DecodeSweepTest, BindQueryRequest) {
  BindQueryRequest request;
  request.name = "fiji.cs.washington.edu";
  request.type = RrType::kA;
  request.recursion_desired = true;
  Sweep("BindQueryRequest", request.Encode(), ByteCodec<BindQueryRequest>());
}

TEST(DecodeSweepTest, BindQueryResponse) {
  BindQueryResponse response;
  response.rcode = Rcode::kNoError;
  response.authoritative = true;
  response.answers = {RepresentativeRecord(),
                      ResourceRecord::MakeA("yakima.cs.washington.edu", 7)};
  Sweep("BindQueryResponse", response.Encode(), ByteCodec<BindQueryResponse>());
}

TEST(DecodeSweepTest, BindUpdateRequest) {
  BindUpdateRequest request;
  request.op = UpdateOp::kAdd;
  request.record = RepresentativeRecord();
  Sweep("BindUpdateRequest", request.Encode(), ByteCodec<BindUpdateRequest>());
}

TEST(DecodeSweepTest, BindUpdateResponse) {
  BindUpdateResponse response;
  response.rcode = Rcode::kRefused;
  Sweep("BindUpdateResponse", response.Encode(), ByteCodec<BindUpdateResponse>());
}

TEST(DecodeSweepTest, BindInvalidateRequest) {
  BindInvalidateRequest request;
  request.name = "fiji.cs.washington.edu";
  Sweep("BindInvalidateRequest", request.Encode(),
        ByteCodec<BindInvalidateRequest>());
}

TEST(DecodeSweepTest, BindAxfrRequest) {
  BindAxfrRequest request;
  request.origin = "cs.washington.edu";
  Sweep("BindAxfrRequest", request.Encode(), ByteCodec<BindAxfrRequest>());
}

TEST(DecodeSweepTest, BindAxfrResponse) {
  BindAxfrResponse response;
  response.rcode = Rcode::kNoError;
  response.serial = 1987;
  response.records = {RepresentativeRecord()};
  Sweep("BindAxfrResponse", response.Encode(), ByteCodec<BindAxfrResponse>());
}

TEST(DecodeSweepTest, ResourceRecord) {
  XdrEncoder enc;
  RepresentativeRecord().EncodeTo(&enc);
  Sweep("ResourceRecord", enc.Take(), [](const Bytes& data) -> Result<Bytes> {
    XdrDecoder dec(data);
    HCS_ASSIGN_OR_RETURN(ResourceRecord record, ResourceRecord::DecodeFrom(&dec));
    XdrEncoder out;
    record.EncodeTo(&out);
    return out.Take();
  });
}

TEST(DecodeSweepTest, ChCredentials) {
  CourierEncoder enc;
  RepresentativeCredentials().EncodeTo(&enc);
  Sweep("ChCredentials", enc.Take(), [](const Bytes& data) -> Result<Bytes> {
    CourierDecoder dec(data);
    HCS_ASSIGN_OR_RETURN(ChCredentials credentials,
                         ChCredentials::DecodeFrom(&dec));
    CourierEncoder out;
    credentials.EncodeTo(&out);
    return out.Take();
  });
}

TEST(DecodeSweepTest, ChRetrieveItemRequest) {
  ChRetrieveItemRequest request;
  request.credentials = RepresentativeCredentials();
  request.name = RepresentativeChName();
  request.property = kChPropAddress;
  Sweep("ChRetrieveItemRequest", request.Encode(),
        ByteCodec<ChRetrieveItemRequest>());
}

TEST(DecodeSweepTest, ChRetrieveItemResponse) {
  ChRetrieveItemResponse response;
  response.distinguished_name = RepresentativeChName();
  response.item = RepresentativeValue();
  Sweep("ChRetrieveItemResponse", response.Encode(),
        ByteCodec<ChRetrieveItemResponse>());
}

TEST(DecodeSweepTest, ChAddItemRequest) {
  ChAddItemRequest request;
  request.credentials = RepresentativeCredentials();
  request.name = RepresentativeChName();
  request.property = kChPropService;
  request.item = RepresentativeValue();
  Sweep("ChAddItemRequest", request.Encode(), ByteCodec<ChAddItemRequest>());
}

TEST(DecodeSweepTest, ChDeleteItemRequest) {
  ChDeleteItemRequest request;
  request.credentials = RepresentativeCredentials();
  request.name = RepresentativeChName();
  request.property = kChPropService;
  Sweep("ChDeleteItemRequest", request.Encode(),
        ByteCodec<ChDeleteItemRequest>());
}

TEST(DecodeSweepTest, ChListObjectsRequest) {
  ChListObjectsRequest request;
  request.credentials = RepresentativeCredentials();
  request.domain = "CSL";
  request.organization = "Xerox";
  Sweep("ChListObjectsRequest", request.Encode(),
        ByteCodec<ChListObjectsRequest>());
}

TEST(DecodeSweepTest, ChListObjectsResponse) {
  ChListObjectsResponse response;
  response.objects = {"Dorado", "Dolphin", "Dandelion"};
  Sweep("ChListObjectsResponse", response.Encode(),
        ByteCodec<ChListObjectsResponse>());
}

TEST(DecodeSweepTest, RequestContextWire) {
  RequestContextWire wire;
  wire.budget_ms = 250;
  wire.attempt = 2;
  wire.trace_id = 0xabcdef0123456789ull;
  XdrEncoder enc;
  wire.EncodeTo(enc);
  Sweep("RequestContextWire", enc.Take(), [](const Bytes& data) -> Result<Bytes> {
    XdrDecoder dec(data);
    HCS_ASSIGN_OR_RETURN(RequestContextWire parsed,
                         RequestContextWire::DecodeFrom(dec));
    XdrEncoder out;
    parsed.EncodeTo(out);
    return out.Take();
  });
}

TEST(DecodeSweepTest, TraceHeader) {
  TraceHeader header;
  header.seed = 0x5eedf00d;
  header.population = 1'000'000;
  header.contexts = 64;
  header.zipf_s_micros = 1'100'000;
  header.event_count = 3;
  Sweep("TraceHeader", header.Encode(), ByteCodec<TraceHeader>());
}

TEST(DecodeSweepTest, TraceEvent) {
  TraceEvent event;
  event.at_us = 1'234'567;
  event.client = 42;
  event.kind = TraceEventKind::kResolveMany;
  event.pair = 17;
  event.count = 4;
  Sweep("TraceEvent", event.Encode(), ByteCodec<TraceEvent>());
}

TEST(DecodeSweepTest, WorkloadTrace) {
  WorkloadTrace trace;
  trace.header.seed = 0x5eedf00d;
  trace.header.population = 2;
  trace.header.contexts = 1;
  trace.header.zipf_s_micros = 1'000'000;
  for (uint32_t k = 0; k < 3; ++k) {
    TraceEvent event;
    event.at_us = 1000 + k;
    event.client = k;
    event.kind = static_cast<TraceEventKind>(k);
    event.pair = k;
    trace.events.push_back(event);
  }
  Sweep("WorkloadTrace", trace.Encode(), ByteCodec<WorkloadTrace>());
}

// The zero-copy call decoder, swept against the poisoned debug arena. Each
// attempt lands the bytes in an EXACTLY-sized arena allocation (poison on
// both sides under the sanitizer legs of check.sh), decodes through
// DecodeCallView, and checks three contracts on top of the usual ones:
// the view decoder and the owning decoder agree on accept/reject, a
// surviving view's bytes equal the owning parse's args, and the view
// re-encodes to the same fixed point.
void SweepCallView(const std::string& label, ControlKind kind) {
  const ControlProtocol& control = GetControlProtocol(kind);
  RpcCall call;
  call.xid = 42;
  call.program = 100003;
  call.version = 2;
  call.procedure = 6;
  call.args = Bytes{0xde, 0xad, 0xbe, 0xef, 0x01};
  Bytes good = control.EncodeCall(call);

  auto arena = std::make_shared<Arena>(1024);
  Roundtrip roundtrip = [&control, label, arena](const Bytes& data) -> Result<Bytes> {
    arena->Reset();
    ScopedArenaViewBinding binding(arena.get());
    uint8_t* frame = arena->Allocate(data.empty() ? 1 : data.size());
    if (!data.empty()) {
      std::memcpy(frame, data.data(), data.size());
    }
    Result<RpcCallView> view = control.DecodeCallView(frame, data.size());
    Result<RpcCall> owned = control.DecodeCall(data);
    EXPECT_EQ(view.ok(), owned.ok())
        << label << ": view and owning decoders disagree on a "
        << data.size() << "-byte frame";
    if (!view.ok()) {
      return view.status();
    }
    EXPECT_EQ(view->args.ToBytes(), owned->args)
        << label << ": view args diverge from the owning parse";
    RpcCall reparsed;
    reparsed.xid = view->xid;
    reparsed.program = view->program;
    reparsed.version = view->version;
    reparsed.procedure = view->procedure;
    reparsed.context = view->context;
    reparsed.args = view->args.ToBytes();
    return control.EncodeCall(reparsed);
  };
  Sweep(label, good, roundtrip);
}

TEST(DecodeSweepTest, SunRpcCallView) {
  SweepCallView("SunRpcCallView", ControlKind::kSunRpc);
}

TEST(DecodeSweepTest, CourierCallView) {
  SweepCallView("CourierCallView", ControlKind::kCourier);
}

TEST(DecodeSweepTest, RawCallView) {
  SweepCallView("RawCallView", ControlKind::kRaw);
}

// Runs last (gtest preserves file order within a suite): the sweep's own
// coverage record, quoted in EXPERIMENTS.md.
TEST(DecodeSweepTest, ZReportCoverage) {
  const SweepTotals& totals = Totals();
  std::printf("[decode-sweep] %zu message types, %zu attempts "
              "(%zu rejected cleanly, %zu tolerated and fixed-point stable)\n",
              totals.types, totals.attempts, totals.rejected, totals.tolerated);
  EXPECT_GE(totals.types, 24u);  // includes the three *CallView sweeps
}

}  // namespace
}  // namespace hcs
