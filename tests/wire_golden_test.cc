// Wire byte-identity golden vectors. Each message below was encoded by the
// codecs before they learned to encode in one pass and decode in place, and
// its bytes were recorded here; the current encoders must reproduce them
// byte for byte, the decoders must read them back, and every truncation of
// every golden message must fail to decode with kProtocolError (never a
// crash, never a silent success). Covered: the remote NSM query envelope,
// FindNSM request and response, the agent query, Raw/SunRPC/Courier calls
// and replies, and self-describing values with odd-length strings and
// blobs, empty args and nested records.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/hns/wire_protocol.h"
#include "src/rpc/control.h"
#include "src/wire/value.h"

namespace hcs {
namespace {

// One golden message: its name, the decoder that reads it back, and bytes.
enum class GoldenKind { kWireValue, kNsmQuery, kFindNsmRequest, kFindNsmResponse, kAgentQuery,
                        kCall, kReply };

struct Golden {
  std::string name;
  GoldenKind kind;
  ControlKind control = ControlKind::kRaw;  // kCall / kReply only
  Bytes bytes;
};

WireValue NestedValue() {
  return RecordBuilder()
      .Str("odd", "abcde")
      .Str("empty", "")
      .Blob("blob3", Bytes{0xde, 0xad, 0xbe})
      .Blob("blob0", Bytes{})
      .U64("u64", 0x0123456789abcdefULL)
      .Value("null", WireValue::Null())
      .Value("list", WireValue::OfList({WireValue::OfUint32(7), WireValue::OfString("x"),
                                        WireValue::OfList({})}))
      .Value("inner", RecordBuilder()
                          .Str("k", "seven")
                          .Value("deeper", RecordBuilder().U32("n", 1).Build())
                          .Build())
      .Build();
}

std::vector<Golden> BuildGoldens() {
  std::vector<Golden> out;
  out.push_back({"value.nested", GoldenKind::kWireValue, ControlKind::kRaw, NestedValue().Encode()});
  out.push_back({"value.odd_string", GoldenKind::kWireValue, ControlKind::kRaw,
                 WireValue::OfString("hns").Encode()});
  out.push_back({"value.odd_blob", GoldenKind::kWireValue, ControlKind::kRaw,
                 WireValue::OfBlob(Bytes{1, 2, 3, 4, 5}).Encode()});
  out.push_back({"value.null", GoldenKind::kWireValue, ControlKind::kRaw,
                 WireValue::Null().Encode()});
  out.push_back({"value.empty_record", GoldenKind::kWireValue, ControlKind::kRaw,
                 WireValue::OfRecord({}).Encode()});

  NsmQueryRequest query;
  query.name.context = "HRPCBinding-BIND";
  query.name.individual = "fiji.cs.washington.edu";
  query.args = RecordBuilder().Str("service", "nfs").U32("version", 2).Build();
  const Bytes query_bytes = query.Encode();
  out.push_back({"nsm_query.record_args", GoldenKind::kNsmQuery, ControlKind::kRaw, query_bytes});
  NsmQueryRequest empty_query;
  empty_query.name.context = "CH";
  out.push_back({"nsm_query.empty_args", GoldenKind::kNsmQuery, ControlKind::kRaw,
                 empty_query.Encode()});
  NsmQueryRequest nested_query;
  nested_query.name.context = "HostAddress-CH";
  nested_query.name.individual = "Tahiti:CSL:Xerox";
  nested_query.args = NestedValue();
  out.push_back({"nsm_query.nested_args", GoldenKind::kNsmQuery, ControlKind::kRaw,
                 nested_query.Encode()});

  FindNsmRequest find;
  find.context = "uw-cs";
  find.query_class = "HostAddress";
  out.push_back({"find_nsm.request", GoldenKind::kFindNsmRequest, ControlKind::kRaw,
                 find.Encode()});
  FindNsmResponse found;
  found.nsm_name = "BindHostAddressNsm";
  found.binding.service_name = "nsm-host";
  found.binding.host = "june";
  found.binding.address = 0x0a000001;
  found.binding.port = 5001;
  found.binding.program = 0x30000001;
  found.binding.control = ControlKind::kCourier;
  out.push_back({"find_nsm.response", GoldenKind::kFindNsmResponse, ControlKind::kRaw,
                 found.Encode()});

  AgentQueryRequest agent;
  agent.name = query.name;
  agent.query_class = "HRPCBinding";
  agent.args = query.args;
  out.push_back({"agent.query", GoldenKind::kAgentQuery, ControlKind::kRaw, agent.Encode()});

  const std::pair<const char*, ControlKind> kControls[] = {
      {"raw", ControlKind::kRaw}, {"sunrpc", ControlKind::kSunRpc},
      {"courier", ControlKind::kCourier}};
  for (const auto& [label, kind] : kControls) {
    const ControlProtocol& control = GetControlProtocol(kind);
    const std::string prefix = label;

    RpcCall call;
    call.xid = 0x1234;
    call.program = 0x30000001;
    call.version = 3;
    call.procedure = 1;
    call.args = query_bytes;
    out.push_back({prefix + ".call.nsm_query", GoldenKind::kCall, kind, control.EncodeCall(call)});

    RpcCall odd = call;
    odd.args = Bytes{1, 2, 3, 4, 5};
    odd.context.attempt = 2;
    odd.context.trace_id = 0x0123456789abcdefULL;
    out.push_back({prefix + ".call.odd_args_traced", GoldenKind::kCall, kind,
                   control.EncodeCall(odd)});

    RpcCall empty = call;
    empty.args.clear();
    out.push_back({prefix + ".call.empty_args", GoldenKind::kCall, kind,
                   control.EncodeCall(empty)});

    RpcReplyMsg reply;
    reply.xid = 0x1234;
    reply.results = Bytes{9, 8, 7};
    out.push_back({prefix + ".reply.odd_results", GoldenKind::kReply, kind,
                   control.EncodeReply(reply)});

    RpcReplyMsg value_reply;
    value_reply.xid = 0x1235;
    value_reply.results = NestedValue().Encode();
    out.push_back({prefix + ".reply.value", GoldenKind::kReply, kind,
                   control.EncodeReply(value_reply)});

    RpcReplyMsg empty_reply;
    empty_reply.xid = 7;
    out.push_back({prefix + ".reply.empty", GoldenKind::kReply, kind,
                   control.EncodeReply(empty_reply)});

    RpcReplyMsg error;
    error.xid = 0x1236;
    error.app_status = StatusCode::kNotFound;
    error.error_message = "no such name";
    out.push_back({prefix + ".reply.error", GoldenKind::kReply, kind, control.EncodeReply(error)});
  }
  return out;
}

// The recorded encodings, in BuildGoldens() order.
const std::vector<std::pair<std::string, std::string>>& RecordedHex() {
  static const std::vector<std::pair<std::string, std::string>> kRecorded = {
      {"value.nested",
       "0000000600000008000000036f64640000000003000000056162636465000000"
       "00000005656d707479000000000000030000000000000005626c6f6233000000"
       "0000000400000003deadbe0000000005626c6f62300000000000000400000000"
       "0000000375363400000000020123456789abcdef000000046e756c6c00000000"
       "000000046c697374000000050000000300000001000000070000000300000001"
       "78000000000000050000000000000005696e6e65720000000000000600000002"
       "000000016b0000000000000300000005736576656e0000000000000664656570"
       "657200000000000600000001000000016e0000000000000100000001"},
      {"value.odd_string",
       "0000000300000003686e7300"},
      {"value.odd_blob",
       "00000004000000050102030405000000"},
      {"value.null",
       "00000000"},
      {"value.empty_record",
       "0000000600000000"},
      {"nsm_query.record_args",
       "000000104852504342696e64696e672d42494e440000001666696a692e63732e"
       "77617368696e67746f6e2e656475000000000006000000020000000773657276"
       "6963650000000003000000036e6673000000000776657273696f6e0000000001"
       "00000002"},
      {"nsm_query.empty_args",
       "00000002434800000000000000000000"},
      {"nsm_query.nested_args",
       "0000000e486f7374416464726573732d43480000000000105461686974693a43"
       "534c3a5865726f780000000600000008000000036f6464000000000300000005"
       "616263646500000000000005656d707479000000000000030000000000000005"
       "626c6f62330000000000000400000003deadbe0000000005626c6f6230000000"
       "00000004000000000000000375363400000000020123456789abcdef00000004"
       "6e756c6c00000000000000046c69737400000005000000030000000100000007"
       "000000030000000178000000000000050000000000000005696e6e6572000000"
       "0000000600000002000000016b0000000000000300000005736576656e000000"
       "0000000664656570657200000000000600000001000000016e00000000000001"
       "00000001"},
      {"find_nsm.request",
       "0000000575772d63730000000000000b486f73744164647265737300"},
      {"find_nsm.response",
       "0000001242696e64486f7374416464726573734e736d0000000000060000000a"
       "00000007736572766963650000000003000000086e736d2d686f737400000004"
       "686f737400000003000000046a756e6500000007616464726573730000000001"
       "0a00000100000004706f727400000001000013890000000770726f6772616d00"
       "00000001300000010000000776657273696f6e00000000010000000100000008"
       "646174615f7265700000000100000000000000097472616e73706f7274000000"
       "000000010000000000000007636f6e74726f6c0000000001000000010000000d"
       "62696e645f70726f746f636f6c0000000000000100000002"},
      {"agent.query",
       "000000104852504342696e64696e672d42494e440000001666696a692e63732e"
       "77617368696e67746f6e2e65647500000000000b4852504342696e64696e6700"
       "000000060000000200000007736572766963650000000003000000036e667300"
       "0000000776657273696f6e000000000100000002"},
      {"raw.call.nsm_query",
       "4852504300001234300000010000000100000064000000104852504342696e64"
       "696e672d42494e440000001666696a692e63732e77617368696e67746f6e2e65"
       "6475000000000006000000020000000773657276696365000000000300000003"
       "6e6673000000000776657273696f6e000000000100000002"},
      {"raw.call.odd_args_traced",
       "485250580000000000000000000000020123456789abcdef0000123430000001"
       "00000001000000050102030405000000"},
      {"raw.call.empty_args",
       "4852504300001234300000010000000100000000"},
      {"raw.reply.odd_results",
       "485250430000123400000000000000000000000309080700"},
      {"raw.reply.value",
       "48525043000012350000000000000000000000fc000000060000000800000003"
       "6f6464000000000300000005616263646500000000000005656d707479000000"
       "000000030000000000000005626c6f62330000000000000400000003deadbe00"
       "00000005626c6f62300000000000000400000000000000037536340000000002"
       "0123456789abcdef000000046e756c6c00000000000000046c69737400000005"
       "0000000300000001000000070000000300000001780000000000000500000000"
       "00000005696e6e65720000000000000600000002000000016b00000000000003"
       "00000005736576656e0000000000000664656570657200000000000600000001"
       "000000016e0000000000000100000001"},
      {"raw.reply.empty",
       "4852504300000007000000000000000000000000"},
      {"raw.reply.error",
       "4852504300001236000000010000000c6e6f2073756368206e616d6500000000"},
      {"sunrpc.call.nsm_query",
       "0000123400000000000000023000000100000003000000010000000000000000"
       "000000000000000000000064000000104852504342696e64696e672d42494e44"
       "0000001666696a692e63732e77617368696e67746f6e2e656475000000000006"
       "0000000200000007736572766963650000000003000000036e66730000000007"
       "76657273696f6e000000000100000002"},
      {"sunrpc.call.odd_args_traced",
       "0000123400000000000000023000000100000003000000014843535800000014"
       "0000000000000000000000020123456789abcdef000000000000000000000005"
       "0102030405000000"},
      {"sunrpc.call.empty_args",
       "0000123400000000000000023000000100000003000000010000000000000000"
       "000000000000000000000000"},
      {"sunrpc.reply.odd_results",
       "0000123400000001000000000000000000000000000000000000000000000000"
       "0000000309080700"},
      {"sunrpc.reply.value",
       "0000123500000001000000000000000000000000000000000000000000000000"
       "000000fc0000000600000008000000036f646400000000030000000561626364"
       "6500000000000005656d707479000000000000030000000000000005626c6f62"
       "330000000000000400000003deadbe0000000005626c6f623000000000000004"
       "000000000000000375363400000000020123456789abcdef000000046e756c6c"
       "00000000000000046c6973740000000500000003000000010000000700000003"
       "0000000178000000000000050000000000000005696e6e657200000000000006"
       "00000002000000016b0000000000000300000005736576656e00000000000006"
       "64656570657200000000000600000001000000016e0000000000000100000001"},
      {"sunrpc.reply.empty",
       "0000000700000001000000000000000000000000000000000000000000000000"
       "00000000"},
      {"sunrpc.reply.error",
       "000012360000000100000000000000000000000000000000000000010000000c"
       "6e6f2073756368206e616d6500000000"},
      {"courier.call.nsm_query",
       "0000123430000001000300010064000000104852504342696e64696e672d4249"
       "4e440000001666696a692e63732e77617368696e67746f6e2e65647500000000"
       "00060000000200000007736572766963650000000003000000036e6673000000"
       "000776657273696f6e000000000100000002"},
      {"courier.call.odd_args_traced",
       "0004000000000000000000020123456789abcdef123430000001000300010005"
       "010203040500"},
      {"courier.call.empty_args",
       "0000123430000001000300010000"},
      {"courier.reply.odd_results",
       "00021234000309080700"},
      {"courier.reply.value",
       "0002123500fc0000000600000008000000036f64640000000003000000056162"
       "63646500000000000005656d707479000000000000030000000000000005626c"
       "6f62330000000000000400000003deadbe0000000005626c6f62300000000000"
       "0004000000000000000375363400000000020123456789abcdef000000046e75"
       "6c6c00000000000000046c697374000000050000000300000001000000070000"
       "00030000000178000000000000050000000000000005696e6e65720000000000"
       "000600000002000000016b0000000000000300000005736576656e0000000000"
       "000664656570657200000000000600000001000000016e000000000000010000"
       "0001"},
      {"courier.reply.empty",
       "000200070000"},
      {"courier.reply.error",
       "000312360001000c6e6f2073756368206e616d65"},
  };
  return kRecorded;
}

std::string Hex(const Bytes& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// Decodes `data` with the golden's decoder and reports the status.
Status DecodeAs(const Golden& golden, BytesView data) {
  switch (golden.kind) {
    case GoldenKind::kWireValue:
      return WireValue::Decode(data).status();
    case GoldenKind::kNsmQuery:
      return NsmQueryRequest::Decode(data).status();
    case GoldenKind::kFindNsmRequest:
      return FindNsmRequest::Decode(data).status();
    case GoldenKind::kFindNsmResponse:
      return FindNsmResponse::Decode(data).status();
    case GoldenKind::kAgentQuery:
      return AgentQueryRequest::Decode(data).status();
    case GoldenKind::kCall:
      return GetControlProtocol(golden.control).DecodeCallView(data.data(), data.size()).status();
    case GoldenKind::kReply:
      return GetControlProtocol(golden.control).DecodeReply(data).status();
  }
  return InternalError("unknown golden kind");
}

TEST(WireGoldenTest, EncodersReproduceTheRecordedBytes) {
  const std::vector<Golden> goldens = BuildGoldens();
  const auto& recorded = RecordedHex();
  ASSERT_EQ(goldens.size(), recorded.size());
  for (size_t i = 0; i < goldens.size(); ++i) {
    EXPECT_EQ(goldens[i].name, recorded[i].first);
    EXPECT_EQ(Hex(goldens[i].bytes), recorded[i].second) << goldens[i].name;
  }
}

TEST(WireGoldenTest, DecodersReadTheRecordedBytesBack) {
  for (const Golden& golden : BuildGoldens()) {
    EXPECT_TRUE(DecodeAs(golden, golden.bytes).ok()) << golden.name;
  }
  // Values and envelopes survive a decode/encode round trip unchanged.
  for (const Golden& golden : BuildGoldens()) {
    if (golden.kind == GoldenKind::kWireValue) {
      Result<WireValue> value = WireValue::Decode(golden.bytes);
      ASSERT_TRUE(value.ok()) << golden.name;
      EXPECT_EQ(value->Encode(), golden.bytes) << golden.name;
      EXPECT_EQ(value->EncodedSize(), golden.bytes.size()) << golden.name;
    } else if (golden.kind == GoldenKind::kNsmQuery) {
      Result<NsmQueryRequest> query = NsmQueryRequest::Decode(golden.bytes);
      ASSERT_TRUE(query.ok()) << golden.name;
      EXPECT_EQ(query->Encode(), golden.bytes) << golden.name;
    } else if (golden.kind == GoldenKind::kReply) {
      const ControlProtocol& control = GetControlProtocol(golden.control);
      Result<RpcReplyMsg> reply = control.DecodeReply(golden.bytes);
      ASSERT_TRUE(reply.ok()) << golden.name;
      EXPECT_EQ(control.EncodeReply(*reply), golden.bytes) << golden.name;
    }
  }
}

TEST(WireGoldenTest, EveryTruncationIsAProtocolError) {
  for (const Golden& golden : BuildGoldens()) {
    for (size_t n = 0; n < golden.bytes.size(); ++n) {
      // Copied, so a decoder that reads past the prefix trips the
      // sanitizers instead of reading the rest of the golden.
      const Bytes prefix(golden.bytes.begin(), golden.bytes.begin() + static_cast<long>(n));
      Status status = DecodeAs(golden, prefix);
      EXPECT_EQ(status.code(), StatusCode::kProtocolError)
          << golden.name << " truncated to " << n << " of " << golden.bytes.size()
          << " bytes: " << status;
    }
  }
}

}  // namespace
}  // namespace hcs
