// Unit tests for src/rpc: control protocols, client/server runtime,
// bindings, portmapper, transports.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "src/rpc/binding.h"
#include "src/rpc/client.h"
#include "src/rpc/control.h"
#include "src/rpc/portmapper.h"
#include "src/rpc/ports.h"
#include "src/rpc/server.h"
#include "src/rpc/transport.h"
#include "src/wire/xdr.h"

namespace hcs {
namespace {

// --- Control protocols (parameterized over all three) -------------------------

class ControlProtocolTest : public ::testing::TestWithParam<ControlKind> {};

TEST_P(ControlProtocolTest, CallRoundTrip) {
  const ControlProtocol& control = GetControlProtocol(GetParam());
  RpcCall call;
  call.xid = 777;
  call.program = 100003;
  call.version = GetParam() == ControlKind::kRaw ? 1 : 2;
  call.procedure = 6;
  call.args = Bytes{1, 2, 3, 4, 5, 6, 7, 8};

  Result<RpcCall> decoded = control.DecodeCall(control.EncodeCall(call));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  // Courier transaction ids are 16-bit.
  uint32_t want_xid = GetParam() == ControlKind::kCourier ? (call.xid & 0xffff) : call.xid;
  EXPECT_EQ(decoded->xid, want_xid);
  EXPECT_EQ(decoded->program, call.program);
  EXPECT_EQ(decoded->procedure, call.procedure);
  EXPECT_EQ(decoded->args, call.args);
}

TEST_P(ControlProtocolTest, SuccessReplyRoundTrip) {
  const ControlProtocol& control = GetControlProtocol(GetParam());
  RpcReplyMsg reply;
  reply.xid = 99;
  reply.results = Bytes{9, 9, 9, 9};
  Result<RpcReplyMsg> decoded = control.DecodeReply(control.EncodeReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->app_status, StatusCode::kOk);
  EXPECT_EQ(decoded->results, reply.results);
}

TEST_P(ControlProtocolTest, ErrorReplyCarriesStatusAcrossTheWire) {
  const ControlProtocol& control = GetControlProtocol(GetParam());
  RpcReplyMsg reply;
  reply.xid = 5;
  reply.app_status = StatusCode::kNotFound;
  reply.error_message = "no such name";
  Result<RpcReplyMsg> decoded = control.DecodeReply(control.EncodeReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->app_status, StatusCode::kNotFound);
  EXPECT_EQ(decoded->error_message, "no such name");
}

TEST_P(ControlProtocolTest, GarbageIsRejected) {
  const ControlProtocol& control = GetControlProtocol(GetParam());
  EXPECT_FALSE(control.DecodeCall(Bytes{0xde, 0xad}).ok());
  EXPECT_FALSE(control.DecodeReply(Bytes{}).ok());
}

TEST_P(ControlProtocolTest, PeekReplyXidAgreesWithTheDecoder) {
  const ControlProtocol& control = GetControlProtocol(GetParam());
  for (StatusCode status : {StatusCode::kOk, StatusCode::kNotFound}) {
    RpcReplyMsg reply;
    reply.xid = 0x12345;
    reply.app_status = status;
    reply.results = Bytes{7};
    Bytes wire = control.EncodeReply(reply);
    Result<RpcReplyMsg> decoded = control.DecodeReply(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    std::optional<uint32_t> peeked = control.PeekReplyXid(wire.data(), wire.size());
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(*peeked, decoded->xid);
  }
  const uint8_t garbage[] = {0xde, 0xad};
  EXPECT_FALSE(control.PeekReplyXid(garbage, sizeof(garbage)).has_value());
}

TEST_P(ControlProtocolTest, CallAndReplyAreNotInterchangeable) {
  const ControlProtocol& control = GetControlProtocol(GetParam());
  RpcCall call;
  call.xid = 1;
  call.program = 2;
  call.version = 2;
  call.procedure = 3;
  Bytes call_msg = control.EncodeCall(call);
  EXPECT_FALSE(control.DecodeReply(call_msg).ok());
}

INSTANTIATE_TEST_SUITE_P(AllControls, ControlProtocolTest,
                         ::testing::Values(ControlKind::kSunRpc, ControlKind::kCourier,
                                           ControlKind::kRaw),
                         [](const auto& param_info) { return ControlKindName(param_info.param); });

TEST(SunRpcControlTest, RejectsWrongRpcVersion) {
  // Hand-craft a call with rpcvers=3.
  XdrEncoder enc;
  enc.PutUint32(1);  // xid
  enc.PutUint32(0);  // CALL
  enc.PutUint32(3);  // bad rpc version
  enc.PutUint32(100000);
  enc.PutUint32(2);
  enc.PutUint32(0);
  enc.PutUint32(0);
  enc.PutUint32(0);
  enc.PutUint32(0);
  enc.PutUint32(0);
  const ControlProtocol& control = GetControlProtocol(ControlKind::kSunRpc);
  EXPECT_EQ(control.DecodeCall(enc.bytes()).status().code(), StatusCode::kProtocolError);
}

// --- Binding serialization ------------------------------------------------------

TEST(HrpcBindingTest, WireRoundTrip) {
  HrpcBinding b;
  b.service_name = "nfs";
  b.host = "fiji.cs.washington.edu";
  b.address = 0x80950104;
  b.port = 2049;
  b.program = 100003;
  b.version = 2;
  b.data_rep = DataRep::kCourier;
  b.transport = TransportKind::kSpp;
  b.control = ControlKind::kCourier;
  b.bind_protocol = BindProtocol::kCourierCh;

  Result<HrpcBinding> decoded = HrpcBinding::FromWire(b.ToWire());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, b);
}

TEST(HrpcBindingTest, RejectsOutOfRangeComponents) {
  WireValue bad = RecordBuilder()
                      .Str("service", "s")
                      .Str("host", "h")
                      .U32("address", 0)
                      .U32("port", 70000)  // > 65535
                      .U32("program", 1)
                      .U32("version", 1)
                      .U32("data_rep", 0)
                      .U32("transport", 0)
                      .U32("control", 0)
                      .U32("bind_protocol", 0)
                      .Build();
  EXPECT_EQ(HrpcBinding::FromWire(bad).status().code(), StatusCode::kProtocolError);

  WireValue bad_enum = RecordBuilder()
                           .Str("service", "s")
                           .Str("host", "h")
                           .U32("address", 0)
                           .U32("port", 1)
                           .U32("program", 1)
                           .U32("version", 1)
                           .U32("data_rep", 9)  // no such data rep
                           .U32("transport", 0)
                           .U32("control", 0)
                           .U32("bind_protocol", 0)
                           .Build();
  EXPECT_EQ(HrpcBinding::FromWire(bad_enum).status().code(), StatusCode::kProtocolError);
}

// --- Client/server over the simulated network ------------------------------------

class RpcRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(world_.network().AddHost("client", MachineType::kSun, OsType::kUnix).ok());
    ASSERT_TRUE(world_.network().AddHost("server", MachineType::kSun, OsType::kUnix).ok());
  }

  HrpcBinding MakeBinding(ControlKind control, uint16_t port, uint32_t program) {
    HrpcBinding b;
    b.service_name = "test";
    b.host = "server";
    b.port = port;
    b.program = program;
    b.version = 2;
    b.control = control;
    return b;
  }

  World world_;
};

TEST_F(RpcRuntimeTest, EndToEndCallAllProtocols) {
  for (ControlKind kind : {ControlKind::kSunRpc, ControlKind::kCourier, ControlKind::kRaw}) {
    SCOPED_TRACE(ControlKindName(kind));
    uint16_t port = static_cast<uint16_t>(1000 + static_cast<int>(kind));
    RpcServer server(kind, "test");
    server.RegisterProcedure(42, 1, [](BytesView args) -> Result<Bytes> {
      Bytes out = args.ToBytes();
      out.push_back(0xff);
      return out;
    });
    ASSERT_TRUE(world_.RegisterService("server", port, &server).ok());

    SimNetTransport transport(&world_);
    RpcClient client(&world_, "client", &transport);
    Result<Bytes> reply = client.Call(MakeBinding(kind, port, 42), 1, Bytes{1, 2});
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, (Bytes{1, 2, 0xff}));
  }
}

TEST_F(RpcRuntimeTest, UnknownProcedureIsUnimplemented) {
  RpcServer server(ControlKind::kRaw, "test");
  ASSERT_TRUE(world_.RegisterService("server", 1000, &server).ok());
  SimNetTransport transport(&world_);
  RpcClient client(&world_, "client", &transport);
  Result<Bytes> reply = client.Call(MakeBinding(ControlKind::kRaw, 1000, 42), 7, Bytes{});
  EXPECT_EQ(reply.status().code(), StatusCode::kUnimplemented);
}

TEST_F(RpcRuntimeTest, HandlerErrorRoundTripsAsStatus) {
  RpcServer server(ControlKind::kSunRpc, "test");
  server.RegisterProcedure(42, 1, [](BytesView) -> Result<Bytes> {
    return PermissionDeniedError("credentials rejected");
  });
  ASSERT_TRUE(world_.RegisterService("server", 1000, &server).ok());
  SimNetTransport transport(&world_);
  RpcClient client(&world_, "client", &transport);
  Result<Bytes> reply = client.Call(MakeBinding(ControlKind::kSunRpc, 1000, 42), 1, Bytes{});
  EXPECT_EQ(reply.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(reply.status().message(), "credentials rejected");
}

TEST_F(RpcRuntimeTest, CourierCallsCostMoreThanSunRpc) {
  for (ControlKind kind : {ControlKind::kSunRpc, ControlKind::kCourier}) {
    uint16_t port = static_cast<uint16_t>(1000 + static_cast<int>(kind));
    auto server = std::make_unique<RpcServer>(kind, "t");
    server->RegisterProcedure(42, 1, [](BytesView a) -> Result<Bytes> { return a.ToBytes(); });
    RpcServer* raw = world_.OwnService(std::move(server));
    ASSERT_TRUE(world_.RegisterService("server", port, raw).ok());
  }
  SimNetTransport transport(&world_);
  RpcClient client(&world_, "client", &transport);

  double t0 = world_.clock().NowMs();
  (void)client.Call(MakeBinding(ControlKind::kSunRpc, 1000, 42), 1, Bytes{});  // hcs:ignore-status(timing probe; only the clock delta is asserted)
  double sun = world_.clock().NowMs() - t0;
  t0 = world_.clock().NowMs();
  (void)client.Call(MakeBinding(ControlKind::kCourier, 1001, 42), 1, Bytes{});  // hcs:ignore-status(timing probe; only the clock delta is asserted)
  double courier = world_.clock().NowMs() - t0;
  EXPECT_GT(courier, sun);
}

TEST_F(RpcRuntimeTest, LoopbackTransportWorksWithoutAWorld) {
  RpcServer server(ControlKind::kRaw, "test");
  server.RegisterProcedure(42, 1, [](BytesView a) -> Result<Bytes> { return a.ToBytes(); });
  LoopbackTransport loopback;
  ASSERT_TRUE(loopback.Register(1000, &server).ok());
  EXPECT_EQ(loopback.Register(1000, &server).code(), StatusCode::kAlreadyExists);

  RpcClient client(/*world=*/nullptr, "anywhere", &loopback);
  Result<Bytes> reply = client.Call(MakeBinding(ControlKind::kRaw, 1000, 42), 1, Bytes{5});
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, Bytes{5});

  loopback.Unregister(1000);
  EXPECT_EQ(client.Call(MakeBinding(ControlKind::kRaw, 1000, 42), 1, Bytes{}).status().code(),
            StatusCode::kUnavailable);
}

// --- Portmapper --------------------------------------------------------------------

TEST_F(RpcRuntimeTest, PortmapperSetGetUnset) {
  PortMapper* pm = PortMapper::InstallOn(&world_, "server").value();
  SimNetTransport transport(&world_);
  RpcClient client(&world_, "client", &transport);

  // Not registered yet.
  EXPECT_EQ(PortMapper::GetPort(&client, "server", 100003, 2, kIpProtoUdp).status().code(),
            StatusCode::kNotFound);

  pm->SetMapping(100003, 2, kIpProtoUdp, 2049);
  EXPECT_EQ(PortMapper::GetPort(&client, "server", 100003, 2, kIpProtoUdp).value(), 2049);
  // Different protocol is a different mapping.
  EXPECT_FALSE(PortMapper::GetPort(&client, "server", 100003, 2, kIpProtoTcp).ok());

  pm->UnsetMapping(100003, 2, kIpProtoUdp);
  EXPECT_FALSE(PortMapper::GetPort(&client, "server", 100003, 2, kIpProtoUdp).ok());
}

TEST_F(RpcRuntimeTest, PortmapperSetViaRpc) {
  (void)PortMapper::InstallOn(&world_, "server").value();  // hcs:ignore-status(install helper; value() aborts on failure, handle unused)
  SimNetTransport transport(&world_);
  RpcClient client(&world_, "client", &transport);

  HrpcBinding pmap;
  pmap.host = "server";
  pmap.port = kPortmapperPort;
  pmap.program = kPortmapperProgram;
  pmap.version = 2;
  pmap.control = ControlKind::kSunRpc;

  XdrEncoder enc;
  enc.PutUint32(300001);
  enc.PutUint32(1);
  enc.PutUint32(kIpProtoUdp);
  enc.PutUint32(5555);
  Result<Bytes> set_reply = client.Call(pmap, kPmapProcSet, enc.Take());
  ASSERT_TRUE(set_reply.ok()) << set_reply.status();
  XdrDecoder dec(*set_reply);
  EXPECT_EQ(dec.GetUint32().value(), 1u);  // freshly registered

  EXPECT_EQ(PortMapper::GetPort(&client, "server", 300001, 1, kIpProtoUdp).value(), 5555);
}


// --- RetryPolicy: the budgeted-call retry schedule -----------------------------

TEST(RetryPolicyTest, AttemptBudgetsDoubleFromBaseAndCapAtSixteenX) {
  constexpr int64_t kPlenty = int64_t{1} << 40;
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(0, kPlenty), 100);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(1, kPlenty), 200);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(2, kPlenty), 400);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(3, kPlenty), 800);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(4, kPlenty), 1600);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(5, kPlenty), 1600) << "doubling caps at 16x base";
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(40, kPlenty), 1600);
  // Never beyond the remaining overall budget.
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(0, 40), 40);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(3, 150), 150);
}

TEST(RetryPolicyTest, BackoffDoublesToTheCap) {
  int64_t backoff = RetryPolicy::kBackoffBaseMs;
  std::vector<int64_t> schedule;
  for (int i = 0; i < 8; ++i) {
    schedule.push_back(backoff);
    backoff = RetryPolicy::NextBackoffMs(backoff);
  }
  EXPECT_EQ(schedule, (std::vector<int64_t>{10, 20, 40, 80, 160, 250, 250, 250}));
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  for (uint64_t trace : {uint64_t{1}, uint64_t{0xdeadbeef}, uint64_t{42}}) {
    for (uint32_t attempt = 0; attempt < 6; ++attempt) {
      int64_t first = RetryPolicy::JitteredBackoffMs(trace, attempt, 40, 1000);
      int64_t again = RetryPolicy::JitteredBackoffMs(trace, attempt, 40, 1000);
      EXPECT_EQ(first, again) << "a given (trace, attempt) must replay its jitter";
      EXPECT_GE(first, 20) << "at least backoff/2";
      EXPECT_LE(first, 40) << "at most the full backoff";
    }
  }
  // The schedule varies across attempts (it is jitter, not a constant).
  std::set<int64_t> distinct;
  for (uint32_t attempt = 0; attempt < 16; ++attempt) {
    distinct.insert(RetryPolicy::JitteredBackoffMs(7, attempt, 200, 10000));
  }
  EXPECT_GT(distinct.size(), 1u);
  // Capped by the remaining budget.
  EXPECT_EQ(RetryPolicy::JitteredBackoffMs(1, 0, 40, 7), 7);
}

TEST(RetryPolicyTest, MaxAttemptsMatchesTheMinimumSleepSchedule) {
  EXPECT_EQ(RetryPolicy::MaxAttempts(0), 1u);
  EXPECT_EQ(RetryPolicy::MaxAttempts(-5), 1u);
  // The minimum post-attempt sleeps run 5, 10, 20, 40, 80, 125, 125, ... ms
  // (backoff/2 with the 250 ms cap): a budget of 5 ms is spent after the
  // first sleep, 6 ms admits exactly one more attempt, and so on.
  EXPECT_EQ(RetryPolicy::MaxAttempts(1), 1u);
  EXPECT_EQ(RetryPolicy::MaxAttempts(5), 1u);
  EXPECT_EQ(RetryPolicy::MaxAttempts(6), 2u);
  EXPECT_EQ(RetryPolicy::MaxAttempts(100), 5u);
  EXPECT_EQ(RetryPolicy::MaxAttempts(2000), 20u);
  uint32_t previous = 0;
  for (int64_t budget = 1; budget <= 600; ++budget) {
    uint32_t attempts = RetryPolicy::MaxAttempts(budget);
    EXPECT_GE(attempts, previous) << "budget " << budget;
    previous = attempts;
  }
}

// A budget-capable transport that fails the first `fail_first` exchanges
// with kTimeout and then answers properly, recording every per-attempt
// budget the client granted.
class FlakyBudgetTransport : public Transport {
 public:
  explicit FlakyBudgetTransport(int fail_first) : fail_first_(fail_first) {}

  Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& message) override {
    return RoundTripWithBudget(from_host, to_host, port, message, -1);
  }

  Result<Bytes> RoundTripWithBudget(const std::string&, const std::string&, uint16_t,
                                    const Bytes& message, int64_t budget_ms) override {
    budgets_.push_back(budget_ms);
    if (static_cast<int>(budgets_.size()) <= fail_first_) {
      return TimeoutError("injected exchange timeout");
    }
    const ControlProtocol& control = GetControlProtocol(ControlKind::kRaw);
    HCS_ASSIGN_OR_RETURN(RpcCall call, control.DecodeCall(message));
    RpcReplyMsg reply;
    reply.xid = call.xid;
    reply.results = call.args;
    return control.EncodeReply(reply);
  }

  bool SupportsBudget() const override { return true; }

  const std::vector<int64_t>& budgets() const { return budgets_; }

 private:
  int fail_first_;
  std::vector<int64_t> budgets_;
};

HrpcBinding RawLoopbackBinding() {
  HrpcBinding b;
  b.host = "flaky";
  b.port = 99;
  b.program = 7;
  b.version = 1;
  b.control = ControlKind::kRaw;
  return b;
}

TEST(RetryPolicyTest, CallRetriesOnTheExactScheduleAndSucceeds) {
  FlakyBudgetTransport transport(/*fail_first=*/2);
  RpcClient client(/*world=*/nullptr, "client", &transport);
  RpcCallInfo info;
  Result<Bytes> reply = client.Call(RawLoopbackBinding(), 1, Bytes{5, 6},
                                    RequestContext::WithTimeout(5000), &info);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, (Bytes{5, 6}));
  EXPECT_EQ(info.attempts, 3u);
  EXPECT_EQ(info.retries, 2u);
  ASSERT_EQ(transport.budgets().size(), 3u);
  // The first attempts see an almost-untouched budget, so their transport
  // budgets are the policy's doubling sequence exactly.
  EXPECT_EQ(transport.budgets()[0], 100);
  EXPECT_EQ(transport.budgets()[1], 200);
  EXPECT_LE(transport.budgets()[2], 400);
  EXPECT_GT(transport.budgets()[2], 0);
}

TEST(RetryPolicyTest, CallStopsAtTheDeadlineWithinMaxAttempts) {
  FlakyBudgetTransport transport(/*fail_first=*/1 << 20);  // never succeeds
  RpcClient client(/*world=*/nullptr, "client", &transport);
  constexpr int64_t kBudgetMs = 300;
  RpcCallInfo info;
  Result<Bytes> reply = client.Call(RawLoopbackBinding(), 1, Bytes{1},
                                    RequestContext::WithTimeout(kBudgetMs), &info);
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  EXPECT_GE(info.attempts, 2u) << "the budget admits retries";
  EXPECT_LE(info.attempts, RetryPolicy::MaxAttempts(kBudgetMs))
      << "attempts beyond the budget's admission are forbidden";
  EXPECT_EQ(info.attempts, static_cast<uint32_t>(transport.budgets().size()));
  for (size_t i = 0; i < transport.budgets().size(); ++i) {
    EXPECT_LE(transport.budgets()[i],
              RetryPolicy::AttemptBudgetMs(static_cast<uint32_t>(i), kBudgetMs))
        << "attempt " << i;
  }
}

TEST(RetryPolicyTest, NoDeadlineMeansTheSeedsSingleAttempt) {
  FlakyBudgetTransport transport(/*fail_first=*/1 << 20);
  RpcClient client(/*world=*/nullptr, "client", &transport);
  RpcCallInfo info;
  Result<Bytes> reply = client.Call(RawLoopbackBinding(), 1, Bytes{1},
                                    RequestContext{}, &info);
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(info.attempts, 1u);
  EXPECT_EQ(info.retries, 0u);
  EXPECT_EQ(transport.budgets().size(), 1u);
}

}  // namespace
}  // namespace hcs
