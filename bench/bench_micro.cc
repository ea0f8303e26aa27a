// Real-time microbenchmarks (google-benchmark): the wire formats, the HNS
// cache data structure, the event queue, zone lookups, the remote NSM
// query hop's codec chain, and the warm linked query's two cache hits.
// These measure the *implementation's* wall-clock performance — the
// paper's tables are regenerated by the bench_table*/bench_* harnesses on
// the virtual clock.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/bindns/record.h"
#include "src/bindns/zone.h"
#include "src/common/rand.h"
#include "src/hns/cache.h"
#include "src/hns/query_class.h"
#include "src/hns/session.h"
#include "src/hns/wire_protocol.h"
#include "src/rpc/control.h"
#include "src/sim/event_queue.h"
#include "src/testbed/testbed.h"
#include "src/wire/courier.h"
#include "src/wire/idl.h"
#include "src/wire/value.h"
#include "src/wire/xdr.h"

// Heap allocations, counted process-wide so a benchmark can report its
// allocations per iteration.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
// GCC pairs free() with malloc() only; here operator new is malloc-backed.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace hcs {
namespace {

void BM_XdrEncodeDecode(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    XdrEncoder enc;
    enc.PutUint32(42);
    enc.PutString(payload);
    enc.PutBool(true);
    Bytes bytes = enc.Take();
    XdrDecoder dec(bytes);
    benchmark::DoNotOptimize(dec.GetUint32());
    benchmark::DoNotOptimize(dec.GetString());
    benchmark::DoNotOptimize(dec.GetBool());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_XdrEncodeDecode)->Arg(64)->Arg(1024)->Arg(16384);

void BM_CourierEncodeDecode(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'y');
  for (auto _ : state) {
    CourierEncoder enc;
    enc.PutCardinal(7);
    enc.PutString(payload);
    enc.PutLongCardinal(123456);
    Bytes bytes = enc.Take();
    CourierDecoder dec(bytes);
    benchmark::DoNotOptimize(dec.GetCardinal());
    benchmark::DoNotOptimize(dec.GetString());
    benchmark::DoNotOptimize(dec.GetLongCardinal());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_CourierEncodeDecode)->Arg(64)->Arg(1024);

WireValue MakeRecordValue(int fields) {
  RecordBuilder builder;
  for (int i = 0; i < fields; ++i) {
    builder.Str("field" + std::to_string(i), "value-" + std::to_string(i));
  }
  return builder.Build();
}

void BM_WireValueRoundTrip(benchmark::State& state) {
  WireValue value = MakeRecordValue(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Bytes bytes = value.Encode();
    benchmark::DoNotOptimize(WireValue::Decode(bytes));
  }
}
BENCHMARK(BM_WireValueRoundTrip)->Arg(2)->Arg(10)->Arg(50);

// The remote NSM query hop's codec work on one thread, in the order a warm
// remote resolution does it: the client encodes the request envelope and
// the call around it; the server decodes the call in place and the
// envelope from the arrival view, and encodes the reply around the NSM's
// result (a binding record); the client decodes the reply in place, copies
// the results out once, and decodes them. The call and reply buffers are
// reused across iterations as the transports reuse theirs. Arg: the
// control protocol (0 Sun RPC, 1 Courier, 2 Raw — the NSM default).
void BM_NsmQueryHopCodec(benchmark::State& state) {
  const ControlProtocol& control = GetControlProtocol(static_cast<ControlKind>(state.range(0)));
  HnsName name;
  name.context = "HRPCBinding-BIND";
  name.individual = "fiji.cs.washington.edu";
  const WireValue args = RecordBuilder().Str("service", "nfs").Build();
  HrpcBinding binding;
  binding.service_name = "nfs";
  binding.host = "fiji.cs.washington.edu";
  binding.address = 0x0a000105;
  binding.port = 2049;
  binding.program = 100003;
  const WireValue result = binding.ToWire();
  Bytes call_wire;
  Bytes reply_wire;
  uint32_t xid = 1;
  const uint64_t allocations_before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const Bytes body = NsmQueryRequest::Encode(name, args);
    RpcCallView call;
    call.xid = xid++;
    call.program = 300001;
    call.procedure = 1;
    call.args = BytesView(body);
    control.EncodeCallTo(call, &call_wire);

    Result<RpcCallView> arrived = control.DecodeCallView(call_wire.data(), call_wire.size());
    Result<NsmQueryRequest> request = NsmQueryRequest::Decode(arrived->args);
    benchmark::DoNotOptimize(request->name.individual.data());
    RpcReplyMsg reply;
    reply.xid = arrived->xid;
    reply.results = result.Encode();
    control.EncodeReplyTo(reply, &reply_wire);

    Result<RpcReplyView> answer = control.DecodeReplyView(reply_wire.data(), reply_wire.size());
    const Bytes results = answer->results.ToBytes();
    Result<WireValue> value = WireValue::Decode(results);
    benchmark::DoNotOptimize(value->kind());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) - allocations_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_NsmQueryHopCodec)->Arg(0)->Arg(1)->Arg(2);

void BM_HnsCacheHit(benchmark::State& state) {
  CacheMode mode = state.range(0) == 0 ? CacheMode::kMarshalled : CacheMode::kDemarshalled;
  HnsCache cache(nullptr, mode);
  WireValue value = MakeRecordValue(10);
  cache.Put("key", value, 3600);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get("key"));
  }
}
BENCHMARK(BM_HnsCacheHit)->Arg(0)->Arg(1);

// A warm composite FindNSM probe on its own: the key folded in place, one
// map probe, the NSM name and binding copied out.
void BM_CompositeHit(benchmark::State& state) {
  CompositeBindingCache cache(nullptr);
  CompositeEntry entry;
  entry.nsm_name = "HostAddrNSM-BIND";
  entry.binding.service_name = "HostAddrNSM-BIND";
  entry.binding.host = "yakima.cs.washington.edu";
  entry.binding.port = 3001;
  entry.context = "BIND";
  entry.query_class = kQueryClassHostAddress;
  entry.ns_name = "UW-BIND";
  entry.expires = CacheNow(nullptr) + MsToSim(3600.0 * 1000.0);
  cache.Put(entry);
  const std::string context = "BIND";
  const uint64_t allocations_before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto hit = cache.Get(context, kQueryClassHostAddress);
    benchmark::DoNotOptimize(hit->binding.port);
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) - allocations_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CompositeHit);

// A warm HnsSession::Query in Table 3.1 row 1 (client, HNS and NSMs in one
// process, composite cache on): a composite hit, then the linked BIND
// HostAddress NSM's marshalled cache hit. The testbed's simulated world
// supplies the cold fill; the measured queries touch no transport, but
// still charge the virtual clock as the sim-era code does.
void BM_WarmLinkedQuery(benchmark::State& state) {
  TestbedOptions options;
  options.hns_composite_cache = true;
  Testbed bed(options);
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  HnsName name;
  name.context = kContextBind;
  name.individual = kSunServerHost;
  const WireValue no_args = WireValue::OfRecord({});
  if (!client.session->Query(name, kQueryClassHostAddress, no_args).ok()) {
    state.SkipWithError("cold query failed");
    return;
  }
  const uint64_t allocations_before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    Result<WireValue> result = client.session->Query(name, kQueryClassHostAddress, no_args);
    benchmark::DoNotOptimize(result.ok());
  }
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) - allocations_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WarmLinkedQuery);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    VirtualClock clock;
    EventQueue queue(&clock);
    int64_t fired = 0;
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
      queue.ScheduleAt(static_cast<SimTime>(rng.Uniform(1000000)), [&fired] { ++fired; });
    }
    queue.RunUntilIdle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

// The 1987 lesson in real time: interpretive stubs generated from an
// interface description vs a direct hand-coded encoder for the same record.
void BM_IdlStubVsHandCoded(benchmark::State& state) {
  IdlMessage message = ParseIdl(R"(
message Binding {
  host: string;
  port: u32;
  program: u32;
}
)").value().front();
  WireValue record = RecordBuilder()
                         .Str("host", "fiji.cs.washington.edu")
                         .U32("port", 2049)
                         .U32("program", 100003)
                         .Build();
  bool use_idl = state.range(0) == 1;
  for (auto _ : state) {
    if (use_idl) {
      benchmark::DoNotOptimize(message.Marshal(record, IdlRep::kXdr));
    } else {
      XdrEncoder enc;
      enc.PutString("fiji.cs.washington.edu");
      enc.PutUint32(2049);
      enc.PutUint32(100003);
      benchmark::DoNotOptimize(enc.Take());
    }
  }
}
BENCHMARK(BM_IdlStubVsHandCoded)->Arg(0)->Arg(1);

void BM_ZoneLookup(benchmark::State& state) {
  Zone zone("cs.washington.edu");
  Rng rng(11);
  std::vector<std::string> names;
  for (int i = 0; i < 1000; ++i) {
    std::string name = rng.Identifier(8) + ".cs.washington.edu";
    (void)zone.Add(ResourceRecord::MakeA(name, 0x80010000u + static_cast<uint32_t>(i)));  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)
    names.push_back(std::move(name));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(zone.Lookup(names[i++ % names.size()], RrType::kA));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZoneLookup);

}  // namespace
}  // namespace hcs

BENCHMARK_MAIN();
