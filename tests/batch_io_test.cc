// Batched UDP I/O (ctest label `concurrency`; run under
// -DHCS_SANITIZE=thread too): the recvmmsg/sendmmsg wrappers, their
// single-shot fallback, partial-completion handling, truncation inside a
// batch, per-frame (never per-batch) fault decisions, and a batched
// FindNSM-vs-Register storm over real sockets. Syscall fakes are injected
// with SetMmsgSyscallsForTest so ENOSYS/EAGAIN/partial cases are
// deterministic, not host-dependent.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/bindns/server.h"
#include "src/common/arena.h"
#include "src/hns/hns.h"
#include "src/hns/name.h"
#include "src/rpc/client.h"
#include "src/rpc/fault.h"
#include "src/rpc/mmsg.h"
#include "src/rpc/server.h"
#include "src/rpc/udp_transport.h"
#include "src/sim/world.h"
#include "src/wire/value.h"

namespace hcs {
namespace {

// --- Arena ------------------------------------------------------------------

TEST(ArenaTest, AllocateAlignAndGrow) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);

  uint8_t* a = arena.Allocate(10);
  ASSERT_NE(a, nullptr);
  std::memset(a, 0xab, 10);
  uint8_t* b = arena.Allocate(1, 64);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  EXPECT_GE(arena.bytes_used(), 11u);

  // Force growth past the first block; earlier memory stays valid and
  // intact until Reset.
  uint8_t* big = arena.Allocate(1 << 16);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xcd, 1 << 16);
  EXPECT_EQ(a[0], 0xab);
  EXPECT_GE(arena.bytes_capacity(), (1u << 16));
}

TEST(ArenaTest, ResetCoalescesToHighWaterBlock) {
  Arena arena(64);
  (void)arena.Allocate(64);
  (void)arena.Allocate(4096);  // second block
  size_t high_water = arena.bytes_capacity();
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // After Reset the high-water capacity is one contiguous block: an
  // allocation of the full prior footprint must not grow capacity.
  uint8_t* p = arena.Allocate(high_water);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.bytes_capacity(), high_water);
}

// --- Batch-size resolution --------------------------------------------------

TEST(BatchSizeTest, ExplicitEnvAndClamp) {
  EXPECT_EQ(ResolveUdpBatchSize(4), 4);
  EXPECT_EQ(ResolveUdpBatchSize(1), 1);
  EXPECT_EQ(ResolveUdpBatchSize(kMaxUdpBatch + 100), kMaxUdpBatch);

  ASSERT_EQ(setenv("HCS_UDP_BATCH", "7", 1), 0);
  EXPECT_EQ(ResolveUdpBatchSize(0), 7);
  EXPECT_EQ(ResolveUdpBatchSize(3), 3);  // explicit beats env
  ASSERT_EQ(setenv("HCS_UDP_BATCH", "not-a-number", 1), 0);
  EXPECT_EQ(ResolveUdpBatchSize(0), kDefaultUdpBatch);
  ASSERT_EQ(unsetenv("HCS_UDP_BATCH"), 0);
  EXPECT_EQ(ResolveUdpBatchSize(0), kDefaultUdpBatch);
}

// --- Socket helpers ---------------------------------------------------------

sockaddr_in Loopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// Binds an ephemeral loopback UDP socket; aborts the test on failure.
int BindUdp(uint16_t* port_out) {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = Loopback(0);
  EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port_out = ntohs(addr.sin_port);
  return fd;
}

// Waits up to 5 s for `fd` to turn readable, then reads a batch (Recv
// never blocks).
int PollRecv(UdpRecvBatch& batch, int fd) {
  pollfd pfd{fd, POLLIN, 0};
  EXPECT_EQ(poll(&pfd, 1, 5000), 1);
  return batch.Recv(fd);
}

void SendTo(int fd, uint16_t port, const Bytes& payload) {
  sockaddr_in addr = Loopback(port);
  ASSERT_EQ(sendto(fd, payload.data(), payload.size(), 0,
                   reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            static_cast<ssize_t>(payload.size()));
}

// --- UdpRecvBatch over real sockets -----------------------------------------

TEST(BatchIoTest, PartialBatchLandsQueuedDatagrams) {
  uint16_t port = 0;
  int fd = BindUdp(&port);
  int sender = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(sender, 0);
  SendTo(sender, port, Bytes{1});
  SendTo(sender, port, Bytes{2, 2});
  SendTo(sender, port, Bytes{3, 3, 3});

  UdpRecvBatch batch(16, 512);
  // Returns whatever is queued once the socket turns readable — here all
  // three, well short of capacity.
  int n = PollRecv(batch, fd);
  int total = n;
  // The kernel may deliver the burst across polls; sweep until all three.
  while (total < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    UdpRecvBatch more(16, 512);
    int m = PollRecv(more, fd);
    ASSERT_GT(m, 0);
    total += m;
  }
  EXPECT_EQ(total, 3);
  ASSERT_GE(n, 1);
  EXPECT_EQ(batch.frame(0).size, 1u);
  EXPECT_EQ(batch.frame(0).data[0], 1);
  EXPECT_FALSE(batch.frame(0).truncated);

  // Nothing left: a batch read reports zero frames, even on a blocking
  // socket.
  UdpRecvBatch empty(16, 512);
  EXPECT_EQ(empty.Recv(fd), 0);
  close(sender);
  close(fd);
}

TEST(BatchIoTest, OversizedDatagramIsFlaggedTruncatedOthersSurvive) {
  uint16_t port = 0;
  int fd = BindUdp(&port);
  int sender = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(sender, 0);
  SendTo(sender, port, Bytes(100, 0xee));  // exceeds the 16-byte slot
  SendTo(sender, port, Bytes{7, 8, 9});

  UdpRecvBatch batch(8, 16);
  int total = 0;
  bool saw_truncated = false, saw_small = false;
  while (total < 2) {
    int n = PollRecv(batch, fd);
    ASSERT_GT(n, 0);
    for (int i = 0; i < n; ++i) {
      if (batch.frame(i).truncated) {
        saw_truncated = true;
        EXPECT_EQ(batch.frame(i).size, 16u);  // cut to the slot
      } else {
        saw_small = true;
        EXPECT_EQ(batch.frame(i).size, 3u);
        EXPECT_EQ(batch.frame(i).data[0], 7);
      }
    }
    total += n;
  }
  EXPECT_TRUE(saw_truncated);
  EXPECT_TRUE(saw_small);
  close(sender);
  close(fd);
}

// --- Injected syscall failures ----------------------------------------------

int FailEnosysRecvmmsg(int, mmsghdr*, unsigned int, int) {
  errno = ENOSYS;
  return -1;
}

int FailEnosysSendmmsg(int, mmsghdr*, unsigned int, int) {
  errno = ENOSYS;
  return -1;
}

// Accepts at most one message per call: every SendReplies batch completes
// only through repeated partial-completion consumption.
int OneAtATimeSendmmsg(int fd, mmsghdr* msgs, unsigned int vlen, int flags) {
  return sendmmsg(fd, msgs, vlen > 0 ? 1 : 0, flags);
}

std::atomic<int> g_eagain_after{0};

// Accepts one message, then reports EAGAIN for the rest of the batch.
int EagainAfterOneSendmmsg(int fd, mmsghdr* msgs, unsigned int vlen, int flags) {
  if (g_eagain_after.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    errno = EAGAIN;
    return -1;
  }
  return sendmmsg(fd, msgs, vlen > 0 ? 1 : 0, flags);
}

class MmsgFakeGuard {
 public:
  MmsgFakeGuard(RecvmmsgFn recv_fn, SendmmsgFn send_fn) {
    SetMmsgSyscallsForTest(recv_fn, send_fn);
  }
  ~MmsgFakeGuard() {
    SetMmsgSyscallsForTest(nullptr, nullptr);
    ResetMmsgAvailabilityForTest();
  }
};

TEST(BatchIoTest, EnosysRecvFlipsToSingleShotFallbackPermanently) {
  MmsgFakeGuard guard(&FailEnosysRecvmmsg, &FailEnosysSendmmsg);

  uint16_t port = 0;
  int fd = BindUdp(&port);
  int sender = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(sender, 0);
  SendTo(sender, port, Bytes{4, 5});

  ASSERT_TRUE(MmsgAvailable());
  UdpRecvBatch batch(8, 512);
  int n = PollRecv(batch, fd);
  // The ENOSYS recvmmsg flipped availability and the same Recv call
  // finished the job over recvfrom — identical frames, no caller retry.
  ASSERT_EQ(n, 1);
  EXPECT_FALSE(MmsgAvailable());
  EXPECT_EQ(batch.frame(0).size, 2u);
  EXPECT_EQ(batch.frame(0).data[0], 4);

  // Sends also run single-shot now, with the same completion accounting.
  std::vector<UdpReply> replies(2);
  for (size_t i = 0; i < replies.size(); ++i) {
    replies[i].peer = Loopback(port);
    replies[i].peer_len = sizeof(sockaddr_in);
    replies[i].payload = Bytes{static_cast<uint8_t>(i)};
  }
  EXPECT_EQ(SendReplies(sender, replies), 2u);
  close(sender);
  close(fd);
}

TEST(BatchIoTest, SendRepliesConsumesPartialCompletions) {
  MmsgFakeGuard guard(nullptr, &OneAtATimeSendmmsg);

  uint16_t port = 0;
  int rx = BindUdp(&port);
  int tx = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(tx, 0);

  std::vector<UdpReply> replies(5);
  for (size_t i = 0; i < replies.size(); ++i) {
    replies[i].peer = Loopback(port);
    replies[i].peer_len = sizeof(sockaddr_in);
    replies[i].payload = Bytes{static_cast<uint8_t>(i + 1)};
  }
  // Each fake call accepts one datagram; SendReplies must resume from the
  // first unsent message until the whole batch is out.
  EXPECT_EQ(SendReplies(tx, replies), 5u);

  std::vector<bool> seen(6, false);
  for (int i = 0; i < 5; ++i) {
    uint8_t buf[8];
    ssize_t n = recv(rx, buf, sizeof(buf), 0);
    ASSERT_EQ(n, 1);
    seen[buf[0]] = true;
  }
  for (int v = 1; v <= 5; ++v) {
    EXPECT_TRUE(seen[static_cast<size_t>(v)]) << "datagram " << v << " missing";
  }
  close(tx);
  close(rx);
}

TEST(BatchIoTest, EagainMidBatchAbandonsRemainderAndReportsCount) {
  g_eagain_after.store(1, std::memory_order_relaxed);
  MmsgFakeGuard guard(nullptr, &EagainAfterOneSendmmsg);

  uint16_t port = 0;
  int rx = BindUdp(&port);
  int tx = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(tx, 0);

  std::vector<UdpReply> replies(4);
  for (size_t i = 0; i < replies.size(); ++i) {
    replies[i].peer = Loopback(port);
    replies[i].peer_len = sizeof(sockaddr_in);
    replies[i].payload = Bytes{static_cast<uint8_t>(i + 1)};
  }
  // One accepted, then EAGAIN: the shortfall is the caller's to account —
  // exactly the count contract tools/lint_failpaths.py enforces at raw
  // call sites.
  EXPECT_EQ(SendReplies(tx, replies), 1u);
  close(tx);
  close(rx);
}

// --- Batched serving: truncation, fault decisions, end-to-end ---------------

Bytes EncodeEchoCall(uint32_t xid, const Bytes& args) {
  RpcCall call;
  call.xid = xid;
  call.program = 7;
  call.version = 2;
  call.procedure = 1;
  call.args = args;
  return GetControlProtocol(ControlKind::kSunRpc).EncodeCall(call);
}

// Fires `count` requests at `port` from one socket without waiting between
// sends (so the server's recvmmsg sees real multi-frame batches), then
// counts the replies.
int BurstEcho(uint16_t port, int count) {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{2, 0};
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  for (int i = 0; i < count; ++i) {
    Bytes frame = EncodeEchoCall(static_cast<uint32_t>(i + 1), Bytes{0xaa});
    sockaddr_in addr = Loopback(port);
    EXPECT_EQ(sendto(fd, frame.data(), frame.size(), 0, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              static_cast<ssize_t>(frame.size()));
  }
  int replies = 0;
  std::vector<uint8_t> buf(2048);
  while (replies < count) {
    ssize_t n = recv(fd, buf.data(), buf.size(), 0);
    if (n < 0) {
      break;  // timeout: report what arrived
    }
    ++replies;
  }
  close(fd);
  return replies;
}

class EchoServerFixture {
 public:
  explicit EchoServerFixture(int batch, size_t slot_bytes = 0)
      : host_(/*reactor_workers=*/2, batch, slot_bytes),
        server_(ControlKind::kSunRpc, "batch-echo") {
    server_.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> {
      return args.ToBytes();
    });
    Result<uint16_t> port = host_.Serve(&server_, 0);
    EXPECT_TRUE(port.ok()) << port.status();
    port_ = port.ok() ? *port : 0;
  }

  uint16_t port() const { return port_; }
  UdpServerHost& host() { return host_; }

 private:
  UdpServerHost host_;
  RpcServer server_;
  uint16_t port_ = 0;
};

TEST(BatchIoTest, BatchedEchoRoundTrips) {
  EchoServerFixture fixture(/*batch=*/8);
  EXPECT_EQ(BurstEcho(fixture.port(), 32), 32);
  fixture.host().StopAll();
}

TEST(BatchIoTest, OversizedDatagramInBatchIsDroppedNeighborsAnswered) {
  // 256-byte slots: a jumbo garbage datagram truncates; echo calls fit.
  EchoServerFixture fixture(/*batch=*/8, /*slot_bytes=*/256);

  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  Bytes jumbo(1000, 0x5a);
  sockaddr_in addr = Loopback(fixture.port());
  ASSERT_EQ(sendto(fd, jumbo.data(), jumbo.size(), 0, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            static_cast<ssize_t>(jumbo.size()));
  close(fd);

  // The truncated frame is dropped (counted), its batch neighbors answer.
  EXPECT_EQ(BurstEcho(fixture.port(), 16), 16);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  uint64_t dropped = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    dropped = fixture.host().dropped_by_endpoint()[fixture.port()];
    if (dropped >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(dropped, 1u);
  fixture.host().StopAll();
}

TEST(BatchIoTest, FaultDecisionsArePerFrameNotPerBatch) {
  FaultConfig config;
  config.seed = 20260808;
  FaultPlan plan;
  plan.endpoint = "local";  // every local serve port
  FaultPhase phase;
  phase.spec.drop = 1.0;  // drop everything: decisions == frames is provable
  plan.phases.push_back(phase);
  config.plans.push_back(plan);
  FaultInjector injector(config);
  InstallGlobalFaultInjector(&injector);

  EchoServerFixture fixture(/*batch=*/8);
  constexpr int kFrames = 24;
  // All dropped: BurstEcho gets zero replies back.
  EXPECT_EQ(BurstEcho(fixture.port(), kFrames), 0);

  // Every frame of every batch must have drawn its own decision; a
  // per-batch decision would leave decisions well short of kFrames.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  FaultStats stats;
  while (std::chrono::steady_clock::now() < deadline) {
    stats = injector.stats();
    if (stats.decisions >= kFrames) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(stats.decisions, static_cast<uint64_t>(kFrames));
  EXPECT_EQ(stats.server_drops, static_cast<uint64_t>(kFrames));
  fixture.host().StopAll();
  InstallGlobalFaultInjector(nullptr);
}

TEST(BatchIoTest, DecisionSequenceMatchesSingleShotServing) {
  // The same traffic against batch=8 and batch=1 servers must consume
  // identical per-endpoint decision streams: pure function of (seed,
  // endpoint, sequence), independent of batch geometry. Serve both on a
  // fixed port one after the other and compare traces.
  auto run = [](int batch, std::vector<std::string>* trace_out) {
    FaultConfig config;
    config.seed = 7;
    FaultPlan plan;
    plan.endpoint = "local";
    FaultPhase phase;
    phase.spec.drop = 1.0;  // swallow everything: no replies to wait on
    plan.phases.push_back(phase);
    config.plans.push_back(plan);
    FaultInjector injector(config);
    injector.set_trace_enabled(true);
    InstallGlobalFaultInjector(&injector);

    EchoServerFixture fixture(batch);
    EXPECT_EQ(BurstEcho(fixture.port(), 12), 0);
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline &&
           injector.stats().decisions < 12) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    fixture.host().StopAll();
    InstallGlobalFaultInjector(nullptr);
    // Traces are "endpoint#sequence:flags"; strip the port (ephemeral,
    // differs between the two servers) down to "#sequence:flags".
    std::vector<std::string> trace = injector.TakeTrace();
    for (std::string& line : trace) {
      size_t hash = line.find('#');
      if (hash != std::string::npos) {
        line = line.substr(hash);
      }
    }
    *trace_out = trace;
  };

  std::vector<std::string> batched, single;
  run(8, &batched);
  run(1, &single);
  ASSERT_EQ(batched.size(), 12u);
  EXPECT_EQ(batched, single);
}

// --- Batched FindNSM-vs-Register storm (TSan coverage) ----------------------

class FixedAddressNsm : public Nsm {
 public:
  FixedAddressNsm(NsmInfo info, uint32_t address)
      : info_(std::move(info)), address_(address) {}

  const NsmInfo& info() const override { return info_; }

  Result<WireValue> Query(const HnsName& name, const WireValue&) override {
    return RecordBuilder().U32("address", address_).Str("host", name.individual).Build();
  }

 private:
  NsmInfo info_;
  uint32_t address_;
};

TEST(BatchIoTest, BatchedFindNsmVsRegisterStorm) {
  // The concurrency_test storm, but explicitly over batched serving: the
  // meta authority answers through recvmmsg/sendmmsg while readers hammer
  // FindNSM against a Register/Unregister loop. Bar: no torn handle, and
  // TSan-clean batched dispatch.
  World world;
  ASSERT_TRUE(world.network().AddHost("metahost", MachineType::kMicroVax, OsType::kUnix).ok());
  BindServerOptions meta_options;
  meta_options.allow_dynamic_update = true;
  meta_options.allow_unspecified_type = true;
  BindServer* meta_bind = BindServer::InstallOn(&world, "metahost", meta_options).value();
  ASSERT_TRUE(meta_bind->AddZone(MetaStore::kMetaZoneOrigin).ok());

  UdpServerHost server_host(/*reactor_workers=*/0, /*udp_batch=*/8);
  Result<uint16_t> port = server_host.Serve(meta_bind->rpc(), 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  HnsOptions options;
  options.meta_server_host = "metahost";
  options.composite_cache = true;
  options.cache.negative_ttl_seconds = 1;
  Hns hns(/*world=*/nullptr, "client", &transport, options);
  hns.meta().set_meta_port(*port);

  NsmInfo addr_info;
  addr_info.nsm_name = "AddrNSM";
  addr_info.query_class = kQueryClassHostAddress;
  addr_info.ns_name = "UW-BIND";
  addr_info.host = "metahost";
  addr_info.host_context = "hostctx";
  ASSERT_TRUE(hns.LinkNsm(std::make_shared<FixedAddressNsm>(addr_info, 0x7f000001)).ok());

  NameServiceInfo ns_info;
  ns_info.name = "UW-BIND";
  ns_info.type = "BIND";
  ASSERT_TRUE(hns.RegisterNameService(ns_info).ok());
  ASSERT_TRUE(hns.RegisterContext("batchctx", "UW-BIND").ok());
  ASSERT_TRUE(hns.RegisterContext("hostctx", "UW-BIND").ok());
  ASSERT_TRUE(hns.RegisterNsm(addr_info).ok());

  NsmInfo storm_info;
  storm_info.nsm_name = "BatchNSM";
  storm_info.query_class = kQueryClassHrpcBinding;
  storm_info.ns_name = "UW-BIND";
  storm_info.host = "nsmhost";
  storm_info.host_context = "hostctx";
  storm_info.program = 4242;
  storm_info.version = 1;
  storm_info.port = 999;
  ASSERT_TRUE(hns.RegisterNsm(storm_info).ok());

  HnsName name;
  name.context = "batchctx";
  name.individual = "anything";
  {
    Result<NsmHandle> warm = hns.FindNsm(name, kQueryClassHrpcBinding);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm->nsm_name, "BatchNSM");
  }

  constexpr int kReaders = 3;
  constexpr int kReadsPerThread = 120;
  std::atomic<int> ok_results{0};
  std::atomic<int> clean_failures{0};
  std::atomic<int> wrong_results{0};

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        Result<NsmHandle> handle = hns.FindNsm(name, kQueryClassHrpcBinding);
        if (handle.ok()) {
          if (handle->nsm_name == "BatchNSM" && handle->binding.program == 4242 &&
              handle->binding.port == 999) {
            ++ok_results;
          } else {
            ++wrong_results;
          }
        } else {
          ++clean_failures;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < 10; ++round) {
      EXPECT_TRUE(hns.UnregisterNsm("UW-BIND", kQueryClassHrpcBinding).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      EXPECT_TRUE(hns.RegisterNsm(storm_info).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(wrong_results.load(), 0) << "a FindNSM result was torn by invalidation";
  EXPECT_EQ(ok_results.load() + clean_failures.load(), kReaders * kReadsPerThread);
  EXPECT_TRUE(hns.cache().CheckInvariants().ok());
  server_host.StopAll();
}

}  // namespace
}  // namespace hcs
