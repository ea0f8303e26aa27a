// View-lifetime runtime enforcement (ctest label `concurrency`; the
// views-asan leg of tools/check.sh runs this under ASan): the poisoned
// debug arena and the generation-stamped BytesView
// from DESIGN.md §13. Death tests assert that a view which outlives its
// arena's Reset aborts with both sites (birth and reset) named; poison
// tests assert freed spans trap (ASan) or carry the canary scribble
// (plain debug builds); storm regressions prove no handler on the serve
// path retains a view past its frame.
//
// In release builds (HCS_VIEW_DEBUG_ENABLED == 0) every check here
// compiles out of the product code, so the suite reduces to one skip;
// bench_smoke holds the other side of that bargain (no debug cost in the
// measured binaries).

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bytes.h"
#include "src/rpc/control.h"
#include "src/rpc/mmsg.h"
#include "src/rpc/server.h"
#include "src/rpc/udp_transport.h"

namespace hcs {
namespace {

#if !HCS_VIEW_DEBUG_ENABLED

TEST(ViewLifetimeTest, DebugModeCompiledOut) {
  GTEST_SKIP() << "HCS_VIEW_DEBUG_ENABLED=0: release builds compile the "
                  "view-lifetime machinery out (bench_smoke asserts the "
                  "hot path pays nothing for it); run a sanitizer or "
                  "Debug build for the enforcement suite";
}

#else  // HCS_VIEW_DEBUG_ENABLED

// --- Arena poison discipline ------------------------------------------------

TEST(ViewLifetimeTest, GenerationBumpsOnEveryReset) {
  Arena arena(64);
  EXPECT_EQ(arena.generation(), 0u);
  arena.Reset();
  EXPECT_EQ(arena.generation(), 1u);
  (void)arena.Allocate(32);
  arena.Reset();
  arena.Reset();
  EXPECT_EQ(arena.generation(), 3u);
}

TEST(ViewLifetimeTest, CanaryScribbleOnResetWithoutAsan) {
  if (DebugPoisonTraps()) {
    GTEST_SKIP() << "ASan build: freed spans trap instead of scribbling "
                    "(PoisonTrapsFreedSpanUnderAsan covers this build)";
  }
  Arena arena(64);
  uint8_t* p = arena.Allocate(16);
  std::memset(p, 0xAB, 16);
  arena.Reset();
  // The payload must be unreadable as itself: every freed byte now carries
  // the canary, so a stale reader sees a recognizable pattern, not data.
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(p[i], kArenaCanary) << "offset " << i << " kept its payload";
  }
}

TEST(ViewLifetimeTest, PoisonTrapsFreedSpanUnderAsan) {
  if (!DebugPoisonTraps()) {
    GTEST_SKIP() << "not an ASan build: freed spans scribble the canary "
                    "instead of trapping";
  }
  Arena arena(64);
  uint8_t* p = arena.Allocate(16);
  std::memset(p, 0xAB, 16);
  arena.Reset();
  EXPECT_DEATH({
    volatile uint8_t sink = p[0];
    (void)sink;
  }, "use-after-poison");
}

TEST(ViewLifetimeTest, UnallocatedTailStaysTrappedUnderAsan) {
  if (!DebugPoisonTraps()) {
    GTEST_SKIP() << "not an ASan build";
  }
  Arena arena(256);
  uint8_t* p = arena.Allocate(8);
  std::memset(p, 1, 8);  // the handed-out bytes are readable
  // One past the allocation is unhanded arena space: still poisoned.
  EXPECT_DEATH({
    volatile uint8_t sink = p[8];
    (void)sink;
  }, "use-after-poison");
}

// --- Generation-stamped views -----------------------------------------------

TEST(ViewLifetimeTest, StampedViewAbortsOnUseAfterReset) {
  Arena arena(128);
  ScopedArenaViewBinding binding(&arena);
  uint8_t* p = arena.Allocate(8);
  std::memset(p, 0x11, 8);
  BytesView view(p, 8);
  EXPECT_TRUE(view.debug_alive());
  EXPECT_EQ(view.data(), p);  // pre-reset access is fine
  arena.Reset();
  // hcs:owns-view(deliberate staleness: this test asserts the abort fires)
  EXPECT_FALSE(view.debug_alive());
  // The abort names both sides: where the view was born and where the
  // arena was Reset — both in this file.
  EXPECT_DEATH((void)view.data(),
               "use-after-reset: BytesView born at "
               ".*view_lifetime_test.cc:[0-9]+ .* accessed after "
               "Arena::Reset at .*view_lifetime_test.cc:[0-9]+");
}

TEST(ViewLifetimeTest, CopiedViewInheritsTheStamp) {
  Arena arena(128);
  ScopedArenaViewBinding binding(&arena);
  uint8_t* p = arena.Allocate(8);
  BytesView original(p, 8);
  BytesView copy = original;  // a copy is the same dangling pointer
  arena.Reset();
  // hcs:owns-view(deliberate staleness: asserts copies inherit the stamp)
  EXPECT_FALSE(copy.debug_alive());
  EXPECT_DEATH((void)copy.ToBytes(), "use-after-reset");
}

TEST(ViewLifetimeTest, SizeAndEmptyNeverAbort) {
  // size()/empty() read no arena memory and stay usable on a dead view —
  // drop/accounting paths may size a frame they will not touch.
  Arena arena(128);
  ScopedArenaViewBinding binding(&arena);
  BytesView view(arena.Allocate(8), 8);
  arena.Reset();
  // hcs:owns-view(deliberate staleness: size/empty must stay safe on a dead view)
  EXPECT_FALSE(view.debug_alive());
  EXPECT_EQ(view.size(), 8u);
  EXPECT_FALSE(view.empty());
}

TEST(ViewLifetimeTest, ViewsAreNotStampedWithoutABinding) {
  Arena arena(128);
  uint8_t* p = arena.Allocate(8);
  BytesView view(p, 8);  // no ambient binding installed
  arena.Reset();
  // Unstamped: the generation check cannot fire (the poison still traps a
  // dereference under ASan, which is the backstop for unbound paths).
  // hcs:owns-view(deliberate staleness: asserts unbound views are unstamped)
  EXPECT_TRUE(view.debug_alive());
}

TEST(ViewLifetimeTest, ViewsOutsideTheBoundArenaAreNotStamped) {
  Arena arena(128);
  ScopedArenaViewBinding binding(&arena);
  Bytes owned(16, 0x22);
  BytesView view(owned);  // backed by the vector, not the bound arena
  arena.Reset();
  // hcs:owns-view(backed by the local vector `owned`, not the reset arena)
  EXPECT_TRUE(view.debug_alive());
  EXPECT_EQ(view[0], 0x22);  // accessible after the unrelated Reset
}

TEST(ViewLifetimeTest, BindingsNestAndRestore) {
  Arena outer(128);
  Arena inner(128);
  uint8_t* p = outer.Allocate(8);
  ScopedArenaViewBinding outer_binding(&outer);
  {
    ScopedArenaViewBinding inner_binding(&inner);
    // While the inner binding is active, outer-arena memory is ambient-
    // foreign: views over it are not stamped (sim-path re-entry must not
    // cross-stamp its caller's arena).
    BytesView foreign(p, 8);
    outer.Reset();
    // hcs:owns-view(deliberate staleness: inner binding must not stamp outer memory)
    EXPECT_TRUE(foreign.debug_alive());
  }
  // The outer binding is restored: new views over outer memory stamp again.
  uint8_t* q = outer.Allocate(8);
  BytesView stamped(q, 8);
  outer.Reset();
  // hcs:owns-view(deliberate staleness: asserts the restored binding stamps)
  EXPECT_FALSE(stamped.debug_alive());
}

// --- The real decode path stamps through GetOpaqueView ----------------------

Bytes EncodeEchoCall(uint32_t xid, const Bytes& args) {
  RpcCall call;
  call.xid = xid;
  call.program = 7;
  call.version = 2;
  call.procedure = 1;
  call.args = args;
  return GetControlProtocol(ControlKind::kSunRpc).EncodeCall(call);
}

TEST(ViewLifetimeTest, DecodeCallViewArgsCarryTheArenaStamp) {
  Arena arena(1024);
  ScopedArenaViewBinding binding(&arena);
  Bytes frame = EncodeEchoCall(9, Bytes{0xde, 0xad, 0xbe, 0xef});
  uint8_t* p = arena.Allocate(frame.size());
  std::memcpy(p, frame.data(), frame.size());

  Result<RpcCallView> call =
      GetControlProtocol(ControlKind::kSunRpc).DecodeCallView(p, frame.size());
  ASSERT_TRUE(call.ok()) << call.status();
  EXPECT_EQ(call->args.size(), 4u);
  EXPECT_TRUE(call->args.debug_alive());
  EXPECT_EQ(call->args[0], 0xde);

  arena.Reset();
  EXPECT_FALSE(call->args.debug_alive());
  EXPECT_DEATH((void)call->args.ToBytes(), "use-after-reset");
}

// --- Partial-batch recycle poisoning ----------------------------------------

sockaddr_in Loopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

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

TEST(ViewLifetimeTest, PartialBatchRecyclePoisonsUnfilledSpans) {
  uint16_t port = 0;
  int fd = BindUdp(&port);
  int sender = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(sender, 0);
  Bytes payload{0x01, 0x02, 0x03};
  sockaddr_in addr = Loopback(port);
  ASSERT_EQ(sendto(sender, payload.data(), payload.size(), 0,
                   reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            static_cast<ssize_t>(payload.size()));

  constexpr size_t kSlot = 64;
  UdpRecvBatch batch(4, kSlot);
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_EQ(poll(&pfd, 1, 5000), 1);
  int n = batch.Recv(fd);
  ASSERT_EQ(n, 1);
  uint8_t* slot0 = batch.frame(0).data;
  ASSERT_EQ(batch.frame(0).size, 3u);
  EXPECT_EQ(slot0[0], 0x01);  // the landed bytes are readable

  // The tail of the received slot past the datagram, and the whole of the
  // next (unreceived) slot, were re-trapped after the partial batch: a
  // decoder over-reading past frame.size hits poison, not stale bytes.
  uint8_t* tail = slot0 + payload.size();
  uint8_t* slot1 = slot0 + kSlot;
  if (DebugPoisonTraps()) {
    EXPECT_DEATH({
      volatile uint8_t sink = tail[0];
      (void)sink;
    }, "use-after-poison");
    EXPECT_DEATH({
      volatile uint8_t sink = slot1[0];
      (void)sink;
    }, "use-after-poison");
  } else {
    EXPECT_EQ(tail[0], kArenaCanary);
    EXPECT_EQ(tail[kSlot - payload.size() - 1], kArenaCanary);
    EXPECT_EQ(slot1[0], kArenaCanary);
    EXPECT_EQ(slot1[kSlot - 1], kArenaCanary);
  }
  close(sender);
  close(fd);
}

// --- Use-after-recycle on the serving path ----------------------------------

// A server whose handler illegally retains the args view of request 1 and
// dereferences it while serving request 2 — after the batch's next Recv
// has Reset the arena. Run inside EXPECT_DEATH: the generation stamp must
// abort the process on the second request. Returns only if the runtime
// gate failed to fire (which the death test reports as the failure).
void ServeWithRetainingHandler() {
  UdpServerHost host(/*reactor_workers=*/1, /*udp_batch=*/8);
  RpcServer server(ControlKind::kSunRpc, "retainer");
  struct Retained {
    // hcs:owns-view(deliberate violation: this death test asserts the
    // runtime gate catches exactly this retention)
    BytesView view;
    bool armed = false;
  };
  auto retained = std::make_shared<Retained>();
  server.RegisterProcedure(7, 1, [retained](BytesView args) -> Result<Bytes> {
    if (!retained->armed) {
      retained->armed = true;
      retained->view = args;  // the illegal escape: outlives the frame
      return args.ToBytes();
    }
    return retained->view.ToBytes();  // request 2: touches recycled arena
  });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  timeval tv{0, 500 * 1000};
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr = Loopback(*port);
  std::vector<uint8_t> buf(2048);
  // Request 1 arms the retention; every later request dereferences the
  // stale view. With one reactor worker, request 2 lands in the same
  // worker-owned batch, whose Recv has reset the arena, so the generation
  // stamp aborts the server on the second request. The loop (with a pause
  // between requests) bounds the slow-timing case.
  for (uint32_t xid = 1; xid <= 10; ++xid) {
    Bytes call = EncodeEchoCall(xid, Bytes{0x5a, 0x5a});
    ASSERT_EQ(sendto(fd, call.data(), call.size(), 0,
                     reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              static_cast<ssize_t>(call.size()));
    (void)recv(fd, buf.data(), buf.size(), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  close(fd);
  host.StopAll();
}

TEST(ViewLifetimeTest, RetainedViewAbortsAcrossRecycle) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ServeWithRetainingHandler(), "use-after-reset");
}

// --- Storm regression: no handler retains a view past its reply -------------

int BurstEcho(uint16_t port, int count) {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{2, 0};
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  for (int i = 0; i < count; ++i) {
    Bytes frame = EncodeEchoCall(static_cast<uint32_t>(i + 1), Bytes{0xaa});
    sockaddr_in addr = Loopback(port);
    EXPECT_EQ(sendto(fd, frame.data(), frame.size(), 0,
                     reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
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

TEST(ViewLifetimeTest, BatchedStormRetainsNoViews) {
  // Every frame's views die when its batch recycles; with the debug arena
  // live, any handler or dispatch path holding a view past its reply would
  // abort this storm. Full completion is the proof.
  UdpServerHost host(/*reactor_workers=*/2, /*udp_batch=*/8);
  RpcServer server(ControlKind::kSunRpc, "storm-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> {
    return args.ToBytes();
  });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();
  EXPECT_EQ(BurstEcho(*port, 48), 48);
  host.StopAll();
}

#endif  // HCS_VIEW_DEBUG_ENABLED

}  // namespace
}  // namespace hcs
