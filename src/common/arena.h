// Arena: a bump allocator for per-request and per-batch scratch memory on
// the transport hot path. A batched receive lands every datagram of the
// batch in one arena block; decode and dispatch then run over views into
// that block (src/rpc/mmsg.h, DESIGN.md §13) instead of copying each frame
// into its own std::vector. Reset() retains the high-water capacity, so a
// steady-state serve loop stops allocating entirely after warm-up.
//
// Not thread-safe: each arena is owned by one batch / one request at a
// time. Lifetime rule: memory returned by Allocate is valid until the next
// Reset() or destruction — callers handing out views into an arena must
// keep the arena alive until the last view is dropped. The normative rules
// are the DESIGN.md §13 table; tools/lint_views.py checks them statically.
//
// Debug enforcement (HCS_VIEW_DEBUG_ENABLED, see src/common/bytes.h): the
// arena keeps a monotonically increasing generation counter and, on every
// Reset, records the reset site and poisons the freed spans — with
// ASAN_POISON_MEMORY_REGION under AddressSanitizer (a stale read is then a
// fatal use-after-poison report), or a canary scribble (kArenaCanary)
// without it. Allocate unpoisons exactly the bytes it hands out, so
// alignment padding and the unallocated tail stay trapped.

#ifndef HCS_SRC_COMMON_ARENA_H_
#define HCS_SRC_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bytes.h"

namespace hcs {

// The scribble written over freed arena spans by debug builds without
// AddressSanitizer: stale reads see a recognizable pattern instead of the
// old payload, and tests can assert the scribble happened.
constexpr uint8_t kArenaCanary = 0xEF;

class Arena {
 public:
  // `initial_capacity` pre-sizes the first block (0 = allocate lazily).
  explicit Arena(size_t initial_capacity = 0);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `n` bytes aligned to `align` (a power of two). Never null for
  // n > 0; n == 0 returns a valid one-past pointer that must not be
  // dereferenced.
  uint8_t* Allocate(size_t n, size_t align = 8);

  // Invalidates every outstanding allocation and makes the full high-water
  // capacity available again as one contiguous block. Debug builds record
  // the call site, bump the generation (killing every stamped view), and
  // poison the freed spans.
#if HCS_VIEW_DEBUG_ENABLED
  void Reset(std::source_location reset_site = std::source_location::current());
#else
  void Reset();
#endif

  // Reset for an owner that has already re-poisoned every byte it wrote
  // since the last Reset, and wrote nowhere else: everything else it was
  // handed still holds the poison laid down when the block was added (or
  // by the owner itself), so the arena skips poisoning the whole span
  // again. UdpRecvBatch knows which bytes the kernel filled; with this its
  // debug cost per Recv follows the bytes received, not the batch's
  // capacity. The generation bump and reset-site record are Reset's.
#if HCS_VIEW_DEBUG_ENABLED
  void ResetRepoisoned(std::source_location reset_site = std::source_location::current());
#else
  void ResetRepoisoned() { Reset(); }
#endif

  // Number of Resets so far. A view into this arena is valid only while
  // the generation it was born under is still current.
  uint64_t generation() const { return generation_; }

  size_t bytes_used() const { return used_; }
  size_t bytes_capacity() const { return capacity_; }

#if HCS_VIEW_DEBUG_ENABLED
  ViewDebugState* view_debug_state() { return &debug_; }
#endif

 private:
  struct Block {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;
  };

  // Appends a block of at least `min_size` bytes and makes it current.
  void AddBlock(size_t min_size);
  // Reset's body; `poison` false for ResetRepoisoned.
  void Recycle(bool poison);
#if HCS_VIEW_DEBUG_ENABLED
  void RecordReset(const std::source_location& reset_site);
#endif

  std::vector<Block> blocks_;
  uint8_t* cur_ = nullptr;   // bump pointer within blocks_.back()
  uint8_t* end_ = nullptr;   // one past blocks_.back()
  size_t used_ = 0;          // bytes handed out since the last Reset
  size_t capacity_ = 0;      // sum of block sizes
  uint64_t generation_ = 0;  // incremented by every Reset
#if HCS_VIEW_DEBUG_ENABLED
  ViewDebugState debug_;
#endif
};

// RAII ambient-arena binding for view stamping (a no-op in release
// builds). The serving runtimes wrap dispatch of arena-backed frames in
// one of these; every BytesView constructed over the bound arena's memory
// while it is active carries the arena's generation and its own birth
// site, and aborts on access after the arena is Reset. Bindings nest
// (restoring the previous binding on destruction) because sim-path
// handlers can re-enter dispatch.
class ScopedArenaViewBinding {
 public:
  explicit ScopedArenaViewBinding(Arena* arena);
  ~ScopedArenaViewBinding();

  ScopedArenaViewBinding(const ScopedArenaViewBinding&) = delete;
  ScopedArenaViewBinding& operator=(const ScopedArenaViewBinding&) = delete;

 private:
#if HCS_VIEW_DEBUG_ENABLED
  ViewDebugState* previous_ = nullptr;
#endif
};

// Span poison/unpoison primitives shared by the arena and the batched-I/O
// layer (which re-poisons unreceived slot tails after a partial batch).
// Release builds compile them to nothing; debug builds poison via ASan
// user poisoning when available, else scribble kArenaCanary on poison.
void DebugPoisonSpan(uint8_t* p, size_t n);
void DebugUnpoisonSpan(uint8_t* p, size_t n);

// True when the binary is built with AddressSanitizer (the poison
// primitives trap reads instead of scribbling). Lets tests pick the right
// death/canary assertion.
bool DebugPoisonTraps();

}  // namespace hcs

#endif  // HCS_SRC_COMMON_ARENA_H_
