// Synchronization primitives with teeth. Every mutex in the concurrent
// resolution path (cache shards, singleflight table, composite cache, UDP
// server host, log sink) goes through these wrappers, which buy three
// things over bare std::mutex:
//
//  1. Clang thread-safety analysis. The wrappers carry capability
//     attributes, so members annotated HCS_GUARDED_BY and helpers annotated
//     HCS_REQUIRES are checked at compile time under
//     -DHCS_THREAD_SAFETY=ON (Clang; the attributes are no-ops on GCC).
//  2. A runtime lock-order deadlock detector (debug builds, or force-enabled
//     with SetDeadlockDetectorEnabled). Each thread keeps a stack of held
//     locks; every blocking acquisition records a "held -> acquired" edge in
//     a global order graph. A cycle means two code paths disagree about
//     lock order — the detector aborts immediately with both acquisition
//     contexts, instead of leaving a once-a-month deadlock in production.
//  3. Per-mutex contention counters (always on; relaxed atomics) and
//     wait/held-time accounting (opt-in via SetMutexTimingEnabled), exposed
//     through the named-mutex registry for stats plumbing and benches.
//
// Lock-rank conventions for this codebase are documented in DESIGN.md §9.

#ifndef HCS_SRC_COMMON_SYNC_H_
#define HCS_SRC_COMMON_SYNC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

// --- Clang thread-safety annotation macros ---------------------------------
// See https://clang.llvm.org/docs/ThreadSafetyAnalysis.html. On compilers
// without the attributes (GCC) they expand to nothing.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define HCS_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef HCS_THREAD_ANNOTATION__
#define HCS_THREAD_ANNOTATION__(x)
#endif

#define HCS_CAPABILITY(x) HCS_THREAD_ANNOTATION__(capability(x))
#define HCS_SCOPED_CAPABILITY HCS_THREAD_ANNOTATION__(scoped_lockable)
#define HCS_GUARDED_BY(x) HCS_THREAD_ANNOTATION__(guarded_by(x))
#define HCS_PT_GUARDED_BY(x) HCS_THREAD_ANNOTATION__(pt_guarded_by(x))
#define HCS_ACQUIRE(...) HCS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define HCS_RELEASE(...) HCS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define HCS_TRY_ACQUIRE(...) HCS_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define HCS_REQUIRES(...) HCS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define HCS_EXCLUDES(...) HCS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define HCS_RETURN_CAPABILITY(x) HCS_THREAD_ANNOTATION__(lock_returned(x))
#define HCS_NO_THREAD_SAFETY_ANALYSIS HCS_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace hcs {

// Snapshot of one mutex's counters. `wait_ns`/`held_ns` stay zero unless
// timing is enabled (clock reads are not free on the cache hot path).
struct MutexStats {
  std::string name;          // "" for anonymous mutexes
  uint64_t acquisitions = 0;
  uint64_t contended = 0;    // acquisitions that found the lock held
  uint64_t wait_ns = 0;      // time spent blocked acquiring
  uint64_t held_ns = 0;      // time spent holding
};

// --- Global switches --------------------------------------------------------
// The lock-order detector defaults to on in debug (!NDEBUG) builds.
void SetDeadlockDetectorEnabled(bool enabled);
bool DeadlockDetectorEnabled();
// Wait/held-time accounting; default off.
void SetMutexTimingEnabled(bool enabled);
bool MutexTimingEnabled();
// Drops every recorded acquisition-order edge (tests seed fresh graphs).
void ResetLockOrderGraph();
// Mutexes the order graph holds a node for: only those that appear in a
// recorded edge (names register lazily, with the edge).
size_t LockOrderGraphNodeCount();

// Counters of all currently-live *named* mutexes, for stats plumbing.
std::vector<MutexStats> AllMutexStats();

class CondVar;

// A std::mutex with a capability attribute, an identity in the lock-order
// graph, and contention counters. Named mutexes additionally appear in
// AllMutexStats(); the name should be a string literal.
class HCS_CAPABILITY("mutex") Mutex {
 public:
  Mutex();
  explicit Mutex(const char* name);
  ~Mutex();

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() HCS_ACQUIRE();
  void Unlock() HCS_RELEASE();
  bool TryLock() HCS_TRY_ACQUIRE(true);

  const char* name() const { return name_; }
  // Creation-ordered identity, never reused; keys the lock-order graph.
  uint64_t id() const { return id_; }
  MutexStats Stats() const;

  // BasicLockable aliases so CondVar's condition_variable_any releases and
  // reacquires through the instrumented path (held stacks stay correct
  // across a Wait).
  void lock() HCS_ACQUIRE() { Lock(); }
  void unlock() HCS_RELEASE() { Unlock(); }

 private:
  friend class CondVar;

  std::mutex mu_;
  const char* name_;   // static storage expected; "" when anonymous
  uint64_t id_;        // creation-ordered, keys the order graph
  std::atomic<uint64_t> acquisitions_{0};
  std::atomic<uint64_t> contended_{0};
  std::atomic<uint64_t> wait_ns_{0};
  std::atomic<uint64_t> held_ns_{0};
  uint64_t acquired_at_ns_ = 0;  // written after acquiring, read before release
};

// RAII lock with a scoped capability attribute — the unit the analysis
// understands. Replaces std::lock_guard/unique_lock on hcs::Mutex.
class HCS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HCS_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() HCS_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable over hcs::Mutex. Wait() releases and reacquires via the
// instrumented lock()/unlock(), so held-lock bookkeeping and counters stay
// consistent around the block.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) HCS_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) HCS_REQUIRES(mu) {
    while (!pred()) {
      Wait(mu);
    }
  }

  // Bounded wait: blocks until `pred` holds or `timeout_ms` elapses. Returns
  // the final value of `pred` (false = timed out with the predicate still
  // unsatisfied). Used by deadline-carrying waiters — e.g. singleflight
  // followers bounding their wait by the earliest of their own and the
  // leader's remaining budget.
  template <typename Predicate>
  bool WaitFor(Mutex& mu, int64_t timeout_ms, Predicate pred) HCS_REQUIRES(mu) {
    if (timeout_ms <= 0) {
      return pred();
    }
    return cv_.wait_for(mu, std::chrono::milliseconds(timeout_ms), std::move(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace hcs

#endif  // HCS_SRC_COMMON_SYNC_H_
