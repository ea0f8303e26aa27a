// Process-wide RPC client counters: relaxed atomics, readable from any
// thread. RpcClient counts every call it puts on the wire, every re-send,
// and every datagram a reply matcher dropped.
//
// The names are historical: hnsbench (perfbench/runner.cc) reads
// GlobalAsyncClientEngine()->stats() and its fields calls, retries and
// udp_unmatched. They stay until a change to the benchmark renames them.

#ifndef HCS_SRC_RPC_ASYNC_CLIENT_H_
#define HCS_SRC_RPC_ASYNC_CLIENT_H_

#include <atomic>
#include <cstdint>

namespace hcs {

struct AsyncEngineStats {
  uint64_t calls = 0;          // calls started on the wire (CallBlocking, CallMany)
  uint64_t retries = 0;        // re-sends of an unanswered call
  uint64_t udp_unmatched = 0;  // datagrams a reply matcher dropped
};

struct ClientCallCounters {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> udp_unmatched{0};

  AsyncEngineStats stats() const {
    return {calls.load(std::memory_order_relaxed), retries.load(std::memory_order_relaxed),
            udp_unmatched.load(std::memory_order_relaxed)};
  }
};

inline ClientCallCounters g_client_call_counters;

inline ClientCallCounters* GlobalAsyncClientEngine() { return &g_client_call_counters; }

}  // namespace hcs

#endif  // HCS_SRC_RPC_ASYNC_CLIENT_H_
