// The compact binary trace format for workload record/replay. A trace is
// the complete, seed-free description of one workload run: every arrival,
// departure, resolution, registration, and cache flush, stamped with the
// simulated time it fired. Replaying a trace against a fresh testbed
// reproduces the run's counters exactly — which is both the replay feature
// and the determinism oracle the scenario suite asserts.
//
// The encoding is XDR over the same primitives as every other wire body in
// the tree, and the Encode/Decode pairs are checked by tools/lint_wire.py
// (field symmetry) and tests/decode_sweep_test.cc (truncation/corruption
// totality), so a trace written by one build parses — or cleanly fails —
// in any other.

#ifndef HCS_SRC_WORKLOAD_TRACE_H_
#define HCS_SRC_WORKLOAD_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/wire/xdr.h"

namespace hcs {

// What one trace event did. Arrive/depart move the client population;
// FindNsm/ResolveMany are resolutions against the session; the
// registration kinds are the churn-storm mutations; CacheFlush is the
// scripted mass expiry a cache-stampede scenario opens with.
enum class TraceEventKind : uint32_t {
  kArrive = 0,
  kDepart = 1,
  kFindNsm = 2,
  kResolveMany = 3,
  kRegisterNsm = 4,
  kUnregisterNsm = 5,
  kRegisterContext = 6,
  kCacheFlush = 7,
};

constexpr uint32_t kTraceMagic = 0x48575431;  // "HWT1"
constexpr uint32_t kTraceVersion = 1;

struct TraceHeader {
  uint32_t magic = kTraceMagic;
  uint32_t version = kTraceVersion;
  uint64_t seed = 0;
  uint32_t population = 0;
  uint32_t contexts = 0;
  // Zipf skew in millionths (s = zipf_s_micros / 1e6): the header stays
  // integral end to end, so equality comparisons are exact.
  uint32_t zipf_s_micros = 0;
  uint64_t event_count = 0;

  void EncodeTo(XdrEncoder& enc) const;
  HCS_NODISCARD static Result<TraceHeader> DecodeFrom(XdrDecoder& dec);
  Bytes Encode() const;
  HCS_NODISCARD static Result<TraceHeader> Decode(BytesView data);
};

struct TraceEvent {
  uint64_t at_us = 0;   // simulated time the event fired
  uint32_t client = 0;  // virtual client id (or actor id for storms)
  TraceEventKind kind = TraceEventKind::kArrive;
  uint32_t pair = 0;    // (context, query class) pair index
  uint32_t count = 0;   // batch size for kResolveMany; otherwise 0

  void EncodeTo(XdrEncoder& enc) const;
  HCS_NODISCARD static Result<TraceEvent> DecodeFrom(XdrDecoder& dec);
  Bytes Encode() const;
  HCS_NODISCARD static Result<TraceEvent> Decode(BytesView data);
};

// Serialized size of one TraceEvent (all fixed-width fields); the decoder
// uses it to reject a corrupted event_count before allocating.
constexpr size_t kTraceEventWireBytes = 8 + 4 * 4;

struct WorkloadTrace {
  TraceHeader header;
  std::vector<TraceEvent> events;

  // The header's event_count is taken from events.size() at encode time,
  // so a hand-assembled trace cannot disagree with itself on the wire.
  Bytes Encode() const;
  HCS_NODISCARD static Result<WorkloadTrace> Decode(BytesView data);
};

}  // namespace hcs

#endif  // HCS_SRC_WORKLOAD_TRACE_H_
