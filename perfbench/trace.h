// Spans and the arithmetic the report is built from: percentiles, parent
// linking, self time.
//
// In a traced run the benchmark records one span per layer boundary it can
// see from outside the program: around HnsSession::Query, HnsSession::FindNsm
// and Hns::RegisterNsm on the caller, around each served endpoint's
// HandleFrame, and around each outgoing call an NSM makes through the
// benchmark's port-mapping transport. Every span carries the trace id of the
// RequestContext it ran under, so spans of one op join up across threads.
// Spans stay in memory and are written out when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hnsbench {

// Nearest-rank percentile: the smallest value with at least q of the sample
// at or below it (q in (0, 1]). Reorders `values`; 0 for an empty sample.
template <typename T>
double Percentile(std::vector<T>* values, double q) {
  if (values->empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values->size())));
  size_t index = rank == 0 ? 0 : std::min(rank - 1, values->size() - 1);
  std::nth_element(values->begin(), values->begin() + static_cast<std::ptrdiff_t>(index),
                   values->end());
  return static_cast<double>((*values)[index]);
}

enum class Layer : uint8_t {
  kQuery,       // caller: HnsSession::Query
  kFindNsm,     // caller: HnsSession::FindNsm
  kRegister,    // caller: Hns::RegisterNsm
  kNsm,         // served NSM endpoint
  kMetaBind,    // served HNS-modified meta BIND
  kPublicBind,  // served public BIND
  kCh,          // served Clearinghouse
  kPortmap,     // served portmapper
  kNsmCall,     // an NSM's outgoing call, as its caller saw it
};
constexpr int kLayers = 9;

struct Span {
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same span vector; -1 for a root
  Layer layer = Layer::kQuery;
  // Caller spans: true when the op's FindNsm ran just before this Query.
  bool after_findnsm = false;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// Monotonic nanoseconds (steady clock), the time base of every span.
int64_t NowNs();

// Thread-safe in-memory span sink.
class SpanLog {
 public:
  void Record(const Span& span);
  // Hands over everything recorded so far and starts empty.
  std::vector<Span> Take();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Sets each span's parent to the innermost span of the same trace whose
// interval contains it. Spans with trace id 0 stay roots.
void LinkParents(std::vector<Span>* spans);

// A span's duration minus the part of its interval that the given child
// intervals cover (overlapping children count once).
int64_t SelfTimeNs(const Span& span, std::vector<std::pair<int64_t, int64_t>> children);

// Writes spans as fixed 32-byte little-endian records:
// trace_id u64, start_ns i64, end_ns i64, parent i32, layer u8,
// after_findnsm u8, 2 bytes zero.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace hnsbench

#endif  // PERFBENCH_TRACE_H_
