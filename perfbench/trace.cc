#include "perfbench/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace hnsbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

void LinkParents(std::vector<Span>* spans) {
  std::vector<int32_t> order(spans->size());
  std::iota(order.begin(), order.end(), 0);
  // Per trace, by start; an enclosing span sorts before the spans it holds.
  std::sort(order.begin(), order.end(), [spans](int32_t a, int32_t b) {
    const Span& x = (*spans)[a];
    const Span& y = (*spans)[b];
    if (x.trace_id != y.trace_id) {
      return x.trace_id < y.trace_id;
    }
    if (x.start_ns != y.start_ns) {
      return x.start_ns < y.start_ns;
    }
    return x.end_ns > y.end_ns;
  });
  std::vector<int32_t> open;  // the chain of spans enclosing the current one
  uint64_t trace = 0;
  for (int32_t index : order) {
    Span& span = (*spans)[index];
    span.parent = -1;
    if (span.trace_id == 0) {
      continue;
    }
    if (span.trace_id != trace) {
      open.clear();
      trace = span.trace_id;
    }
    while (!open.empty() && (*spans)[open.back()].end_ns < span.end_ns) {
      open.pop_back();
    }
    if (!open.empty()) {
      span.parent = open.back();
    }
    open.push_back(index);
  }
}

int64_t SelfTimeNs(const Span& span, std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t reach = span.start_ns;  // end of the covered prefix so far
  for (auto [start, end] : children) {
    start = std::max(start, reach);
    end = std::min(end, span.end_ns);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return span.duration_ns() - covered;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  bool ok = true;
  for (const Span& span : spans) {
    unsigned char record[32] = {};
    std::memcpy(record, &span.trace_id, 8);
    std::memcpy(record + 8, &span.start_ns, 8);
    std::memcpy(record + 16, &span.end_ns, 8);
    std::memcpy(record + 24, &span.parent, 4);
    record[28] = static_cast<unsigned char>(span.layer);
    record[29] = span.after_findnsm ? 1 : 0;
    ok = ok && std::fwrite(record, sizeof(record), 1, file) == 1;
  }
  return std::fclose(file) == 0 && ok;
}

}  // namespace hnsbench
