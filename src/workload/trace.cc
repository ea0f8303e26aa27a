#include "src/workload/trace.h"

namespace hcs {

void TraceHeader::EncodeTo(XdrEncoder& enc) const {
  enc.PutUint32(magic);
  enc.PutUint32(version);
  enc.PutUint64(seed);
  enc.PutUint32(population);
  enc.PutUint32(contexts);
  enc.PutUint32(zipf_s_micros);
  enc.PutUint64(event_count);
}

Result<TraceHeader> TraceHeader::DecodeFrom(XdrDecoder& dec) {
  TraceHeader header;
  HCS_ASSIGN_OR_RETURN(header.magic, dec.GetUint32());
  if (header.magic != kTraceMagic) {
    return InvalidArgumentError("workload trace: bad magic");
  }
  HCS_ASSIGN_OR_RETURN(header.version, dec.GetUint32());
  if (header.version != kTraceVersion) {
    return InvalidArgumentError("workload trace: unsupported version");
  }
  HCS_ASSIGN_OR_RETURN(header.seed, dec.GetUint64());
  HCS_ASSIGN_OR_RETURN(header.population, dec.GetUint32());
  HCS_ASSIGN_OR_RETURN(header.contexts, dec.GetUint32());
  HCS_ASSIGN_OR_RETURN(header.zipf_s_micros, dec.GetUint32());
  HCS_ASSIGN_OR_RETURN(header.event_count, dec.GetUint64());
  return header;
}

Bytes TraceHeader::Encode() const {
  XdrEncoder enc;
  EncodeTo(enc);
  return enc.Take();
}

Result<TraceHeader> TraceHeader::Decode(BytesView data) {
  XdrDecoder dec(data);
  HCS_ASSIGN_OR_RETURN(TraceHeader header, DecodeFrom(dec));
  if (dec.remaining() != 0) {
    return InvalidArgumentError("workload trace header: trailing bytes");
  }
  return header;
}

void TraceEvent::EncodeTo(XdrEncoder& enc) const {
  enc.PutUint64(at_us);
  enc.PutUint32(client);
  enc.PutUint32(static_cast<uint32_t>(kind));
  enc.PutUint32(pair);
  enc.PutUint32(count);
}

Result<TraceEvent> TraceEvent::DecodeFrom(XdrDecoder& dec) {
  TraceEvent event;
  HCS_ASSIGN_OR_RETURN(event.at_us, dec.GetUint64());
  HCS_ASSIGN_OR_RETURN(event.client, dec.GetUint32());
  HCS_ASSIGN_OR_RETURN(uint32_t kind, dec.GetUint32());
  if (kind > static_cast<uint32_t>(TraceEventKind::kCacheFlush)) {
    return InvalidArgumentError("workload trace: unknown event kind");
  }
  event.kind = static_cast<TraceEventKind>(kind);
  HCS_ASSIGN_OR_RETURN(event.pair, dec.GetUint32());
  HCS_ASSIGN_OR_RETURN(event.count, dec.GetUint32());
  return event;
}

Bytes TraceEvent::Encode() const {
  XdrEncoder enc;
  EncodeTo(enc);
  return enc.Take();
}

Result<TraceEvent> TraceEvent::Decode(BytesView data) {
  XdrDecoder dec(data);
  HCS_ASSIGN_OR_RETURN(TraceEvent event, DecodeFrom(dec));
  if (dec.remaining() != 0) {
    return InvalidArgumentError("workload trace event: trailing bytes");
  }
  return event;
}

Bytes WorkloadTrace::Encode() const {
  XdrEncoder enc;
  TraceHeader stamped = header;
  stamped.event_count = events.size();
  stamped.EncodeTo(enc);
  for (const TraceEvent& event : events) {
    event.EncodeTo(enc);
  }
  return enc.Take();
}

Result<WorkloadTrace> WorkloadTrace::Decode(BytesView data) {
  XdrDecoder dec(data);
  WorkloadTrace trace;
  HCS_ASSIGN_OR_RETURN(trace.header, TraceHeader::DecodeFrom(dec));
  // A corrupted count must fail cleanly before it sizes an allocation: the
  // remaining frame bounds how many fixed-width events can possibly follow.
  if (trace.header.event_count > dec.remaining() / kTraceEventWireBytes) {
    return InvalidArgumentError("workload trace: event count exceeds frame");
  }
  trace.events.reserve(trace.header.event_count);
  for (uint64_t i = 0; i < trace.header.event_count; ++i) {
    HCS_ASSIGN_OR_RETURN(TraceEvent event, TraceEvent::DecodeFrom(dec));
    trace.events.push_back(event);
  }
  if (dec.remaining() != 0) {
    return InvalidArgumentError("workload trace: trailing bytes");
  }
  return trace;
}

}  // namespace hcs
