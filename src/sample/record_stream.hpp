// hcsim — positioned record streams for windowed sampling.
//
// A RecordStream delivers arbitrary forward ranges [begin, end) of one
// deterministic dynamic trace. The windowed simulator slices a trace into
// warm-up/measure windows through this interface. It has one
// implementation, open_cursor_stream(): an adapter over any TraceCursor —
// a materialized trace (free seeking), the synthetic generator or the RV
// executor (seeking forward generates and discards). The records come from
// the same cursors a full run reads, so serial windowed runs (one stream,
// windows in trace order), parallel sliced runs (a fresh stream per window
// job) and full runs agree exactly.
#pragma once

#include <functional>
#include <memory>

#include "trace/trace.hpp"
#include "wload/profile.hpp"

namespace hcsim::sample {

using RecordSink = std::function<void(const TraceRecord&)>;

/// Forward-only positioned view of one deterministic record stream.
class RecordStream {
 public:
  virtual ~RecordStream() = default;

  /// The static program the records refer to. Stable for the stream's
  /// lifetime (a Pipeline holds a reference across a window).
  virtual const Program& program() const = 0;

  /// Push records [begin, end) into `sink`, in program order. `begin` must
  /// be at or after the furthest position already delivered (streams only
  /// move forward); ranges past the end of the trace are delivered short.
  virtual void feed_range(u64 begin, u64 end, const RecordSink& sink) = 0;
};

/// Creates an independent stream over the same trace. Factories are
/// immutable and safe to invoke concurrently — each parallel window job
/// opens its own stream.
using StreamFactory = std::function<std::unique_ptr<RecordStream>()>;

/// The one RecordStream: forward ranges over `cursor`'s records. Skipping
/// 10M or more generated records to reach a range's begin logs a one-shot
/// warning — the O(begin) seek cost is reported, never silent.
std::unique_ptr<RecordStream> open_cursor_stream(std::unique_ptr<TraceCursor> cursor);

/// Factory for `profile`'s deterministic trace of `n_records` µops, routed
/// through open_trace_cursor() exactly as simulate_workload routes full runs.
StreamFactory workload_stream_factory(const WorkloadProfile& profile, u64 n_records);

}  // namespace hcsim::sample
