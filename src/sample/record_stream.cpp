#include "sample/record_stream.hpp"

#include <span>

#include "rv/kernels.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"
#include "wload/executor.hpp"
#include "wload/program_gen.hpp"

namespace hcsim::sample {

namespace {

/// Materialized trace: ranges are plain index slices.
class TraceRecordStream final : public RecordStream {
 public:
  explicit TraceRecordStream(const Trace& trace) : trace_(trace) {}

  const Program& program() const override { return trace_.program; }

  void feed_range(u64 begin, u64 end, const RecordSink& sink) override {
    const u64 stop = std::min<u64>(end, trace_.records.size());
    for (u64 i = begin; i < stop; ++i) sink(trace_.records[i]);
  }

 private:
  const Trace& trace_;
};

/// Synthetic generator: a ProgramTraceCursor interpreted on demand. Seeking
/// forward generates and discards — generation runs ~6x faster than the
/// pipeline, which is what makes skipped periods nearly free.
class CursorRecordStream final : public RecordStream {
 public:
  CursorRecordStream(const WorkloadProfile& profile, u64 n_records)
      : cursor_(std::make_unique<ProgramTraceCursor>(generate_program(profile),
                                                     profile, n_records)) {}

  const Program& program() const override { return cursor_->program(); }

  void feed_range(u64 begin, u64 end, const RecordSink& sink) override {
    HCSIM_CHECK(begin >= pos_, "CursorRecordStream: backward seek");
    if (begin > pos_) note_forward_seek("generator", begin - pos_);
    while (pos_ < end) {
      if (off_ >= chunk_.size()) {
        chunk_ = cursor_->next_chunk();
        off_ = 0;
        if (chunk_.empty()) return;  // trace exhausted: deliver short
      }
      const TraceRecord& rec = chunk_[off_++];
      if (pos_ >= begin) sink(rec);
      ++pos_;
    }
  }

 private:
  std::unique_ptr<ProgramTraceCursor> cursor_;  // not movable: heap-pinned
  std::span<const TraceRecord> chunk_;
  std::size_t off_ = 0;
  u64 pos_ = 0;
};

/// RV kernel: a resumable executor cursor. The machine persists across
/// feed_range calls, so a forward seek costs O(gap), not O(begin).
class KernelRecordStream final : public RecordStream {
 public:
  explicit KernelRecordStream(const std::string& kernel)
      : stream_(rv::open_kernel_stream(kernel)),
        cursor_(stream_.binary, stream_.cracked) {}

  const Program& program() const override { return stream_.cracked.program; }

  void feed_range(u64 begin, u64 end, const RecordSink& sink) override {
    HCSIM_CHECK(begin >= cursor_.position(), "KernelRecordStream: backward seek");
    if (begin > cursor_.position())
      note_forward_seek("rv-kernel", begin - cursor_.position());
    const rv::RvTraceInfo info = cursor_.pump_range(begin, end, sink);
    HCSIM_CHECK(info.error.empty(), "rv executor trapped: " + info.error);
  }

 private:
  rv::KernelStream stream_;
  rv::RvStreamCursor cursor_;  // borrows stream_: declared after it
};

}  // namespace

void note_forward_seek(const char* backend, u64 n_discard) {
  if (n_discard < kSeekWarnThreshold) return;
  log_warn_once(std::string("forward-seek:") + backend,
                std::string(backend) + " stream seek discarded " +
                    std::to_string(n_discard) +
                    " records (forward-only backend; consider a wider sampling "
                    "period)");
}

std::unique_ptr<RecordStream> open_trace_stream(const Trace& trace) {
  return std::make_unique<TraceRecordStream>(trace);
}

StreamFactory workload_stream_factory(const WorkloadProfile& profile, u64 n_records) {
  if (n_records <= stream_threshold()) {
    // CI-sized runs share the process-wide materialized trace (stable
    // reference for the process lifetime) — windows slice it for free.
    const Trace& trace = cached_trace(profile, n_records);
    return [&trace] { return open_trace_stream(trace); };
  }
  if (!profile.rv_kernel.empty()) {
    const std::string kernel = profile.rv_kernel;
    return [kernel]() -> std::unique_ptr<RecordStream> {
      return std::make_unique<KernelRecordStream>(kernel);
    };
  }
  const WorkloadProfile prof = profile;
  return [prof, n_records]() -> std::unique_ptr<RecordStream> {
    return std::make_unique<CursorRecordStream>(prof, n_records);
  };
}

}  // namespace hcsim::sample
