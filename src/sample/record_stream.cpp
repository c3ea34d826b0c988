#include "sample/record_stream.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace hcsim::sample {

namespace {

/// Discarding this many generated records to reach a range's begin logs a
/// one-shot warning via log_warn_once.
constexpr u64 kSeekWarnThreshold = 10'000'000;

void note_forward_seek(u64 n_discard) {
  if (n_discard < kSeekWarnThreshold) return;
  log_warn_once("forward-seek",
                "record stream seek discarded " + std::to_string(n_discard) +
                    " generated records (forward-only backend; consider a wider "
                    "sampling period)");
}

/// Forward-only ranges over any TraceCursor. A skip inside a chunk is an
/// index bump; a skip past it pulls the chunks in between, which a
/// generating backend computes only to throw away.
class CursorRecordStream final : public RecordStream {
 public:
  explicit CursorRecordStream(std::unique_ptr<TraceCursor> cursor)
      : cursor_(std::move(cursor)) {}

  const Program& program() const override { return cursor_->program(); }

  void feed_range(u64 begin, u64 end, const RecordSink& sink) override {
    HCSIM_CHECK(begin >= pos_, "CursorRecordStream: backward seek");
    const u64 seek_from = pos_;
    while (pos_ < end) {
      if (off_ == chunk_.size()) {
        chunk_ = cursor_->next_chunk();
        off_ = 0;
        if (chunk_.empty()) break;  // trace exhausted: deliver short
      }
      if (pos_ < begin) {
        const std::size_t skip = static_cast<std::size_t>(
            std::min<u64>(begin - pos_, chunk_.size() - off_));
        off_ += skip;
        pos_ += skip;
        continue;
      }
      sink(chunk_[off_++]);
      ++pos_;
    }
    if (cursor_->generates()) note_forward_seek(std::min(pos_, begin) - seek_from);
  }

 private:
  std::unique_ptr<TraceCursor> cursor_;
  std::span<const TraceRecord> chunk_;
  std::size_t off_ = 0;  // next record of chunk_
  u64 pos_ = 0;          // stream position of chunk_[off_]
};

}  // namespace

std::unique_ptr<RecordStream> open_cursor_stream(std::unique_ptr<TraceCursor> cursor) {
  return std::make_unique<CursorRecordStream>(std::move(cursor));
}

StreamFactory workload_stream_factory(const WorkloadProfile& profile, u64 n_records) {
  return [profile, n_records] {
    return open_cursor_stream(open_trace_cursor(profile, n_records));
  };
}

}  // namespace hcsim::sample
