// hcsim — durable job journal: append-only, checksummed, torn-tail safe.
//
// Both ends of the fault-tolerant sweep path persist finished jobs here:
// hcsimd (--journal-dir) so a crashed/restarted daemon serves re-submitted
// jobs from disk instead of recomputing them, and hcsim_sweep
// (--journal-dir) so a killed client resumes with only the missing
// remainder. A journal file is
//
//   [u32 magic "HCJ1"] [u32 file version]
//   repeated: [u32 len] [u32 crc32(payload)] [payload]
//
// where payload = [u64 job_id][canonical SimResult encoding]
// (svc/protocol.hpp codecs). Records are written with a single write(2), so
// a SIGKILL can only tear the final record; open() scans the file, keeps
// every record whose length and CRC check out, truncates the torn/corrupt
// tail, and reopens for append. Determinism makes replays free: a job id is
// a content hash of the simulation inputs, so a journaled result is THE
// result, byte-exact.
//
// Thread safety: lookup/append/counters take an internal mutex — the
// service appends from concurrent batch workers.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "core/sim_result.hpp"
#include "util/types.hpp"

namespace hcsim::svc {

class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open (creating if absent) and recover a journal file. False with
  /// error() when the path is unusable or holds a foreign file (bad magic —
  /// never truncate what we did not write). A recovered torn tail is NOT an
  /// error: dropped_bytes() reports it and the journal is usable.
  bool open(const std::string& path);

  bool valid() const;
  const std::string& error() const { return error_; }
  const std::string& path() const { return path_; }

  /// Fetch a completed job's result. Counts toward hits() on success.
  bool lookup(u64 job_id, SimResult& out);
  bool contains(u64 job_id) const;

  /// Persist one completed job (no-op overwrite if the id is already
  /// journaled). False when the write fails — the journal then disables
  /// itself (failed()) rather than risk a half-written log mid-file.
  bool append(u64 job_id, const SimResult& result);

  std::size_t size() const;
  /// Results served by lookup() since open — the dedupe counter the
  /// fault-matrix tests assert on.
  u64 hits() const;
  /// Records recovered from disk by open().
  u64 recovered() const;
  /// Torn/corrupt tail bytes truncated by open().
  u64 dropped_bytes() const;

 private:
  bool append_locked(u64 job_id, const SimResult& result);

  mutable std::mutex mu_;
  int fd_ = -1;
  bool failed_ = false;
  std::string path_;
  std::string error_;
  std::map<u64, SimResult> results_;
  u64 hits_ = 0;
  u64 recovered_ = 0;
  u64 dropped_bytes_ = 0;
};

/// CRC-32 (IEEE 802.3, poly 0xEDB88320) over a byte buffer — the journal's
/// record checksum. Exposed for tests that forge corrupt records.
u32 crc32(const u8* data, std::size_t n);

}  // namespace hcsim::svc
