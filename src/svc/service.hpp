// hcsim — the job engine behind hcsimd.
//
// One SweepService lives for the daemon's lifetime. Each kRunJobs batch runs
// on exp::parallel_for() with up to the configured thread count; every job
// is a pure function of its request (machine config, trace, sample spec),
// so batches need no lock and one batch may mix sample specs. The payoff of
// the persistent process is the process-wide trace cache staying warm: a
// repeated (workload, seed, len) cell reuses the cached trace instead of
// regenerating it.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "svc/journal.hpp"
#include "svc/protocol.hpp"

namespace hcsim::svc {

class SweepService {
 public:
  /// `threads` caps the workers of each batch; 0 = hardware concurrency.
  /// A non-empty `journal_dir` persists every completed job to
  /// `<journal_dir>/daemon.journal` and recovers completed results on
  /// construction — journal_error() reports an unusable journal (the
  /// service still runs, just without durability).
  explicit SweepService(unsigned threads, const std::string& journal_dir = "");

  /// How one kRunJobs batch went.
  struct BatchOutcome {
    u64 completed = 0;
    u64 journal_hits = 0;  // jobs served from the journal, not recomputed
    /// The result stream died mid-batch (on_result returned false) — a
    /// transport failure the caller must not answer as a semantic error.
    bool stream_lost = false;
  };

  /// Run a batch of self-contained jobs, each under its own resolved sample
  /// spec. Journaled jobs are served from the journal (from_journal set);
  /// fresh results are appended to it before `on_result` streams them out.
  /// `on_result` is called from batch workers but serialized (never
  /// concurrently); returning false (client gone) stops the stream —
  /// remaining jobs still simulate and journal, so the work survives for the
  /// re-submission. Returns false with a diagnostic on a bad version, a zero
  /// n_records or an inconsistent sample spec anywhere in the batch (before
  /// any result is sent), or on a dead result stream — never aborts on
  /// request content. Safe to call from several threads at once. Jobs and
  /// `on_result` run in the calling thread's fault domain. Fault point:
  /// "job.abort" fires before each fresh simulation and abort()s the
  /// process — the crash the journal exists to survive.
  bool run_jobs(const std::vector<JobRequest>& reqs,
                const std::function<bool(const JobResponse&)>& on_result,
                BatchOutcome& outcome, std::string& error);

  /// Worker threads per batch (resolved; at least 1).
  unsigned threads() const { return threads_; }
  /// Non-empty when a requested journal could not be opened.
  const std::string& journal_error() const { return journal_error_; }
  /// Journal state for startup logging and tests.
  const Journal& journal() const { return journal_; }

 private:
  unsigned threads_;
  Journal journal_;
  std::string journal_error_;
};

}  // namespace hcsim::svc
