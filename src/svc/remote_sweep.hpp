// hcsim — fault-tolerant sweep execution over the hcsimd job protocol.
//
// run_sweep_ft() takes the job list of exp::plan_sweep() — the same plan
// exp::run_sweep() runs, in the same order — turns each job into a
// content-addressed request (job_id of svc/protocol.hpp, deduplicated), then
// drains them through up to three layers, cheapest first:
//   1. the client journal (`<journal_dir>/client.journal`) — jobs a previous
//      run of this process already completed cost nothing;
//   2. the daemon, in batched kRunJobs frames, reconnecting with capped
//      exponential backoff whenever the transport dies mid-batch (the daemon
//      journals the remainder, so the re-submission is served from disk);
//   3. an in-process fallback that computes only the still-missing jobs on
//      exp::parallel_for() when the daemon stays unreachable (disable with
//      allow_fallback = false).
// Every result, whatever layer produced it, is appended to the client
// journal before use, and points are assembled by exp::make_point_result().
// Because each job is a pure function of its request, the assembled
// SweepResult — and therefore exp::to_csv() — is byte-identical to an
// uninterrupted in-process run no matter how many times the daemon or the
// connection died along the way.
#pragma once

#include <functional>
#include <string>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "sample/spec.hpp"
#include "util/types.hpp"

namespace hcsim::svc {

struct FtSweepOptions {
  /// Daemon socket. Empty = skip the remote layer entirely (journaled local
  /// run: still dedupes against the client journal).
  std::string socket_path;
  /// Directory for the client journal. Empty = no client-side durability.
  std::string journal_dir;
  /// Threads for the in-process fallback; 0 = hardware concurrency,
  /// 1 = serial.
  unsigned threads = 1;
  /// Connect attempts per (re)connect cycle, and the cap on consecutive
  /// zero-progress reconnect cycles before the remote layer is abandoned.
  unsigned retries = 5;
  /// Backoff between connect attempts: min(cap, base << (attempt-1)) plus
  /// deterministic jitter.
  u64 backoff_base_ms = 100;
  u64 backoff_cap_ms = 5000;
  /// Per-frame client deadline, in ms; -1 blocks forever.
  int timeout_ms = -1;
  /// When the daemon stays unreachable: true = compute the remainder
  /// in-process, false = fail with kTransportFailed.
  bool allow_fallback = true;
  /// Sampling spec applied to every job (one sweep = one spec); disabled
  /// unless `measure` > 0. An enabled spec needs warmup > 0, because the wire
  /// reads warmup 0 as the default warm-up (docs/PROTOCOL.md).
  sample::SampleSpec sample;
  /// Progress / retry diagnostics (the CLI wires this to stderr). Null = quiet.
  std::function<void(const std::string&)> log;
};

/// Where the work actually happened, for logging and the recovery tests.
struct FtSweepStats {
  u64 jobs = 0;                 // unique jobs in the expanded sweep
  u64 client_journal_hits = 0;  // served from the local journal, no I/O
  u64 daemon_journal_hits = 0;  // daemon replied from_journal
  u64 remote_jobs = 0;          // results received over the socket
  u64 local_jobs = 0;           // computed by the in-process fallback
  u64 reconnects = 0;           // successful connects beyond the first
  u64 connect_attempts = 0;     // every ::connect tried, failed or not
};

enum class FtStatus {
  kOk,
  /// Transport exhausted and fallback disabled — the sweep is incomplete
  /// (completed jobs are still in the client journal for the next attempt).
  kTransportFailed,
  /// The daemon rejected the batch outright (version skew, malformed spec) —
  /// retrying cannot help.
  kBadSpec,
};

/// Execute `spec` fault-tolerantly. On kOk, `out` matches exp::run_sweep()
/// of the same spec with `opts.sample` active bit-for-bit (wall_seconds
/// aside). kBadSpec (no job submitted) for an inconsistent
/// sample spec or an enabled one with warmup 0.
FtStatus run_sweep_ft(const exp::SweepSpec& spec, const FtSweepOptions& opts,
                      exp::SweepResult& out, FtSweepStats& stats,
                      std::string& error);

}  // namespace hcsim::svc
