// hcsim — hcsimd's listen/serve loop.
//
// Lifecycle (documented in docs/PROTOCOL.md):
//   1. bind + listen on a Unix-domain socket (stale socket files are
//      replaced);
//   2. accept one connection at a time — job batches are serialized by the
//      SweepService anyway, and the kernel backlog queues waiting clients;
//   3. per connection, answer frames until EOF, a framing error, or
//      `conn_idle_timeout_ms` of silence (semantic errors are answered with
//      kError and the connection survives);
//   4. exit on kShutdown, SIGINT/SIGTERM, or after `idle_timeout_ms` with no
//      client. Shutdown unlinks the socket.
#pragma once

#include <string>

#include "util/types.hpp"

namespace hcsim::svc {

struct DaemonOptions {
  std::string socket_path;
  /// Worker threads per job batch; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Exit after this long with nothing to do; 0 = run until kShutdown or a
  /// signal.
  u64 idle_timeout_ms = 0;
  /// Drop a connection that sends nothing for this long, so one idle client
  /// cannot starve the accept loop (connections are served one at a time).
  /// 0 disables the limit.
  u64 conn_idle_timeout_ms = 60000;
  /// Non-empty: persist completed kRunJobs results to
  /// `<journal_dir>/daemon.journal` and recover them on startup, so a
  /// crashed daemon serves re-submitted jobs from disk instead of
  /// recomputing (docs/PROTOCOL.md, "Job ids and the journal").
  std::string journal_dir;
};

/// Run the daemon until shutdown. Returns a process exit code.
int run_daemon(const DaemonOptions& opts);

}  // namespace hcsim::svc
