// hcsimd — persistent simulation service.
//
// Keeps the process-wide trace cache and config registry warm across job
// batches and runs each job batch on up to --threads workers. Clients speak the
// length-prefixed framed protocol of docs/PROTOCOL.md over a Unix-domain
// socket; `hcsim_sweep --connect <sock>` is the reference client.
//
// Usage:
//   hcsimd --socket PATH [--threads N] [--idle-timeout-ms N]
//          [--conn-idle-timeout-ms N] [--journal-dir DIR]
//
// --threads 0 (default) sizes each batch's workers to the hardware. With
// --idle-timeout-ms the daemon exits by itself once it has had no client
// for that long; shutdown unlinks the socket. --conn-idle-timeout-ms
// (default 60000, 0 = off) drops a connection that sends nothing for that
// long so an idle client cannot starve waiting ones. --journal-dir
// persists every completed kRunJobs result to DIR/daemon.journal and
// recovers it on restart, so a crashed daemon serves re-submitted jobs from
// disk instead of recomputing them (docs/PROTOCOL.md, "Job ids and the
// journal").
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "svc/daemon.hpp"
#include "util/log.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--threads N] [--idle-timeout-ms N]\n"
               "       [--conn-idle-timeout-ms N] [--journal-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hcsim::svc::DaemonOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      opts.socket_path = next();
    } else if (arg == "--threads") {
      opts.threads =
          static_cast<unsigned>(hcsim::parse_flag_u64("--threads", next(), 0, 4096));
    } else if (arg == "--idle-timeout-ms") {
      opts.idle_timeout_ms = hcsim::parse_flag_u64("--idle-timeout-ms", next());
    } else if (arg == "--conn-idle-timeout-ms") {
      opts.conn_idle_timeout_ms =
          hcsim::parse_flag_u64("--conn-idle-timeout-ms", next());
    } else if (arg == "--journal-dir") {
      opts.journal_dir = next();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (opts.socket_path.empty()) return usage(argv[0]);
  return hcsim::svc::run_daemon(opts);
}
