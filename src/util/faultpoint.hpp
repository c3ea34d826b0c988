// hcsim — deterministic fault injection.
//
// Robustness claims ("kill the daemon at any job boundary and the sweep CSV
// is still byte-identical") are only testable if failures are reproducible.
// A FaultPoint is a named site compiled into a failure-prone path — socket
// reads/writes, journal appends, the job loop — that normally does nothing
// and costs one relaxed atomic load. A schedule string arms points to fire
// on exact hit counts:
//
//   HCSIM_FAULT=<point>:<nth>[:<count>][,<point>:<nth>[:<count>]...]
//
//   sock.write.reset:5      the 5th write fails with ECONNRESET
//   sock.read.eintr:1:20    reads 1..20 take a simulated EINTR first
//   job.abort:7             the service abort()s before running its 7th job
//   journal.append.torn:3:0 every append from the 3rd on writes a torn record
//
// `nth` is 1-based; `count` defaults to 1 and 0 means "every hit from nth
// on". Hits are counted per schedule key, so one schedule can aim at several
// points independently.
//
// Domains scope a point to one side of an in-process client/daemon pair:
// a thread inside `ScopedDomain d("daemon")` matches both "sock.write.reset"
// and "daemon.sock.write.reset" entries, and the domain-qualified key keeps
// its own hit counter (counting only that domain's traffic). Tests that host
// the daemon in a thread use this to sever the daemon side of a socket
// without perturbing the client side.
#pragma once

#include <string>

#include "util/types.hpp"

namespace hcsim::fault {

/// True when any schedule entry is armed. The disarmed fast path is one
/// relaxed atomic load — cheap enough for per-syscall call sites.
bool enabled();

/// Count a hit on `point` and return true when the schedule says this hit
/// fails. Always false when no schedule is armed.
bool fire(const char* point);

/// Hits recorded for a schedule key ("sock.write.reset" counts every domain;
/// "daemon.sock.write.reset" counts only hits under that domain). Counting
/// starts when a schedule arms the key — 0 when disarmed.
u64 hits(const std::string& key);

/// Arm a schedule (same syntax as HCSIM_FAULT); "" disarms and clears every
/// hit counter. Aborts on a malformed schedule — a fault test that silently
/// injects nothing would pass vacuously.
void set_schedule(const std::string& schedule);

/// set_schedule(getenv("HCSIM_FAULT") or ""). Call once at process/daemon
/// start; tests drive set_schedule directly.
void reload_from_env();

/// This thread's domain (nullptr outside every ScopedDomain), so work handed
/// to another thread can run in its caller's domain.
const char* current_domain();

/// Tag every fire() on this thread with a domain for the current scope.
class ScopedDomain {
 public:
  explicit ScopedDomain(const char* domain);
  ~ScopedDomain();
  ScopedDomain(const ScopedDomain&) = delete;
  ScopedDomain& operator=(const ScopedDomain&) = delete;

 private:
  const char* prev_;
};

}  // namespace hcsim::fault
