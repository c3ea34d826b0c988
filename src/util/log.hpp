// hcsim — assertion and environment helpers.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <system_error>

#include "util/types.hpp"

namespace hcsim {

[[noreturn]] inline void fatal(const char* file, int line, const std::string& msg) {
  std::fprintf(stderr, "hcsim fatal: %s:%d: %s\n", file, line, msg.c_str());
  std::abort();
}

/// Simulator invariant check: enabled in all build types — a cycle-level
/// model that silently corrupts state produces plausible-looking wrong
/// numbers, which is worse than crashing.
#define HCSIM_CHECK(cond, msg)                              \
  do {                                                      \
    if (!(cond)) ::hcsim::fatal(__FILE__, __LINE__, (msg)); \
  } while (0)

/// One-shot stderr warning: the first call per `key` prints and returns
/// true, every later call is a silent no-op (returns false). Used for
/// diagnostics that would otherwise spam a sweep — e.g. the O(begin) cost of
/// a large forward-only stream seek (ROADMAP item 3) is reported once per
/// process instead of once per window. Thread-safe; the returned flag lets
/// tests observe the once-latch directly.
bool log_warn_once(const std::string& key, const std::string& msg);

/// Strict decimal parse shared by env_u64 and every CLI integer option.
/// Accepts bare digits only — the C library parser alone would also take
/// whitespace, '+', base prefixes and '-' (turning "-1" into 2^64-1). Returns
/// invalid_argument for anything else, result_out_of_range for a value
/// above 2^64-1 or outside [lo, hi], and errc{} on success. Whenever `s` is
/// bare digits `out` receives its value (2^64-1 on overflow), so a caller
/// can tell a value above `hi` from one below `lo`.
std::errc parse_u64(const char* s, u64& out, u64 lo = 0,
                    u64 hi = std::numeric_limits<u64>::max());

/// Read an environment-variable override (used by benches and the sampling
/// layer to scale runs without recompiling). Malformed values are fatal:
/// an override that silently truncates ("100k" -> 100, "1e8" -> 1) or wraps
/// on overflow would quietly run the wrong experiment, which is worse than
/// stopping. Only plain non-negative decimal integers are accepted.
inline u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  u64 parsed = 0;
  const std::errc e = parse_u64(v, parsed);
  if (e == std::errc::invalid_argument)
    fatal(__FILE__, __LINE__,
          std::string(name) + ": malformed value '" + v +
              "' (non-negative decimal integer required)");
  if (e != std::errc{})
    fatal(__FILE__, __LINE__, std::string(name) + ": value '" + v + "' does not fit in 64 bits");
  return parsed;
}

}  // namespace hcsim
