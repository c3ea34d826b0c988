#include "util/log.hpp"

#include <cctype>
#include <cerrno>
#include <mutex>
#include <set>

namespace hcsim {

bool log_warn_once(const std::string& key, const std::string& msg) {
  static std::mutex mu;
  static std::set<std::string>* seen = new std::set<std::string>();  // leaked: process-lifetime
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!seen->insert(key).second) return false;
  }
  std::fprintf(stderr, "hcsim warning: %s\n", msg.c_str());
  return true;
}

std::errc parse_u64(const char* s, u64& out, u64 lo, u64 hi) {
  if (!*s) return std::errc::invalid_argument;
  for (const char* p = s; *p; ++p)
    if (!std::isdigit(static_cast<unsigned char>(*p))) return std::errc::invalid_argument;
  errno = 0;
  out = std::strtoull(s, nullptr, 10);
  if (errno == ERANGE || out < lo || out > hi) return std::errc::result_out_of_range;
  return std::errc{};
}

u64 parse_flag_u64(const char* flag, const char* s, u64 lo, u64 hi) {
  u64 v = 0;
  const std::errc e = parse_u64(s, v, lo, hi);
  if (e == std::errc{}) return v;
  // v >= hi: above `hi`, or past 2^64-1 (v then reads 2^64-1).
  if (e == std::errc::result_out_of_range && v >= hi) {
    std::fprintf(stderr, "%s: %s exceeds the limit of %llu\n", flag, s,
                 static_cast<unsigned long long>(hi));
  } else if (hi == std::numeric_limits<u64>::max()) {
    std::fprintf(stderr, "%s: bad value '%s' (integer >= %llu required)\n", flag, s,
                 static_cast<unsigned long long>(lo));
  } else {
    std::fprintf(stderr, "%s: bad value '%s' (integer from %llu to %llu required)\n",
                 flag, s, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
  }
  std::exit(2);
}

}  // namespace hcsim
