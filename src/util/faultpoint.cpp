#include "util/faultpoint.hpp"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#include "util/log.hpp"

namespace hcsim::fault {

namespace {

struct Entry {
  std::string key;  // point name, optionally domain-qualified
  u64 nth = 1;      // 1-based hit index of the first failure
  u64 count = 1;    // failures injected; 0 = every hit from nth on
};

struct State {
  std::mutex mu;
  std::vector<Entry> entries;
  std::map<std::string, u64> hits;
};

// Armed flag outside the mutex: fire() call sites sit on per-syscall paths
// and must cost one relaxed load when fault injection is off (the normal
// case for every production run).
std::atomic<bool> g_armed{false};

State& state() {
  static State s;
  return s;
}

thread_local const char* t_domain = nullptr;

bool entry_triggers(const Entry& e, u64 hit) {
  if (hit < e.nth) return false;
  return e.count == 0 || hit < e.nth + e.count;
}

/// Parse "<key>:<nth>[:<count>]". Aborts on malformed input: a fault test
/// whose schedule silently fails to arm would pass without testing anything.
Entry parse_entry(const std::string& item) {
  const auto c1 = item.find(':');
  HCSIM_CHECK(c1 != std::string::npos && c1 > 0,
              "HCSIM_FAULT entry needs <point>:<nth>: " + item);
  Entry e;
  e.key = item.substr(0, c1);
  const auto c2 = item.find(':', c1 + 1);
  const std::string nth_s =
      c2 == std::string::npos ? item.substr(c1 + 1) : item.substr(c1 + 1, c2 - c1 - 1);
  HCSIM_CHECK(parse_u64(nth_s.c_str(), e.nth, 1) == std::errc{},
              "HCSIM_FAULT nth must be a positive integer: " + item);
  if (c2 != std::string::npos) {
    HCSIM_CHECK(parse_u64(item.substr(c2 + 1).c_str(), e.count) == std::errc{},
                "HCSIM_FAULT count must be an integer: " + item);
  }
  return e;
}

}  // namespace

bool enabled() { return g_armed.load(std::memory_order_relaxed); }

bool fire(const char* point) {
  if (!enabled()) return false;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.entries.empty()) return false;
  const u64 hit = ++s.hits[point];
  u64 domain_hit = 0;
  std::string qualified;
  if (t_domain != nullptr) {
    qualified = std::string(t_domain) + "." + point;
    domain_hit = ++s.hits[qualified];
  }
  for (const Entry& e : s.entries) {
    if (e.key == point && entry_triggers(e, hit)) return true;
    if (!qualified.empty() && e.key == qualified && entry_triggers(e, domain_hit))
      return true;
  }
  return false;
}

u64 hits(const std::string& key) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.hits.find(key);
  return it == s.hits.end() ? 0 : it->second;
}

void set_schedule(const std::string& schedule) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.entries.clear();
  s.hits.clear();
  for (std::size_t pos = 0; pos < schedule.size();) {
    auto comma = schedule.find(',', pos);
    if (comma == std::string::npos) comma = schedule.size();
    if (comma > pos) s.entries.push_back(parse_entry(schedule.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  g_armed.store(!s.entries.empty(), std::memory_order_relaxed);
}

void reload_from_env() {
  const char* env = std::getenv("HCSIM_FAULT");
  set_schedule(env != nullptr ? env : "");
}

ScopedDomain::ScopedDomain(const char* domain) : prev_(t_domain) {
  t_domain = domain;
}

ScopedDomain::~ScopedDomain() { t_domain = prev_; }

}  // namespace hcsim::fault
