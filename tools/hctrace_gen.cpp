// hctrace_gen — generate a workload trace and save it to disk.
//
// Usage:
//   hctrace_gen <profile> <n_uops> <out.hctrace> [seed]
//
// <profile> is a SPEC Int 2000 name (gcc, mcf, ...), "<category>:<index>"
// for a Table 2 application (e.g. "mm:17"), or "default" for the base
// profile. The optional decimal seed overrides the profile's seed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "trace/trace.hpp"
#include "util/log.hpp"
#include "wload/executor.hpp"
#include "wload/profile.hpp"

using namespace hcsim;

namespace {

bool resolve_profile(const std::string& name, WorkloadProfile& out) {
  if (name == "default") {
    out = WorkloadProfile{};
    out.name = "default";
    return true;
  }
  const auto colon = name.find(':');
  if (colon != std::string::npos) {
    const std::string cat_name = name.substr(0, colon);
    u64 index = 0;
    if (parse_u64(name.c_str() + colon + 1, index) != std::errc{}) return false;
    for (const WorkloadCategory& cat : workload_categories()) {
      if (cat.name == cat_name && index < cat.num_traces) {
        out = category_app_profile(cat, index);
        return true;
      }
    }
    return false;
  }
  for (const WorkloadProfile& p : spec_int_2000_profiles()) {
    if (p.name == name) {
      out = p;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <profile|cat:idx|default> <n_uops> <out.hctrace> [seed]\n",
                 argv[0]);
    return 2;
  }
  WorkloadProfile prof;
  if (!resolve_profile(argv[1], prof)) {
    std::fprintf(stderr, "unknown profile '%s'\n", argv[1]);
    return 2;
  }
  const u64 n = parse_flag_u64("n_uops", argv[2], 1);
  if (argc > 4) prof.seed = parse_flag_u64("seed", argv[4]);

  const Trace trace = generate_trace(prof, n);
  if (!save_trace(trace, argv[3])) {
    std::fprintf(stderr, "failed to write %s\n", argv[3]);
    return 1;
  }
  std::printf("%s: %zu uops (%zu static) -> %s\n", prof.name.c_str(),
              trace.records.size(), trace.program.uops.size(), argv[3]);
  return 0;
}
