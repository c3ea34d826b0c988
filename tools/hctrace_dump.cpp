// hctrace_dump — inspect a saved trace: program disassembly, width
// statistics, and the first dynamic records.
//
// Usage:
//   hctrace_dump <trace.hctrace> [n_records]
#include <cstdio>
#include <cstdlib>

#include "analysis/trace_stats.hpp"
#include "trace/trace.hpp"
#include "util/narrow.hpp"

using namespace hcsim;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <trace.hctrace> [n_records]\n", argv[0]);
    return 2;
  }
  Trace trace;
  if (!load_trace(trace, argv[1])) {
    std::fprintf(stderr, "failed to load %s\n", argv[1]);
    return 1;
  }
  u64 show = 16;
  if (argc > 2 && parse_u64(argv[2], show) != std::errc{}) {
    std::fprintf(stderr, "n_records must be a non-negative integer\n");
    return 2;
  }

  std::printf("trace '%s': %zu dynamic uops, %zu static uops, seed %llu\n\n",
              trace.program.name.c_str(), trace.records.size(),
              trace.program.uops.size(),
              static_cast<unsigned long long>(trace.seed));

  std::printf("-- static program --\n");
  for (u32 pc = 0; pc < trace.program.uops.size() && pc < 64; ++pc) {
    const StaticUop& u = trace.program.uops[pc];
    std::printf("%4u: %-28s", pc, disassemble(u).c_str());
    if (is_branch(u.opcode)) std::printf(" -> %u", trace.program.target_of(pc));
    std::printf("\n");
  }
  if (trace.program.uops.size() > 64)
    std::printf("  ... %zu more\n", trace.program.uops.size() - 64);

  const auto nd = narrow_dependency_stats(trace);
  const auto cs = carry_stats(trace);
  const auto ds = producer_consumer_distance(trace);
  std::printf("\n-- width character --\n");
  std::printf("narrow-dependent operands : %.1f%%\n",
              nd.operands_narrow_dependent.percent());
  std::printf("carry confined arith/load : %.1f%% / %.1f%%\n",
              cs.arith_confined.percent(), cs.load_confined.percent());
  std::printf("producer-consumer distance: %.2f uops\n", ds.mean());

  std::printf("\n-- first %llu records --\n", static_cast<unsigned long long>(show));
  for (u64 i = 0; i < show && i < trace.records.size(); ++i) {
    const TraceRecord& r = trace.records[i];
    const StaticUop& u = trace.uop_of(r);
    std::printf("%6llu pc=%-4u %-24s", static_cast<unsigned long long>(i), r.pc,
                disassemble(u).c_str());
    if (u.has_dst())
      std::printf(" = %08X%s", r.result, is_narrow8(r.result) ? " (narrow)" : "");
    if (is_memory(u.opcode)) std::printf(" @%08X", r.mem_addr);
    if (is_branch(u.opcode)) std::printf(" %s", r.taken ? "taken" : "not-taken");
    std::printf("\n");
  }
  return 0;
}
