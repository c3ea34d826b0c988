// Streaming trace interface: chunk-wise record delivery must be invisible —
// the generated stream, and every statistic the pipeline derives from it,
// is bit-identical to the materialized-vector path.
#include <gtest/gtest.h>

#include "rv/kernels.hpp"
#include "sim/simulator.hpp"
#include "wload/program_gen.hpp"

namespace hcsim {
namespace {

constexpr u64 kLen = 20000;

bool records_equal(const TraceRecord& a, const TraceRecord& b) {
  return a.pc == b.pc && a.src_vals == b.src_vals && a.result == b.result &&
         a.flags_val == b.flags_val && a.mem_addr == b.mem_addr && a.taken == b.taken;
}

TEST(Streaming, CursorReproducesExecuteProgram) {
  const WorkloadProfile& prof = spec_profile("gcc");
  const Program program = generate_program(prof);
  const Trace trace = execute_program(program, prof, kLen);

  // An odd chunk size exercises chunk-boundary state carry-over.
  ProgramTraceCursor cursor(program, prof, kLen, /*chunk_records=*/777);
  u64 i = 0;
  for (auto chunk = cursor.next_chunk(); !chunk.empty(); chunk = cursor.next_chunk()) {
    for (const TraceRecord& rec : chunk) {
      ASSERT_LT(i, trace.records.size());
      ASSERT_TRUE(records_equal(rec, trace.records[i])) << "record " << i;
      ++i;
    }
  }
  EXPECT_EQ(i, trace.records.size());
}

TEST(Streaming, KernelStreamReproducesKernelTrace) {
  const Trace trace = rv::kernel_trace("crc32", kLen);
  const rv::KernelStream stream = rv::open_kernel_stream("crc32");
  ASSERT_EQ(stream.cracked.program.uops.size(), trace.program.uops.size());

  u64 i = 0;
  stream.pump(kLen, [&](const TraceRecord& rec) {
    ASSERT_LT(i, trace.records.size());
    ASSERT_TRUE(records_equal(rec, trace.records[i])) << "record " << i;
    ++i;
  });
  EXPECT_EQ(i, trace.records.size());
}

TEST(Streaming, SimulateStreamedMatchesMaterialized) {
  const WorkloadProfile& prof = spec_profile("bzip2");
  for (const MachineConfig& cfg :
       {monolithic_baseline(), helper_machine(steering_ir())}) {
    const SimResult materialized = simulate(cfg, cached_trace(prof, kLen));
    const SimResult streamed = simulate(cfg, *open_workload_cursor(prof, kLen));
    EXPECT_TRUE(materialized == streamed);
  }
}

TEST(Streaming, SimulateStreamedMatchesMaterializedRvKernel) {
  const WorkloadProfile prof = rv::rv_workload_profile("strlen");
  const MachineConfig cfg = helper_machine(steering_888_br_lr_cr());
  const SimResult materialized = simulate(cfg, cached_trace(prof, kLen));
  const SimResult streamed = simulate(cfg, *open_workload_cursor(prof, kLen));
  EXPECT_TRUE(materialized == streamed);
}

TEST(Streaming, SimulateWorkloadRoutesByThreshold) {
  // Below the threshold simulate_workload must agree with the cached path;
  // the streaming equivalence above makes the two branches interchangeable.
  const WorkloadProfile& prof = spec_profile("mcf");
  const MachineConfig cfg = monolithic_baseline();
  EXPECT_TRUE(simulate_workload(cfg, prof, kLen) ==
              simulate(cfg, cached_trace(prof, kLen)));
}

TEST(Streaming, ThresholdBoundaryIsInvisible) {
  // open_trace_cursor routes exactly stream_threshold() records to the
  // cached trace and one more to a streaming cursor. The RV kernel halts
  // long before either length, so both routes deliver the same records and
  // must match the materialized simulation bit-for-bit — the boundary may
  // change memory behavior, never results.
  const WorkloadProfile prof = rv::rv_workload_profile("crc32");
  const MachineConfig cfg = helper_machine(steering_ir());
  const SimResult materialized =
      simulate(cfg, rv::kernel_trace("crc32", stream_threshold()));
  for (u64 len : {stream_threshold(), stream_threshold() + 1}) {
    EXPECT_EQ(open_trace_cursor(prof, len)->generates(), len > stream_threshold())
        << "len " << len;
    EXPECT_TRUE(materialized == simulate_workload(cfg, prof, len)) << "len " << len;
  }
}

}  // namespace
}  // namespace hcsim
