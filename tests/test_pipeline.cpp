// Integration tests for the clustered pipeline model using hand-built
// traces with known dataflow, plus invariants on generated workloads.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "util/narrow.hpp"
#include "wload/executor.hpp"
#include "wload/profile.hpp"

namespace hcsim {
namespace {

// Build a trace directly (program + records) so every value is controlled.
struct TraceBuilder {
  Trace trace;

  u32 emit(StaticUop u, TraceRecord r, u32 target = 0) {
    u.pc = static_cast<u32>(trace.program.uops.size());
    r.pc = u.pc;
    trace.program.uops.push_back(u);
    trace.program.branch_targets.push_back(target);
    trace.records.push_back(r);
    return u.pc;
  }

  void movi(RegId d, u32 imm) {
    StaticUop u;
    u.opcode = Opcode::kMovImm;
    u.dst = d;
    u.has_imm = true;
    u.imm = imm;
    TraceRecord r;
    r.result = imm;
    emit(u, r);
  }

  void add(RegId d, RegId a, RegId b, u32 va, u32 vb) {
    StaticUop u;
    u.opcode = Opcode::kAdd;
    u.dst = d;
    u.srcs = {a, b, kRegNone};
    TraceRecord r;
    r.src_vals = {va, vb, 0};
    r.result = va + vb;
    r.flags_val = va + vb;
    emit(u, r);
  }

  /// Repeat the same record stream n times: models a loop body revisiting
  /// its static µops, which is what lets the predictors warm up.
  void repeat_all(unsigned n) {
    const auto base_records = trace.records;
    for (unsigned i = 1; i < n; ++i)
      trace.records.insert(trace.records.end(), base_records.begin(),
                           base_records.end());
  }

  /// Append one more dynamic instance of an existing static µop.
  void redo(u32 pc, TraceRecord r) {
    r.pc = pc;
    trace.records.push_back(r);
  }
};

MachineConfig baseline() { return monolithic_baseline(); }

TEST(Pipeline, NreadyClassifiesWaitingUopsWithoutTruncation) {
  // Wide-valued independent adds are helper-capable but steer wide; six
  // dispatch per wide cycle against an issue width of three, so some sit
  // ready-but-unissued while the helper cluster idles: textbook NREADY
  // w2n events. The ring-ledger range probe classifies every gap exactly —
  // the old 64-sample stepping loop recorded nothing past its cap, which
  // the truncation counter now makes observable (and must stay zero here).
  TraceBuilder tb;
  tb.movi(kRegEax, 0x123456);  // wide value
  for (int i = 0; i < 40; ++i)
    tb.add(kRegEbx, kRegEax, kRegEax, 0x123456, 0x123456);
  const SimResult r = simulate(helper_machine(steering_888()), tb.trace);
  EXPECT_GT(r.nready_w2n, 0u);
  EXPECT_EQ(r.counters[Counter::kNreadyTruncations], 0u);
}

TEST(Pipeline, CommitsEveryUop) {
  TraceBuilder tb;
  tb.movi(kRegEax, 1);
  tb.movi(kRegEbx, 2);
  tb.add(kRegEcx, kRegEax, kRegEbx, 1, 2);
  const SimResult r = simulate(baseline(), tb.trace);
  EXPECT_EQ(r.uops, 3u);
  EXPECT_GT(r.final_tick, 0u);
  EXPECT_EQ(r.counters[Counter::kCommitted], 3u);
}

TEST(Pipeline, BaselineUsesNoHelperResources) {
  const Trace t = generate_trace(spec_profile("gcc"), 20000);
  const SimResult r = simulate(baseline(), t);
  EXPECT_EQ(r.to_helper, 0u);
  EXPECT_EQ(r.copies, 0u);
  EXPECT_EQ(r.split_uops, 0u);
  EXPECT_EQ(r.counters[Counter::kIssueHelper], 0u);
  EXPECT_EQ(r.nready_w2n, 0u);
}

TEST(Pipeline, SteeringPartitionInvariant) {
  const Trace t = generate_trace(spec_profile("gcc"), 20000);
  const SimResult r = simulate(helper_machine(steering_ir()), t);
  // Every committed µop ran in exactly one backend.
  EXPECT_EQ(r.to_helper + r.to_wide + r.counters[Counter::kIssueFp], r.uops);
}

TEST(Pipeline, DeterministicRuns) {
  const Trace t = generate_trace(spec_profile("twolf"), 20000);
  const SimResult a = simulate(helper_machine(steering_ir()), t);
  const SimResult b = simulate(helper_machine(steering_ir()), t);
  EXPECT_TRUE(a == b);
}

TEST(Pipeline, IpcBoundedByMachineWidths) {
  const Trace t = generate_trace(spec_profile("gcc"), 20000);
  const MachineConfig cfg = baseline();
  const SimResult r = simulate(cfg, t);
  EXPECT_LE(r.ipc, static_cast<double>(cfg.commit_width));
  EXPECT_GT(r.ipc, 0.0);
}

TEST(Pipeline, DependentChainSlowerThanIndependentOps) {
  // A chain of dependent adds must take at least one wide cycle each on the
  // baseline; independent adds pack 3 per cycle.
  TraceBuilder chain;
  chain.movi(kRegEax, 1);
  for (int i = 0; i < 60; ++i) chain.add(kRegEax, kRegEax, kRegEax, 1, 1);

  TraceBuilder indep;
  indep.movi(kRegEax, 1);
  for (int i = 0; i < 60; ++i)
    indep.add(static_cast<RegId>(kRegT0 + (i % 6)), kRegEax, kRegEax, 1, 1);

  const SimResult rc = simulate(baseline(), chain.trace);
  const SimResult ri = simulate(baseline(), indep.trace);
  EXPECT_GT(rc.final_tick, ri.final_tick);
}

TEST(Pipeline, HelperAcceleratesNarrowChain) {
  // A dependent narrow chain inside a "loop" (repeated pcs, so the width
  // predictor gains confidence) finishes faster on the 2x-clocked helper.
  TraceBuilder tb;
  tb.movi(kRegEax, 1);
  for (int i = 0; i < 20; ++i) tb.add(kRegEax, kRegEax, kRegEax, 1, 1);
  tb.repeat_all(30);
  const SimResult base = simulate(baseline(), tb.trace);
  const SimResult helper = simulate(helper_machine(steering_888()), tb.trace);
  EXPECT_LT(helper.final_tick, base.final_tick);
  EXPECT_GT(helper.to_helper, 300u);
}

TEST(Pipeline, WideValuesDoNotSteerTo888) {
  TraceBuilder tb;
  tb.movi(kRegEax, 0x10000);  // wide
  for (int i = 0; i < 50; ++i) tb.add(kRegEbx, kRegEax, kRegEax, 0x10000, 0x10000);
  const SimResult r = simulate(helper_machine(steering_888()), tb.trace);
  EXPECT_EQ(r.to_helper, 0u);
}

TEST(Pipeline, CrossClusterDependencyGeneratesCopies) {
  // narrow producers (helper) feeding a wide computation -> copies.
  TraceBuilder tb;
  tb.movi(kRegEax, 3);                                // narrow -> helper
  tb.movi(kRegEbx, 0x123456);                         // wide   -> wide
  tb.add(kRegEax, kRegEax, kRegEax, 3, 3);            // helper (once warm)
  tb.add(kRegEcx, kRegEbx, kRegEax, 0x123456, 6);     // wide, needs eax
  tb.repeat_all(40);
  const SimResult r = simulate(helper_machine(steering_888()), tb.trace);
  EXPECT_GT(r.to_helper, 0u);
  EXPECT_GT(r.copies, 0u);
  EXPECT_GT(r.copies_n2w, 0u);
}

TEST(Pipeline, FpProducerFeedsIntegerConsumerThroughCopyPort) {
  // An integer µop reading an FP result needs a copy out of the FP backend,
  // which has copy ports like the other two. Each FpAdd redefines F0, so
  // every consumer instance pays exactly one FP→int copy — on the baseline
  // and on a helper machine alike (the wide values keep the consumer off
  // the helper).
  TraceBuilder tb;
  StaticUop fadd;
  fadd.opcode = Opcode::kFpAdd;
  fadd.dst = kRegF0;
  fadd.srcs = {kRegF0, kRegF0, kRegNone};
  TraceRecord fr;
  fr.src_vals = {0x3F800000u, 0x3F800000u, 0};
  fr.result = 0x40000000u;
  tb.emit(fadd, fr);
  tb.add(kRegEax, kRegF0, kRegEax, 0x40000000u, 0x12345678u);
  tb.repeat_all(500);
  for (const MachineConfig& cfg : {baseline(), helper_machine(steering_888())}) {
    const SimResult r = simulate(cfg, tb.trace);
    EXPECT_EQ(r.uops, 1000u);
    EXPECT_EQ(r.copies, 500u);
  }
}

TEST(Pipeline, FatalWidthMispredictionFlushesAndResteers) {
  // Train a pc as narrow, then produce a wide value at the same pc: the µop
  // is steered to the helper on a confident narrow prediction and must be
  // squashed and re-executed wide.
  TraceBuilder tb;
  StaticUop u;
  u.opcode = Opcode::kAdd;
  u.dst = kRegEax;
  u.srcs = {kRegEbx, kRegEcx, kRegNone};
  TraceRecord narrow;
  narrow.src_vals = {1, 2, 0};
  narrow.result = 3;
  narrow.flags_val = 3;
  const u32 pc = tb.emit(u, narrow);
  // 30 narrow instances of the same static µop to build confidence...
  for (int i = 0; i < 30; ++i) tb.redo(pc, narrow);
  // ...then an instance whose result is wide (sources still narrow so the
  // 8-8-8 rule fires on prediction, and the result violates).
  TraceRecord wide;
  wide.src_vals = {100, 200, 0};
  wide.result = 0x12345;
  wide.flags_val = 0x12345;
  tb.redo(pc, wide);

  const SimResult r = simulate(helper_machine(steering_888()), tb.trace);
  EXPECT_GE(r.wp_fatal, 1u);
  EXPECT_GE(r.counters[Counter::kFlushRefills], 1u);
}

TEST(Pipeline, FlushPenaltyCostsTime) {
  // Same trace with and without a width-violating tail instance: the
  // violating version must pay at least a frontend refill.
  auto make = [](bool violate) {
    TraceBuilder tb;
    StaticUop u;
    u.opcode = Opcode::kAdd;
    u.dst = kRegEax;
    u.srcs = {kRegEbx, kRegEcx, kRegNone};
    TraceRecord r;
    r.src_vals = {1, 2, 0};
    r.result = 3;
    const u32 pc = tb.emit(u, r);
    for (int i = 0; i < 30; ++i) tb.redo(pc, r);
    if (violate) r.result = 0x55555;  // wide: fatal in the helper
    tb.redo(pc, r);
    return tb.trace;
  };
  const SimResult rc = simulate(helper_machine(steering_888()), make(false));
  const SimResult rv = simulate(helper_machine(steering_888()), make(true));
  const MachineConfig cfg = helper_machine(steering_888());
  EXPECT_GE(rv.final_tick,
            rc.final_tick + cfg.frontend_depth * cfg.ticks_per_wide_cycle);
}

TEST(Pipeline, BranchMispredictionCostsTime) {
  // A data-dependent 50/50 branch stream vs an always-taken stream.
  auto make = [](bool alternate) {
    TraceBuilder tb;
    StaticUop cmp;
    cmp.opcode = Opcode::kTest;
    cmp.srcs = {kRegEax, kRegEax, kRegNone};
    StaticUop br;
    br.opcode = Opcode::kBranchCond;
    br.srcs = {kRegFlags, kRegNone, kRegNone};
    br.has_imm = true;
    br.imm = kCondEq;
    u32 x = 12345;
    for (int i = 0; i < 300; ++i) {
      TraceRecord rc;
      rc.src_vals = {1, 1, 0};
      rc.flags_val = 1;
      tb.emit(cmp, rc);
      TraceRecord rb;
      x = x * 1103515245 + 12345;
      rb.taken = alternate ? ((x >> 16) & 1) : false;
      tb.emit(br, rb, 0);
    }
    return tb.trace;
  };
  const SimResult predictable = simulate(baseline(), make(false));
  const SimResult random = simulate(baseline(), make(true));
  EXPECT_GT(random.final_tick, predictable.final_tick);
  EXPECT_GT(random.branch_mispredicts, predictable.branch_mispredicts);
}

TEST(Pipeline, RobLimitsInFlightWork) {
  // With a tiny ROB the same trace takes longer (less overlap).
  const Trace t = generate_trace(spec_profile("gcc"), 10000);
  MachineConfig small = baseline();
  small.rob_entries = 8;
  const SimResult rs = simulate(small, t);
  const SimResult rb = simulate(baseline(), t);
  EXPECT_GT(rs.final_tick, rb.final_tick);
}

TEST(Pipeline, NarrowIqThrottlesIssue) {
  const Trace t = generate_trace(spec_profile("gcc"), 10000);
  MachineConfig tiny = baseline();
  tiny.iq_wide = 4;
  const SimResult rt = simulate(tiny, t);
  const SimResult rb = simulate(baseline(), t);
  EXPECT_GT(rt.final_tick, rb.final_tick);
}

TEST(Pipeline, MemoryLatencySlowsExecution) {
  // mcf's pointer chase serializes loads, so cache/memory latency is on the
  // critical path.
  const Trace t = generate_trace(spec_profile("mcf"), 10000);
  MachineConfig slow = baseline();
  slow.mem.dl0.size_bytes = 1024;  // thrash DL0
  slow.mem.ul1.size_bytes = 64 * 1024;
  slow.mem.main_memory_cycles = 2000;
  const SimResult rs = simulate(slow, t);
  const SimResult rb = simulate(baseline(), t);
  EXPECT_GT(rs.final_tick, rb.final_tick);
}

TEST(Pipeline, LrReplicatesByteLoads) {
  const Trace t = generate_trace(spec_profile("gzip"), 30000);
  const SimResult no_lr = simulate(helper_machine(steering_888_br()), t);
  const SimResult lr = simulate(helper_machine(steering_888_br_lr()), t);
  EXPECT_GT(lr.replicated_loads, 0u);
  EXPECT_LT(lr.copies, no_lr.copies);
}

TEST(Pipeline, CrSteersMixedWidthWork) {
  const Trace t = generate_trace(spec_profile("gcc"), 30000);
  const SimResult no_cr = simulate(helper_machine(steering_888_br_lr()), t);
  const SimResult cr = simulate(helper_machine(steering_888_br_lr_cr()), t);
  EXPECT_GT(cr.cr_steered, 0u);
  EXPECT_GT(cr.to_helper, no_cr.to_helper);
}

TEST(Pipeline, CpGeneratesPrefetchesWithMeasuredAccuracy) {
  const Trace t = generate_trace(spec_profile("gcc"), 30000);
  const SimResult cp = simulate(helper_machine(steering_cp()), t);
  EXPECT_GT(cp.copy_prefetches, 0u);
  EXPECT_EQ(cp.cp_useful + cp.cp_wasted, cp.copy_prefetches);
  // The last-value copy predictor should be mostly useful (paper: ~90%).
  EXPECT_GT(static_cast<double>(cp.cp_useful) /
                static_cast<double>(cp.copy_prefetches),
            0.5);
}

TEST(Pipeline, IrSplitsProduceChunksAndCopies) {
  const Trace t = generate_trace(spec_profile("parser"), 30000);
  const SimResult ir = simulate(helper_machine(steering_ir()), t);
  EXPECT_GT(ir.split_uops, 0u);
  EXPECT_EQ(ir.chunk_uops, 4 * ir.split_uops);
}

TEST(Pipeline, IrNodestProducesFewerCopiesThanFullIr) {
  const Trace t = generate_trace(spec_profile("parser"), 30000);
  const SimResult full = simulate(helper_machine(steering_ir()), t);
  const SimResult nodest = simulate(helper_machine(steering_ir_nodest()), t);
  EXPECT_LE(nodest.copies, full.copies);
}

TEST(Pipeline, BrSteersBranchesAndCutsCopies) {
  const Trace t = generate_trace(spec_profile("gcc"), 30000);
  const SimResult p888 = simulate(helper_machine(steering_888()), t);
  const SimResult br = simulate(helper_machine(steering_888_br()), t);
  EXPECT_EQ(p888.br_steered, 0u);
  EXPECT_GT(br.br_steered, 0u);
  EXPECT_LT(br.copy_frac(), p888.copy_frac());
}

TEST(Pipeline, ClockRatioOneRemovesHelperSpeedAdvantage) {
  TraceBuilder tb;
  tb.movi(kRegEax, 1);
  for (int i = 0; i < 15; ++i) tb.add(kRegEax, kRegEax, kRegEax, 1, 1);
  tb.repeat_all(25);
  MachineConfig same_clock = helper_machine(steering_888());
  same_clock.ticks_per_wide_cycle = 1;
  MachineConfig fast = helper_machine(steering_888());
  const SimResult r1 = simulate(same_clock, tb.trace);
  const SimResult r2 = simulate(fast, tb.trace);
  // 2x helper clock must beat 1x on a dependence-bound narrow chain.
  // (final_tick is in ticks of different length; compare wide cycles.)
  EXPECT_LT(r2.wide_cycles, r1.wide_cycles);
}


TEST(Pipeline, BlockSplittingCutsCopyBacksVsFullIr) {
  // Section 3.7's proposed extension: sending whole blocks of split work to
  // the helper avoids the per-split 4-copy result prefetch, so at equal or
  // higher split counts the block variant generates fewer copies per split.
  const Trace t = generate_trace(spec_profile("parser"), 30000);
  const SimResult full = simulate(helper_machine(steering_ir()), t);
  const SimResult block = simulate(helper_machine(steering_ir_block()), t);
  ASSERT_GT(full.split_uops, 0u);
  ASSERT_GT(block.split_uops, 0u);
  const double full_cps = static_cast<double>(full.copies) /
                          static_cast<double>(full.split_uops);
  const double block_cps = static_cast<double>(block.copies) /
                           static_cast<double>(block.split_uops);
  EXPECT_LT(block_cps, full_cps);
}

TEST(Pipeline, BlockSplittingRecruitsExtraSplits) {
  const Trace t = generate_trace(spec_profile("parser"), 30000);
  const SimResult full = simulate(helper_machine(steering_ir()), t);
  const SimResult block = simulate(helper_machine(steering_ir_block()), t);
  EXPECT_GE(block.split_uops + block.counters[Counter::kBlockSplits],
            full.split_uops);
}

TEST(Pipeline, SpeedupVsComputesRatio) {
  SimResult base, fast;
  base.final_tick = 2000;
  fast.final_tick = 1000;
  EXPECT_DOUBLE_EQ(fast.speedup_vs(base), 2.0);
}

TEST(Pipeline, EmptyTraceIsHarmless) {
  Trace t;
  t.program.name = "empty";
  t.program.uops.push_back(StaticUop{});
  t.program.branch_targets.push_back(0);
  const SimResult r = simulate(baseline(), t);
  EXPECT_EQ(r.uops, 0u);
  EXPECT_EQ(r.final_tick, 0u);
}

}  // namespace
}  // namespace hcsim
