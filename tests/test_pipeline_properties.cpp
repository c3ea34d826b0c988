// Property tests: pipeline invariants that must hold for every workload and
// every steering configuration (parameterized sweep).
#include <gtest/gtest.h>

#include <tuple>

#include "sim/simulator.hpp"

namespace hcsim {
namespace {

constexpr u64 kLen = 8000;

using Param = std::tuple<std::string, std::string>;  // app, scheme

SteeringConfig scheme(const std::string& s) {
  if (s == "888") return steering_888();
  if (s == "cr") return steering_888_br_lr_cr();
  if (s == "ir") return steering_ir();
  return steering_ir_block();
}

class PipelineInvariants : public ::testing::TestWithParam<Param> {
 protected:
  const SimResult& result() {
    const auto& [app, sch] = GetParam();
    static std::map<Param, SimResult> cache;
    auto it = cache.find(GetParam());
    if (it == cache.end()) {
      const Trace& t = cached_trace(spec_profile(app), kLen);
      it = cache.emplace(GetParam(), simulate(helper_machine(scheme(sch)), t)).first;
    }
    return it->second;
  }
};

TEST_P(PipelineInvariants, EveryUopCommitsExactlyOnce) {
  const SimResult& r = result();
  EXPECT_EQ(r.uops, kLen);
  EXPECT_EQ(r.counters[Counter::kCommitted], kLen);
}

TEST_P(PipelineInvariants, BackendPartition) {
  const SimResult& r = result();
  EXPECT_EQ(r.to_helper + r.to_wide + r.counters[Counter::kIssueFp], r.uops);
}

TEST_P(PipelineInvariants, ChunksAreFourPerSplit) {
  const SimResult& r = result();
  EXPECT_EQ(r.chunk_uops, 4 * r.split_uops);
}

TEST_P(PipelineInvariants, CopyDirectionsSumToTotal) {
  const SimResult& r = result();
  EXPECT_EQ(r.copies_w2n + r.copies_n2w, r.copies);
}

TEST_P(PipelineInvariants, WidthClassificationExhaustive) {
  const SimResult& r = result();
  // Every width-tracked µop is classified exactly once; the classified
  // population cannot exceed the committed count.
  EXPECT_LE(r.wp_correct + r.wp_nonfatal + r.wp_fatal, r.uops);
  EXPECT_GT(r.wp_correct, 0u);
}

TEST_P(PipelineInvariants, TimeAndIpcSane) {
  const SimResult& r = result();
  EXPECT_GT(r.final_tick, 0u);
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_LE(r.ipc, 6.0);  // commit width (Table 1)
  // At most commit_width µops commit per wide cycle.
  EXPECT_GE(r.wide_cycles * 6.0 + 6.0, static_cast<double>(r.uops));
}

TEST_P(PipelineInvariants, PrefetchAccountingConsistent) {
  const SimResult& r = result();
  EXPECT_EQ(r.cp_useful + r.cp_wasted, r.copy_prefetches);
  EXPECT_LE(r.copy_prefetches, r.copies);
}

TEST_P(PipelineInvariants, BranchCountsMatchTrace) {
  const auto& [app, sch] = GetParam();
  const Trace& t = cached_trace(spec_profile(app), kLen);
  u64 branches = 0;
  for (const TraceRecord& rec : t.records)
    branches += t.uop_of(rec).opcode == Opcode::kBranchCond ? 1 : 0;
  EXPECT_EQ(result().branches, branches);
  EXPECT_LE(result().branch_mispredicts, branches);
}

TEST_P(PipelineInvariants, HitRatesAreProbabilities) {
  const SimResult& r = result();
  EXPECT_GE(r.dl0_hit_rate, 0.0);
  EXPECT_LE(r.dl0_hit_rate, 1.0);
  EXPECT_GE(r.ul1_hit_rate, 0.0);
  EXPECT_LE(r.ul1_hit_rate, 1.0);
}

TEST_P(PipelineInvariants, FatalMispredictionsBounded) {
  // With confidence gating, fatal flushes stay a small fraction of µops.
  const SimResult& r = result();
  EXPECT_LT(r.fatal_rate(), 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AppsTimesSchemes, PipelineInvariants,
    ::testing::Combine(::testing::Values("bzip2", "crafty", "eon", "gap", "gcc",
                                         "gzip", "mcf", "parser", "perlbmk",
                                         "twolf", "vortex", "vpr"),
                       ::testing::Values("888", "cr", "ir", "irblock")),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      return std::get<0>(param_info.param) + "_" + std::get<1>(param_info.param);
    });

}  // namespace
}  // namespace hcsim
