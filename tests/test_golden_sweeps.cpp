// Golden determinism: the hot-path rewrite (enum-indexed counters,
// ring-buffer schedulers, streaming traces) must hold every paper statistic
// bit-identical to the pre-refactor simulator. The embedded CSVs were
// captured from the seed implementation (std::map counters + std::set
// ledgers); the fig06/fig12/rv named sweeps must reproduce them
// byte-for-byte, serially and in parallel. The cumulative golden was
// captured later from the separate-structure scheduler (see its comment in
// golden_sweep_data.inc) and pins the fused engine's monotonic rename; the
// helper_design golden pins the non-power-of-two clock ratio.
#include <gtest/gtest.h>

#include "bbcache/bb_cache.hpp"
#include "core/pipeline.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "power/power_model.hpp"
#include "sim/simulator.hpp"
#include "wload/executor.hpp"
#include "wload/profile.hpp"

#include "golden_sweep_data.inc"

namespace hcsim::exp {
namespace {

constexpr u64 kGoldenTraceLen = 4000;  // the length the goldens were captured at

std::string sweep_csv(const std::string& name, unsigned threads) {
  auto spec = find_sweep(name);
  EXPECT_TRUE(spec.has_value()) << name;
  spec->trace_lens = {kGoldenTraceLen};
  RunOptions opts;
  opts.threads = threads;
  return to_csv(run_sweep(*spec, opts));
}

TEST(GoldenSweeps, Fig06MatchesSeedSerial) {
  EXPECT_EQ(sweep_csv("fig06", 1), kGolden_fig06);
}

TEST(GoldenSweeps, Fig06MatchesSeedThreaded) {
  EXPECT_EQ(sweep_csv("fig06", 4), kGolden_fig06);
}

TEST(GoldenSweeps, Fig12MatchesSeedSerial) {
  EXPECT_EQ(sweep_csv("fig12", 1), kGolden_fig12);
}

TEST(GoldenSweeps, Fig12MatchesSeedThreaded) {
  EXPECT_EQ(sweep_csv("fig12", 4), kGolden_fig12);
}

TEST(GoldenSweeps, RvMatchesSeedSerial) {
  EXPECT_EQ(sweep_csv("rv", 1), kGolden_rv);
}

TEST(GoldenSweeps, RvMatchesSeedThreaded) {
  EXPECT_EQ(sweep_csv("rv", 4), kGolden_rv);
}

TEST(GoldenSweeps, CumulativeMatchesSeedSerial) {
  EXPECT_EQ(sweep_csv("cumulative", 1), kGolden_cumulative);
}

TEST(GoldenSweeps, CumulativeMatchesSeedThreaded) {
  EXPECT_EQ(sweep_csv("cumulative", 4), kGolden_cumulative);
}

TEST(GoldenSweeps, HelperDesignMatchesSerial) {
  EXPECT_EQ(sweep_csv("helper_design", 1), kGolden_helper_design);
}

TEST(GoldenSweeps, HelperDesignMatchesThreaded) {
  EXPECT_EQ(sweep_csv("helper_design", 4), kGolden_helper_design);
}

// The decode cache must be output-invisible: a Pipeline with a disabled
// DecodeCache (every record re-cracked through the same feed_record) must
// produce the same SimResult as a cache-on one. Only the bb_cache_*
// counters, which describe the cache itself, may differ, so they are zeroed.
SimResult run_with_cache(const MachineConfig& cfg, const Trace& t, bool cache_on) {
  DecodeCache cache(cache_on);
  Pipeline p(cfg, t.program, &cache);
  p.feed(std::span<const TraceRecord>(t.records));
  SimResult r = p.finish();
  for (const Counter c :
       {Counter::kBbCacheHits, Counter::kBbCacheMisses, Counter::kBbCacheInvalidations})
    r.counters[c] = 0;
  return r;
}

/// The named sweep at the golden length, every point and its baseline run
/// with the decode cache disabled, rendered like sweep_csv(). Each cache-off
/// SimResult must also equal the cache-on one under ==.
std::string cache_off_sweep_csv(const std::string& name, unsigned threads) {
  auto spec = find_sweep(name);
  EXPECT_TRUE(spec.has_value()) << name;
  if (!spec) return {};
  spec->trace_lens = {kGoldenTraceLen};
  const std::vector<ExperimentPoint> points = expand(*spec);
  SweepResult result;
  result.points.resize(points.size());
  auto run_point = [&](const ExperimentPoint& p) {
    const Trace& t = cached_trace(p.profile, p.n_records);
    PointResult& pr = result.points[p.index];
    pr.point = p;
    pr.baseline = run_with_cache(spec->baseline, t, false);
    pr.sim = run_with_cache(p.variant.machine, t, false);
    pr.power_baseline = analyze_power(pr.baseline, spec->baseline);
    pr.power_sim = analyze_power(pr.sim, p.variant.machine);
    EXPECT_TRUE(pr.sim == run_with_cache(p.variant.machine, t, true))
        << name << " " << p.profile.name << " " << p.variant.name;
    if (p.variant_idx == 0) {
      EXPECT_TRUE(pr.baseline == run_with_cache(spec->baseline, t, true))
          << name << " " << p.profile.name << " baseline";
    }
  };
  parallel_for(points.size(), threads, [&](std::size_t i) { run_point(points[i]); });
  return to_csv(result);
}

// Cache-off runs reproduce the goldens byte-for-byte, and match cache-on at
// every point and on every baseline.
TEST(GoldenSweeps, Fig06MatchesSeedCacheDisabled) {
  EXPECT_EQ(cache_off_sweep_csv("fig06", 1), kGolden_fig06);
}

TEST(GoldenSweeps, Fig12MatchesSeedCacheDisabled) {
  EXPECT_EQ(cache_off_sweep_csv("fig12", 1), kGolden_fig12);
}

TEST(GoldenSweeps, RvMatchesSeedCacheDisabledThreaded) {
  EXPECT_EQ(cache_off_sweep_csv("rv", 4), kGolden_rv);
}

// The cumulative sweep runs every steering-ladder rung, so it crosses every
// invalidation edge between configs.
TEST(GoldenSweeps, CumulativeCacheOnOffIdentical) {
  EXPECT_EQ(cache_off_sweep_csv("cumulative", 1), kGolden_cumulative);
}

// The NREADY range probes behind the goldens must classify every gap
// exactly: a nonzero truncation count means the GC horizon clipped a probe
// and the imbalance statistics silently degraded to a lower bound.
TEST(GoldenSweeps, HelperSweepHasNoNreadyTruncation) {
  const Trace t = generate_trace(spec_profile("gcc"), 30000);
  const SimResult r = simulate(helper_machine(steering_888()), t);
  EXPECT_EQ(r.counters[Counter::kNreadyTruncations], 0u);
}

}  // namespace
}  // namespace hcsim::exp
