// End-to-end integration tests: the paper's qualitative claims must hold on
// generated workloads at reduced trace lengths.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "sim/simulator.hpp"

namespace hcsim {
namespace {

constexpr u64 kLen = 40000;

// The cumulative ladder's variant order (exp::cumulative_scheme_variants).
enum Scheme : std::size_t { k888, kBr, kBrLr, kBrLrCr, kCp, kIr, kIrNodest, kNumSchemes };

// The cumulative grid (12 SPEC apps x the 7-scheme ladder) at kLen µops,
// simulated once per process and read by every test below.
const exp::SweepResult& cumulative() {
  static const exp::SweepResult kResult = [] {
    exp::SweepSpec spec = *exp::find_sweep("cumulative");
    spec.trace_lens = {kLen};
    return exp::run_sweep(spec);
  }();
  return kResult;
}

const exp::PointResult& point(const std::string& app, Scheme scheme) {
  const auto& apps = spec_int_2000_profiles();
  const auto it = std::find_if(apps.begin(), apps.end(),
                               [&](const WorkloadProfile& p) { return p.name == app; });
  const auto a = static_cast<std::size_t>(it - apps.begin());
  return cumulative().points.at(a * kNumSchemes + scheme);
}

// One variant over `workloads` at the given trace lengths.
exp::SweepResult run_one_variant(std::vector<WorkloadProfile> workloads,
                                 exp::ConfigVariant variant, std::vector<u64> lens) {
  exp::SweepSpec spec;
  spec.workloads = std::move(workloads);
  spec.variants = {std::move(variant)};
  spec.trace_lens = std::move(lens);
  return exp::run_sweep(spec);
}

TEST(Integration, AllSchemesRunAllApps) {
  ASSERT_EQ(cumulative().points.size(), spec_int_2000_profiles().size() * kNumSchemes);
  for (const exp::PointResult& pr : cumulative().points) {
    EXPECT_EQ(pr.sim.uops, kLen) << pr.point.profile.name << " " << pr.sim.config;
    EXPECT_GT(pr.sim.final_tick, 0u);
  }
}

TEST(Integration, SteeredFractionGrowsAcrossSchemes) {
  // Paper: 15% (8-8-8) -> 19.5% (BR) -> 47.5% (CR). Check monotone growth
  // for the stacking that adds steering rules.
  const double s888 = point("gcc", k888).sim.helper_frac();
  const double sbr = point("gcc", kBr).sim.helper_frac();
  const double scr = point("gcc", kBrLrCr).sim.helper_frac();
  EXPECT_GT(sbr, s888);
  EXPECT_GT(scr, sbr);
}

TEST(Integration, BrAndLrReduceCopyFraction) {
  // Figures 8 and 9.
  int br_wins = 0, lr_wins = 0;
  for (const char* app : {"gcc", "gzip", "parser", "twolf"}) {
    br_wins += point(app, kBr).sim.copy_frac() < point(app, k888).sim.copy_frac();
    lr_wins += point(app, kBrLr).sim.copy_frac() < point(app, kBr).sim.copy_frac();
  }
  EXPECT_GE(br_wins, 3);
  EXPECT_GE(lr_wins, 3);
}

TEST(Integration, HelperClusterWinsOnAverage) {
  // The headline: the helper cluster speeds up SPEC Int (paper: +22% best
  // scheme). Demand a clearly positive geomean for the IR-family configs.
  std::vector<double> speedups;
  for (const auto& prof : spec_int_2000_profiles())
    speedups.push_back(point(prof.name, kIrNodest).speedup());
  EXPECT_GT(exp::geomean(speedups), 1.05);
}

TEST(Integration, LaterSchemesBeatPlain888OnAverage) {
  std::vector<double> s888, scr;
  for (const auto& prof : spec_int_2000_profiles()) {
    s888.push_back(point(prof.name, k888).speedup());
    scr.push_back(point(prof.name, kBrLrCr).speedup());
  }
  EXPECT_GT(exp::geomean(scr), exp::geomean(s888));
}

TEST(Integration, FatalMispredictionsStayRare) {
  // Paper: 0.83% of instructions with the confidence estimator.
  for (const char* app : {"gcc", "gzip", "perlbmk"})
    EXPECT_LT(point(app, kCp).sim.fatal_rate(), 0.02) << app;
}

TEST(Integration, ConfidenceEstimatorCutsFatalMispredictions) {
  // Section 3.2: 2.11% -> 0.83% when adding the 2-bit confidence estimator.
  const std::vector<const char*> apps = {"gcc", "gzip", "perlbmk", "twolf"};
  std::vector<WorkloadProfile> workloads;
  for (const char* app : apps) workloads.push_back(spec_profile(app));
  exp::ConfigVariant off = exp::variant_from_steering(steering_888());
  off.machine.wpred.use_confidence = false;
  const exp::SweepResult without = run_one_variant(workloads, off, {kLen});
  double with_conf = 0, without_conf = 0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    with_conf += point(apps[i], k888).sim.fatal_rate();
    without_conf += without.points[i].sim.fatal_rate();
  }
  EXPECT_LT(with_conf, without_conf);
}

TEST(Integration, WidthPredictionAccuracyHigh) {
  // Paper Figure 5: ~93.5% average correct predictions.
  for (const char* app : {"gcc", "twolf", "vpr"})
    EXPECT_GT(point(app, k888).sim.wp_accuracy(), 0.85) << app;
}

TEST(Integration, ImbalanceShapeMatchesPaper) {
  // Section 3.7: before IR, wide-to-narrow imbalance dominates
  // narrow-to-wide by an order of magnitude.
  double w2n = 0, n2w = 0;
  for (const auto& prof : spec_int_2000_profiles()) {
    w2n += point(prof.name, kBrLr).sim.nready_w2n_pct();
    n2w += point(prof.name, kBrLr).sim.nready_n2w_pct();
  }
  EXPECT_GT(w2n, 3.0 * n2w);
}

TEST(Integration, MemoryBoundAppGainsLeast) {
  // mcf is memory bound: its speedup must sit well below the suite's best.
  double best = 0;
  for (const auto& prof : spec_int_2000_profiles())
    best = std::max(best, point(prof.name, kIr).perf_increase_pct());
  EXPECT_LT(point("mcf", kIr).perf_increase_pct(), best / 2.0);
}

TEST(Integration, ScalesWithTraceLength) {
  // Results at 20k and 60k µops agree in direction (shape stability).
  const exp::SweepResult r = run_one_variant(
      {spec_profile("gcc")}, exp::variant_from_steering(steering_ir()), {20000, 60000});
  ASSERT_EQ(r.points.size(), 2u);
  EXPECT_GT(r.points[0].speedup(), 1.0);
  EXPECT_GT(r.points[1].speedup(), 1.0);
}

TEST(Integration, CategoryAppsSimulateEndToEnd) {
  // One app from each Table 2 family.
  std::vector<WorkloadProfile> workloads;
  for (const auto& cat : workload_categories())
    workloads.push_back(category_app_profile(cat, 0));
  const exp::SweepResult r =
      run_one_variant(workloads, exp::variant_from_steering(steering_ir()), {15000});
  for (const exp::PointResult& pr : r.points) {
    EXPECT_EQ(pr.sim.uops, 15000u) << pr.point.profile.name;
    EXPECT_GT(pr.speedup(), 0.7) << pr.point.profile.name;
  }
}

}  // namespace
}  // namespace hcsim
