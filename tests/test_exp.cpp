// Tests for the experiment-orchestration subsystem (src/exp/): grid
// expansion, the thread pool, the sweep plan, parallel-vs-serial result
// determinism, and the CSV/JSON report emitters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "sim/simulator.hpp"
#include "svc/protocol.hpp"

namespace hcsim::exp {
namespace {

SweepSpec tiny_sweep() {
  SweepSpec s;
  s.name = "tiny";
  s.workloads = {spec_profile("gcc"), spec_profile("gzip")};
  s.variants = {variant_from_steering(steering_888()),
                variant_from_steering(steering_888_br_lr_cr())};
  s.trace_lens = {4000};
  return s;
}

// --- grid expansion ---------------------------------------------------------

TEST(Sweep, ExpansionCountMatchesGrid) {
  SweepSpec s = tiny_sweep();
  s.seeds = {7, 11, 13};
  s.trace_lens = {2000, 4000};
  EXPECT_EQ(s.num_points(), 2u * 2u * 3u * 2u);
  const auto points = expand(s);
  EXPECT_EQ(points.size(), s.num_points());
}

TEST(Sweep, ExpansionIsWorkloadMajorAndIndexed) {
  SweepSpec s = tiny_sweep();
  s.seeds = {7, 11};
  const auto points = expand(s);
  ASSERT_EQ(points.size(), 8u);
  for (u32 i = 0; i < points.size(); ++i) EXPECT_EQ(points[i].index, i);
  // workload-major, then variant, then seed.
  EXPECT_EQ(points[0].profile.name, "gcc");
  EXPECT_EQ(points[0].variant.name, "8_8_8");
  EXPECT_EQ(points[0].profile.seed, 7u);
  EXPECT_EQ(points[1].profile.seed, 11u);
  EXPECT_EQ(points[2].variant.name, "8_8_8+BR+LR+CR");
  EXPECT_EQ(points[4].profile.name, "gzip");
  EXPECT_EQ(points[7].profile.name, "gzip");
  EXPECT_EQ(points[7].variant.name, "8_8_8+BR+LR+CR");
  EXPECT_EQ(points[7].profile.seed, 11u);
}

TEST(Sweep, EmptyDimensionsDefaultToOnePoint) {
  SweepSpec s = tiny_sweep();
  s.trace_lens.clear();  // -> default_trace_len()
  const auto points = expand(s);
  ASSERT_EQ(points.size(), 4u);
  for (const auto& p : points) {
    EXPECT_EQ(p.n_records, default_trace_len());
    // seed 0 placeholder keeps the profile's own seed.
    EXPECT_EQ(p.profile.seed, spec_profile(p.profile.name).seed);
  }
}

TEST(Sweep, NamedSweepsResolve) {
  for (const std::string& name : sweep_names()) {
    const auto spec = find_sweep(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_GT(spec->num_points(), 0u) << name;
  }
  EXPECT_FALSE(find_sweep("no-such-sweep").has_value());
  EXPECT_EQ(find_sweep("fig06")->num_points(), 12u);
  EXPECT_EQ(find_sweep("cumulative")->num_points(), 84u);
}

TEST(Sweep, BaselineVariantIsMonolithic) {
  const ConfigVariant v = variant_from_steering(steering_baseline());
  EXPECT_EQ(v.name, "baseline");
  EXPECT_FALSE(v.machine.steer.helper_enabled);
  const ConfigVariant h = variant_from_steering(steering_888());
  EXPECT_TRUE(h.machine.steer.helper_enabled);
  EXPECT_EQ(h.name, "8_8_8");
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.wait_idle();  // no jobs: returns immediately
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { ++count; });
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

// --- parallel_for and the sweep plan ----------------------------------------

TEST(Runner, ParallelForRunsEachIndexOnceOnAtMostNWorkers) {
  for (unsigned threads : {1u, 64u}) {
    std::mutex mu;
    std::vector<int> calls(3, 0);
    std::set<std::thread::id> workers;
    parallel_for(calls.size(), threads, [&](std::size_t i) {
      std::lock_guard<std::mutex> lock(mu);
      ++calls[i];
      workers.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(calls, std::vector<int>(3, 1));
    EXPECT_LE(workers.size(), calls.size());
    if (threads == 1) {
      EXPECT_EQ(*workers.begin(), std::this_thread::get_id());
    }
  }
  parallel_for(0, 8, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(Runner, PlanIsCellMajor) {
  SweepSpec spec = tiny_sweep();
  spec.seeds = {11, 12};
  const SweepPlan plan = plan_sweep(spec);
  ASSERT_EQ(plan.points.size(), 8u);  // 2 apps x 2 variants x 2 seeds
  const std::size_t cells = 2 * 2;    // (app, seed) pairs
  EXPECT_EQ(plan.jobs.size(), cells + plan.points.size());
  for (const ExperimentPoint& p : plan.points) {
    const SweepJob& base = plan.jobs[plan.baseline_job[p.index]];
    const SweepJob& var = plan.jobs[plan.variant_job[p.index]];
    EXPECT_LT(plan.baseline_job[p.index], plan.variant_job[p.index]) << p.index;
    EXPECT_TRUE(base.baseline);
    EXPECT_FALSE(var.baseline);
    EXPECT_EQ(var.point, p.index);
    EXPECT_EQ(plan.points[base.point].profile.seed, p.profile.seed);
    EXPECT_EQ(plan.points[base.point].workload_idx, p.workload_idx);
  }

  // The order hcsimd has always received from run_sweep_ft: walking the
  // points in index order, a cell's baseline job on first sight, then the
  // point's variant job, each job id kept at its first appearance.
  const auto id_of = [](const MachineConfig& config, const ExperimentPoint& p) {
    svc::JobRequest req;
    req.config = config;
    req.profile = p.profile;
    req.n_records = p.n_records;
    return svc::job_id(req);
  };
  std::vector<u64> submitted;
  const auto submit = [&submitted](u64 id) {
    if (std::find(submitted.begin(), submitted.end(), id) == submitted.end())
      submitted.push_back(id);
  };
  for (const ExperimentPoint& p : expand(spec)) {
    submit(id_of(spec.baseline, p));
    submit(id_of(p.variant.machine, p));
  }
  std::vector<u64> planned;
  for (const SweepJob& job : plan.jobs)
    planned.push_back(id_of(plan.config(job), plan.points[job.point]));
  EXPECT_EQ(planned, submitted);
}

// --- runner determinism -----------------------------------------------------

void expect_same_results(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const PointResult& pa = a.points[i];
    const PointResult& pb = b.points[i];
    EXPECT_EQ(pa.point.index, pb.point.index);
    EXPECT_EQ(pa.point.profile.name, pb.point.profile.name);
    EXPECT_EQ(pa.point.variant.name, pb.point.variant.name);
    EXPECT_TRUE(pa.sim == pb.sim);
    EXPECT_TRUE(pa.baseline == pb.baseline);
    EXPECT_DOUBLE_EQ(pa.power_sim.energy, pb.power_sim.energy);
    EXPECT_DOUBLE_EQ(pa.speedup(), pb.speedup());
  }
}

TEST(Runner, ParallelMatchesSerialAcrossThreadCounts) {
  const SweepSpec spec = tiny_sweep();
  RunOptions serial;
  serial.threads = 1;
  const SweepResult base = run_sweep(spec, serial);
  EXPECT_EQ(base.threads_used, 1u);
  for (unsigned threads : {2u, 4u, 8u}) {
    RunOptions par;
    par.threads = threads;
    const SweepResult r = run_sweep(spec, par);
    EXPECT_EQ(r.threads_used, threads);
    expect_same_results(base, r);
    // The full machine-readable reports must be byte-identical too.
    EXPECT_EQ(to_csv(base), to_csv(r));
  }
}

bool same_power(const PowerReport& a, const PowerReport& b) {
  return a.energy == b.energy && a.delay == b.delay && a.edp == b.edp &&
         a.ed2p == b.ed2p && a.frontend == b.frontend &&
         a.wide_backend == b.wide_backend && a.helper_backend == b.helper_backend &&
         a.memory == b.memory && a.clock == b.clock && a.copies == b.copies &&
         a.predictors == b.predictors;
}

TEST(Runner, ProgressCallbackSeesEveryPointExactlyOnce) {
  const SweepSpec spec = tiny_sweep();
  RunOptions opts;
  opts.threads = 4;
  std::set<u32> seen;
  std::vector<PointResult> reported;
  u64 last_total = 0, calls = 0;
  opts.on_point = [&](const PointResult& pr, u64 done, u64 total) {
    // Called under the runner's progress lock, so no synchronization needed.
    seen.insert(pr.point.index);
    reported.push_back(pr);
    ++calls;
    EXPECT_EQ(done, calls);  // done counts monotonically
    last_total = total;
  };
  const SweepResult r = run_sweep(spec, opts);
  EXPECT_EQ(calls, r.points.size());
  EXPECT_EQ(seen.size(), r.points.size());
  EXPECT_EQ(last_total, r.points.size());
  // What a callback sees is the finished point, not a partial one.
  ASSERT_EQ(reported.size(), r.points.size());
  for (const PointResult& pr : reported) {
    const PointResult& final_pr = r.points[pr.point.index];
    EXPECT_TRUE(pr.sim == final_pr.sim) << pr.point.index;
    EXPECT_TRUE(pr.baseline == final_pr.baseline) << pr.point.index;
    EXPECT_TRUE(same_power(pr.power_sim, final_pr.power_sim)) << pr.point.index;
    EXPECT_TRUE(same_power(pr.power_baseline, final_pr.power_baseline)) << pr.point.index;
  }
}

TEST(Runner, BaselineSharedAcrossVariantsOfOneApp) {
  const SweepResult r = run_sweep(tiny_sweep(), {});
  ASSERT_EQ(r.points.size(), 4u);
  // Same app, different variants -> identical baseline runs.
  EXPECT_EQ(r.points[0].baseline.final_tick, r.points[1].baseline.final_tick);
  EXPECT_EQ(r.points[2].baseline.final_tick, r.points[3].baseline.final_tick);
  // Sim results carry the steering scheme's config name.
  EXPECT_EQ(r.points[0].sim.config, "8_8_8");
  EXPECT_EQ(r.points[1].sim.config, "8_8_8+BR+LR+CR");
  EXPECT_EQ(r.points[0].baseline.config, "baseline");
}

// --- reporting --------------------------------------------------------------

TEST(Report, GeomeanAndMean) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0);  // non-positive input
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Report, SummaryGroupsByVariantInOrder) {
  const SweepResult r = run_sweep(tiny_sweep(), {});
  const auto summaries = summarize(r);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].config, "8_8_8");
  EXPECT_EQ(summaries[1].config, "8_8_8+BR+LR+CR");
  EXPECT_EQ(summaries[0].n_points, 2u);
  EXPECT_EQ(summaries[1].n_points, 2u);
  EXPECT_GT(summaries[0].geomean_speedup, 0.0);
  // Hand-check one aggregate.
  const double expected =
      geomean({r.points[0].speedup(), r.points[2].speedup()});
  EXPECT_DOUBLE_EQ(summaries[0].geomean_speedup, expected);
}

TEST(Report, CsvShapeAndHeader) {
  const SweepResult r = run_sweep(tiny_sweep(), {});
  const std::string csv = to_csv(r);
  // Header + one line per point.
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            1 + r.points.size());
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "app,config,seed,n_uops,baseline_wide_cycles,wide_cycles,speedup,"
            "perf_pct,wide_cycle_speedup,helper_pct,copy_pct,wp_accuracy_pct,"
            "energy_baseline,energy,edp_gain_pct,ed2p_gain_pct");
  EXPECT_NE(csv.find("\ngcc,8_8_8,"), std::string::npos);
  EXPECT_NE(csv.find("\ngzip,8_8_8+BR+LR+CR,"), std::string::npos);
  EXPECT_NE(csv.find(",4000,"), std::string::npos);  // n_uops column
}

TEST(Report, JsonContainsPointsAndSummary) {
  const SweepResult r = run_sweep(tiny_sweep(), {});
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"sweep\": \"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"points\": ["), std::string::npos);
  EXPECT_NE(json.find("\"summary\": ["), std::string::npos);
  EXPECT_NE(json.find("\"config\": \"8_8_8+BR+LR+CR\""), std::string::npos);
  EXPECT_NE(json.find("\"geomean_speedup\": "), std::string::npos);
  EXPECT_NE(json.find("\"mean_wide_cycle_speedup\": "), std::string::npos);
  // Every point appears.
  std::size_t apps = 0;
  for (std::size_t pos = 0; (pos = json.find("\"app\": ", pos)) != std::string::npos;
       ++pos)
    ++apps;
  EXPECT_EQ(apps, r.points.size());
}

TEST(Report, RenderSummaryMentionsEveryVariant) {
  const SweepResult r = run_sweep(tiny_sweep(), {});
  const std::string table = render_summary(r);
  EXPECT_NE(table.find("8_8_8"), std::string::npos);
  EXPECT_NE(table.find("8_8_8+BR+LR+CR"), std::string::npos);
  EXPECT_NE(table.find("perf+% (avg)"), std::string::npos);
}

}  // namespace
}  // namespace hcsim::exp
