#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

#include "core/pipeline.hpp"
#include "sim/simulator.hpp"

namespace hcsim::exp {

// --- the sweep plan and its runner -----------------------------------------

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The first exception a call throws stops the hand-out of indices and is
  // rethrown once every worker has joined, as the inline loop would throw it.
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        next = n;
      }
    }
  };
  {
    const std::size_t n_workers = std::min<std::size_t>(threads, n);
    std::vector<std::jthread> workers;  // joined on scope exit, throw or not
    workers.reserve(n_workers);
    while (workers.size() < n_workers) workers.emplace_back(work);
  }
  if (error) std::rethrow_exception(error);
}

unsigned resolve_threads(unsigned requested) {
  return requested != 0 ? requested : std::max(1u, std::thread::hardware_concurrency());
}

SweepPlan plan_sweep(const SweepSpec& spec) {
  SweepPlan plan;
  plan.baseline = spec.baseline;
  plan.points = expand(spec);
  plan.baseline_job.resize(plan.points.size());
  plan.variant_job.resize(plan.points.size());
  std::map<std::tuple<u32, u32, u32>, u32> cell_baseline;  // cell -> job
  for (const ExperimentPoint& p : plan.points) {
    const auto key = std::make_tuple(p.workload_idx, p.seed_idx, p.len_idx);
    const auto [it, first] = cell_baseline.emplace(key, static_cast<u32>(plan.jobs.size()));
    if (first) plan.jobs.push_back({p.index, true});
    plan.baseline_job[p.index] = it->second;
    plan.variant_job[p.index] = static_cast<u32>(plan.jobs.size());
    plan.jobs.push_back({p.index, false});
  }
  return plan;
}

PointResult make_point_result(const ExperimentPoint& point,
                              const MachineConfig& baseline_machine,
                              SimResult baseline, SimResult sim) {
  PointResult pr;
  pr.point = point;
  pr.power_baseline = analyze_power(baseline, baseline_machine);
  pr.power_sim = analyze_power(sim, point.variant.machine);
  pr.baseline = std::move(baseline);
  pr.sim = std::move(sim);
  return pr;
}

SweepResult run_sweep(const SweepSpec& spec, const RunOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  const SweepPlan plan = plan_sweep(spec);
  SweepResult result;
  result.sweep = spec.name;
  result.threads_used = resolve_threads(opts.threads);
  result.points.resize(plan.points.size());

  // The points waiting on each job; a point is ready once both of its jobs
  // are done. Below the stream threshold simulate_workload() shares the
  // process-wide trace cache (internally synchronized); above it every job
  // streams its records straight from the generator.
  std::vector<std::vector<u32>> waiting(plan.jobs.size());
  for (const ExperimentPoint& p : plan.points)
    for (u32 j : {plan.baseline_job[p.index], plan.variant_job[p.index]})
      waiting[j].push_back(p.index);
  std::vector<u8> jobs_left(plan.points.size(), 2);
  std::vector<SimResult> sims(plan.jobs.size());
  std::mutex mu;  // guards jobs_left, done and on_point
  u64 done = 0;
  parallel_for(plan.jobs.size(), result.threads_used, [&](std::size_t j) {
    const ExperimentPoint& trace_of = plan.points[plan.jobs[j].point];
    sims[j] = simulate_workload(plan.config(plan.jobs[j]), trace_of.profile,
                                trace_of.n_records, opts.sample);
    std::unique_lock<std::mutex> lock(mu);
    for (u32 i : waiting[j]) {
      if (--jobs_left[i] != 0) continue;
      // Both jobs are done and no other point reads this variant run.
      lock.unlock();
      result.points[i] = make_point_result(plan.points[i], spec.baseline,
                                           sims[plan.baseline_job[i]],
                                           std::move(sims[plan.variant_job[i]]));
      lock.lock();
      if (opts.on_point) opts.on_point(result.points[i], ++done, plan.points.size());
    }
  });

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace hcsim::exp
