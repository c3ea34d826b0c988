#include "exp/runner.hpp"

#include <chrono>
#include <map>
#include <tuple>

#include "core/pipeline.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace hcsim::exp {

// --- ThreadPool -------------------------------------------------------------

ThreadPool::ThreadPool(unsigned n_threads) {
  HCSIM_CHECK(n_threads > 0, "ThreadPool needs at least one worker");
  workers_.reserve(n_threads);
  for (unsigned i = 0; i < n_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    HCSIM_CHECK(!stopping_, "submit on a stopping ThreadPool");
    queue_.push(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

// --- run_sweep --------------------------------------------------------------

namespace {

/// Run all jobs: inline when serial, else on a private pool sized to
/// `threads`. Each job must be independent of the others (they may run in
/// any order).
void run_jobs(std::vector<std::function<void()>>& jobs, unsigned threads) {
  if (threads <= 1) {
    for (auto& job : jobs) job();
    return;
  }
  ThreadPool pool(threads);
  for (auto& job : jobs) pool.submit(std::move(job));
  pool.wait_idle();
}

}  // namespace

SweepResult run_sweep(const SweepSpec& spec, const RunOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();

  unsigned threads = opts.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());

  const std::vector<ExperimentPoint> points = expand(spec);

  // Baseline cells: one (trace, baseline simulation) per unique
  // (workload, seed, length) combination, shared by every variant point.
  struct BaselineCell {
    const WorkloadProfile* profile = nullptr;
    u64 n_records = 0;
    SimResult sim;
    PowerReport power;
  };
  std::map<std::tuple<u32, u32, u32>, u32> cell_of;
  std::vector<BaselineCell> cells;
  std::vector<u32> point_cell(points.size());
  for (const ExperimentPoint& p : points) {
    const auto key = std::make_tuple(p.workload_idx, p.seed_idx, p.len_idx);
    auto [it, inserted] = cell_of.emplace(key, static_cast<u32>(cells.size()));
    if (inserted) cells.push_back({&p.profile, p.n_records, {}, {}});
    point_cell[p.index] = it->second;
  }

  // Phase 1: generate traces and simulate the baseline machine, one job per
  // cell. Below the stream threshold simulate_workload() warms the process-
  // wide trace cache (internally synchronized, so concurrent cells are
  // fine); above it every simulation streams records straight from the
  // generator and nothing is materialized.
  {
    std::vector<std::function<void()>> jobs;
    jobs.reserve(cells.size());
    for (BaselineCell& cell : cells)
      jobs.push_back([&cell, &spec] {
        cell.sim = simulate_workload(spec.baseline, *cell.profile, cell.n_records);
        cell.power = analyze_power(cell.sim, spec.baseline);
      });
    run_jobs(jobs, threads);
  }

  // Phase 2: one job per point; results land in their index slot, so the
  // collected vector is in grid order no matter the completion order.
  SweepResult result;
  result.sweep = spec.name;
  result.threads_used = threads;
  result.points.resize(points.size());

  std::mutex progress_mu;
  u64 done = 0;
  {
    std::vector<std::function<void()>> jobs;
    jobs.reserve(points.size());
    for (const ExperimentPoint& p : points)
      jobs.push_back([&, &p = p] {
        const BaselineCell& cell = cells[point_cell[p.index]];
        PointResult pr;
        pr.point = p;
        pr.baseline = cell.sim;
        pr.power_baseline = cell.power;
        pr.sim = simulate_workload(p.variant.machine, p.profile, p.n_records);
        pr.power_sim = analyze_power(pr.sim, p.variant.machine);
        result.points[p.index] = std::move(pr);
        if (opts.on_point) {
          std::lock_guard<std::mutex> lock(progress_mu);
          ++done;
          opts.on_point(result.points[p.index], done, points.size());
        }
      });
    run_jobs(jobs, threads);
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace hcsim::exp
