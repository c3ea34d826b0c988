// hcsim — parallel sweep execution.
//
// Each ExperimentPoint is a pure function of (trace, machine config).
// plan_sweep() is the one place a grid becomes simulation jobs, in the order
// run_sweep() runs them and the fault-tolerant client (svc/remote_sweep.hpp)
// submits them; make_point_result() is the one place a point is assembled.
// run_sweep() runs every job through one parallel_for() with no phase
// barrier. Results land in slots keyed by point index, so a SweepResult is
// bit-identical across thread counts — including threads=1, which runs
// inline.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "core/sim_result.hpp"
#include "exp/sweep.hpp"
#include "power/power_model.hpp"

namespace hcsim::exp {

/// Fixed-size worker pool. Jobs may be submitted from any thread; wait_idle()
/// blocks until every submitted job has finished.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned n_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> job);
  void wait_idle();
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for jobs
  std::condition_variable idle_cv_;   // wait_idle() waits for drain
  unsigned in_flight_ = 0;
  bool stopping_ = false;
};

/// A finished experiment point: the variant run, the shared baseline run of
/// the same trace, and the power reports of both.
struct PointResult {
  ExperimentPoint point;
  SimResult baseline;
  SimResult sim;
  PowerReport power_baseline;
  PowerReport power_sim;

  double speedup() const { return sim.speedup_vs(baseline); }
  double perf_increase_pct() const { return (speedup() - 1.0) * 100.0; }
  /// Speedup in wide-cycle counts — invariant to the helper clock ratio, so
  /// it stays meaningful for ablations that change ticks_per_wide_cycle.
  double wide_cycle_speedup() const {
    return sim.wide_cycles > 0.0 ? baseline.wide_cycles / sim.wide_cycles : 0.0;
  }
  double edp_gain_pct() const {
    return power_baseline.edp > 0.0 ? 100.0 * (1.0 - power_sim.edp / power_baseline.edp)
                                    : 0.0;
  }
  double ed2p_gain_pct() const {
    return power_baseline.ed2p > 0.0
               ? 100.0 * (1.0 - power_sim.ed2p / power_baseline.ed2p)
               : 0.0;
  }
};

struct RunOptions {
  /// 0 = std::thread::hardware_concurrency(); 1 = serial (no pool).
  unsigned threads = 1;
  /// Progress callback, invoked once per finished point (completion order,
  /// serialized — never concurrently). `done` counts finished points.
  std::function<void(const PointResult&, u64 done, u64 total)> on_point;
};

struct SweepResult {
  std::string sweep;
  unsigned threads_used = 1;
  double wall_seconds = 0.0;
  /// Always in grid-expansion order (point.index), regardless of the order
  /// points finished in.
  std::vector<PointResult> points;
};

/// Run fn(0) .. fn(n-1) and return when every call has finished: inline in
/// index order when threads <= 1, else on a private pool of min(threads, n)
/// workers that take indices in order. Calls must be independent.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

/// `requested`, with 0 resolved to std::thread::hardware_concurrency().
unsigned resolve_threads(unsigned requested);

/// One simulation: the plan's baseline machine or a point's variant, over
/// that point's trace (profile, seed and length).
struct SweepJob {
  u32 point = 0;
  bool baseline = false;
};

/// A grid as jobs: one baseline job per (workload, seed, length) cell and
/// one variant job per point. Jobs are in first-appearance order: walking
/// the points by index, a cell's baseline job on first sight, then the
/// point's variant job.
struct SweepPlan {
  MachineConfig baseline;
  std::vector<ExperimentPoint> points;
  std::vector<SweepJob> jobs;
  std::vector<u32> baseline_job, variant_job;  // per point: index into jobs

  const MachineConfig& config(const SweepJob& job) const {
    return job.baseline ? baseline : points[job.point].variant.machine;
  }
};

SweepPlan plan_sweep(const SweepSpec& spec);

/// A point's two runs together with both of their power reports.
PointResult make_point_result(const ExperimentPoint& point,
                              const MachineConfig& baseline_machine,
                              SimResult baseline, SimResult sim);

/// Run every job of plan_sweep(spec) through one parallel_for(). A point is
/// assembled, and on_point fires, as soon as both of its jobs are done.
SweepResult run_sweep(const SweepSpec& spec, const RunOptions& opts = {});

}  // namespace hcsim::exp
