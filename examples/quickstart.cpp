// hcsim quickstart: run a one-point experiment (one workload on the
// monolithic baseline and a helper-cluster machine) and print the
// comparison.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/example_quickstart
#include <cstdio>

#include "exp/runner.hpp"
#include "sim/simulator.hpp"

using namespace hcsim;

int main() {
  // 1. Describe the experiment: workloads x machine variants x trace
  //    lengths. SPEC Int 2000 profiles ship with the library; you can also
  //    build your own WorkloadProfile (see custom_workload.cpp).
  //    steering_ir() is the paper's best steering (8-8-8 + BR + LR + CR +
  //    CP + instruction splitting).
  exp::SweepSpec spec;
  spec.name = "quickstart";
  spec.workloads = {spec_profile("gcc")};
  spec.variants = {exp::variant_from_steering(steering_ir())};
  spec.trace_lens = {200000};

  // 2. Run it: each point simulates its variant and the monolithic
  //    baseline on the same 200k-µop trace. HCSIM_SAMPLE_* switches the
  //    runs to warm-up/measure sampling.
  exp::RunOptions opts;
  opts.sample = sample::spec_from_env();
  const exp::PointResult run = exp::run_sweep(spec, opts).points.front();

  std::printf("%s", describe_machine(run.point.variant.machine).c_str());
  std::printf("\nworkload           : %s (%llu uops)\n", run.point.profile.name.c_str(),
              static_cast<unsigned long long>(run.sim.uops));
  std::printf("baseline IPC       : %.3f\n", run.baseline.ipc);
  std::printf("helper-cluster IPC : %.3f\n", run.sim.ipc);
  std::printf("speedup            : %.2f%%\n", run.perf_increase_pct());
  std::printf("steered to helper  : %.1f%%\n", 100.0 * run.sim.helper_frac());
  std::printf("copy instructions  : %.1f%%\n", 100.0 * run.sim.copy_frac());
  std::printf("width pred accuracy: %.1f%%\n", 100.0 * run.sim.wp_accuracy());

  // 3. Energy-delay^2 comparison (Section 3.7): every point carries the
  //    power reports of both machines.
  std::printf("ED^2 baseline/helper: %.3f (>1 means the helper wins)\n",
              run.power_baseline.ed2p / run.power_sim.ed2p);
  return 0;
}
