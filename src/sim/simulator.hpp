// hcsim — top-level simulation facade shared by examples, benches and tests.
//
// Wraps workload generation, trace caching (traces are deterministic, so one
// process-wide cache serves every experiment), and the
// baseline-vs-helper-cluster comparison that every figure reports.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "sample/spec.hpp"
#include "wload/executor.hpp"
#include "wload/profile.hpp"

namespace hcsim {

/// Default dynamic trace length for experiments. The paper simulates 100M
/// instructions per trace; shapes here are stable beyond ~200k µops, so the
/// default is CI-friendly and the HCSIM_TRACE_LEN environment variable
/// scales it up for higher-fidelity runs.
u64 default_trace_len();

/// Process-wide deterministic trace cache (keyed by profile name, seed and
/// length). Returned reference is valid for the process lifetime. Only
/// CI-sized traces belong here — open_trace_cursor() stops materializing
/// (and caching) above stream_threshold().
const Trace& cached_trace(const WorkloadProfile& profile, u64 n_records);

/// Trace length above which runs stream records chunk-wise from the
/// generating backend instead of materializing + caching the whole trace
/// (a paper-scale 100M-µop window is ~3GB of records): 2M records.
u64 stream_threshold();

/// The one choice between cached and streamed traces: a view of
/// cached_trace() at or below stream_threshold(), a fresh
/// open_workload_cursor() above it. Every routed run reads its records
/// through this, so the boundary may change memory use, never results.
std::unique_ptr<TraceCursor> open_trace_cursor(const WorkloadProfile& profile,
                                               u64 n_records);

/// Always-streaming simulation: records flow from the workload generator
/// (or the RV kernel cracker) straight into the pipeline, O(chunk) memory.
/// Bit-identical to simulate(cfg, cached_trace(profile, n_records)).
SimResult simulate_streamed(const MachineConfig& cfg, const WorkloadProfile& profile,
                            u64 n_records);

/// Simulate one workload through open_trace_cursor(): cached in-memory
/// trace at or below stream_threshold() (shared across experiments),
/// streaming above it. An enabled `spec` routes the run through the
/// src/sample windowed simulator instead and returns the spliced
/// measured-window aggregate; the default (disabled) spec is a full run.
/// A pure function of its arguments.
SimResult simulate_workload(const MachineConfig& cfg, const WorkloadProfile& profile,
                            u64 n_records = 0, const sample::SampleSpec& spec = {});

/// One application simulated on the monolithic baseline and on a helper
/// cluster configuration. This facade and its siblings below serve the
/// figure benches, examples and tests: each call reads the HCSIM_SAMPLE_*
/// environment once (sample::spec_from_env()) and runs every simulation
/// under that spec.
struct AppRun {
  std::string app;
  SimResult baseline;
  SimResult helper;
  double speedup() const { return helper.speedup_vs(baseline); }
  double perf_increase_pct() const { return (speedup() - 1.0) * 100.0; }
};

AppRun run_app(const WorkloadProfile& profile, const SteeringConfig& steer,
               u64 n_records = 0);

/// One application against several steering configurations (shared trace and
/// shared baseline run).
struct MultiRun {
  std::string app;
  SimResult baseline;
  std::vector<SimResult> configs;
};

MultiRun run_app_configs(const WorkloadProfile& profile,
                         std::span<const SteeringConfig> configs,
                         u64 n_records = 0);

/// The 12-app SPEC Int 2000 sweep used by most figures.
std::vector<AppRun> run_spec_suite(const SteeringConfig& steer, u64 n_records = 0);

/// Print the Table 1 machine parameters.
std::string describe_machine(const MachineConfig& cfg);

}  // namespace hcsim
