// hcsim — one workload on one machine: workload generation, trace caching
// (traces are deterministic, so one process-wide cache serves every
// experiment) and the routing between cached, streamed and sampled runs.
// Grids of workloads x machines, and the baseline-vs-helper comparison every
// figure reports, run through exp::run_sweep (exp/runner.hpp).
#pragma once

#include <memory>
#include <string>

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

/// Simulate one workload through open_trace_cursor(): cached in-memory
/// trace at or below stream_threshold() (shared across experiments),
/// streaming above it. An enabled `spec` routes the run through the
/// src/sample windowed simulator instead and returns the spliced
/// measured-window aggregate; the default (disabled) spec is a full run.
/// A pure function of its arguments.
SimResult simulate_workload(const MachineConfig& cfg, const WorkloadProfile& profile,
                            u64 n_records = 0, const sample::SampleSpec& spec = {});

/// Print the Table 1 machine parameters.
std::string describe_machine(const MachineConfig& cfg);

}  // namespace hcsim
