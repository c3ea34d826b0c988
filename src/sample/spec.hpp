// hcsim — warm-up/measure sampling windows (src/sample).
//
// The paper's figures come from 100M-instruction traces; simulating every
// µop of such a trace is ~10s of serial CPU even on the streaming pipeline.
// Classic sampled simulation cuts that by orders of magnitude: slice the
// trace into periodic windows, feed each window's first K µops as *warm-up*
// (predictors/caches/schedulers train, counters are discarded), measure the
// next M µops, and skip the rest of the period entirely. A SampleSpec
// describes that schedule; plan_windows() turns it into concrete record
// ranges over one trace. A spec is always an explicit argument of the run
// it shapes (simulate_workload, exp::RunOptions::sample, a JobRequest);
// only front-ends read the HCSIM_SAMPLE_* environment, via spec_from_env().
//
// Window checkpoint contract (see core/pipeline.hpp): every window is
// re-simulated from a cold Pipeline, so a window is a pure function of
// (machine config, program, record range). Serial and parallel_for-sliced
// windowed runs are therefore bit-identical by construction.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace hcsim::sample {

/// A periodic warm-up/measure sampling schedule over one dynamic trace.
struct SampleSpec {
  /// µops fed before measurement in each window; counters discarded.
  u64 warmup = 0;
  /// µops measured per window. 0 disables sampling entirely.
  u64 measure = 0;
  /// Distance between window starts. 0 = auto: the trace is split into
  /// kAutoWindows equal periods (at least warmup+measure each). Must
  /// otherwise be >= warmup + measure.
  u64 period = 0;
  /// Cap on the number of windows; 0 = unlimited.
  u64 max_windows = 0;

  /// Window count targeted by the auto period (period == 0).
  static constexpr u64 kAutoWindows = 20;

  bool enabled() const { return measure > 0; }

  /// The concrete period for a trace of `trace_len` records.
  u64 resolved_period(u64 trace_len) const;

  /// False, with the reason in `error`, for an inconsistent spec (enabled
  /// with period < warmup+measure). The CLIs and the job protocol check
  /// through here and report the error.
  bool check(std::string& error) const;

  /// Fatal where check() fails.
  void validate() const;

  /// "warmup=20000 measure=80000 period=auto windows=all"-style summary.
  std::string describe() const;
};

/// Spec assembled from the HCSIM_SAMPLE_WARMUP / HCSIM_SAMPLE_MEASURE /
/// HCSIM_SAMPLE_PERIOD / HCSIM_SAMPLE_MAX_WINDOWS environment variables.
/// Sampling stays disabled unless HCSIM_SAMPLE_MEASURE is set (warmup alone
/// defaults to kDefaultWarmup so `--sampled` flags have a sane base).
SampleSpec spec_from_env();

inline constexpr u64 kDefaultWarmup = 20000;
inline constexpr u64 kDefaultMeasure = 80000;

/// The sampling flags hcsim_run and hcsim_sweep share, applied on top of
/// spec_from_env(): --sampled and --sample-{warmup,measure,period,windows} N,
/// each of which sets `sampled`. `value(lo)` reads the flag's argument (at
/// least `lo`). False when `flag` is none of them.
bool apply_sample_flag(const std::string& flag, const std::function<u64(u64 lo)>& value,
                       SampleSpec& spec, bool& sampled);

/// Validates `spec` and does nothing else: nothing reads it, since every
/// simulation takes its spec as an argument. Kept for perfbench; delete with
/// the next change allowed to edit perfbench/.
void set_active_sample_spec(const SampleSpec& spec);

/// One window of a planned schedule: records [begin, begin+warmup) warm the
/// machine, records [measure_begin(), end()) are measured.
struct WindowRange {
  u64 index = 0;
  u64 begin = 0;
  u64 warmup = 0;   // actual warm-up µops (== spec.warmup; never truncated)
  u64 measure = 0;  // actual measured µops (final window may be truncated)

  u64 measure_begin() const { return begin + warmup; }
  u64 end() const { return begin + warmup + measure; }
};

/// Chop [0, trace_len) into measurement windows. The final window is
/// truncated when the trace ends mid-measure; windows whose measure region
/// would be empty (trace ends during warm-up) are dropped. An empty result
/// means the trace is too short to sample — callers fall back to a full run.
std::vector<WindowRange> plan_windows(const SampleSpec& spec, u64 trace_len);

}  // namespace hcsim::sample
