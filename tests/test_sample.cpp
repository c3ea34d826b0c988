// src/sample — warm-up/measure sampling windows.
//
// The load-bearing property is the checkpoint contract: a window is a pure
// function of (machine config, program, record range), so the serial
// windowed run, the thread-pool-sliced parallel run, and the same schedule
// over any of the three TraceCursor backends (materialized trace,
// synthetic cursor, RV kernel executor) must all be bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "rv/kernels.hpp"
#include "sample/record_stream.hpp"
#include "sample/spec.hpp"
#include "sample/windowed.hpp"
#include "sim/simulator.hpp"
#include "wload/program_gen.hpp"

namespace hcsim::sample {
namespace {

/// Scoped environment override restoring the previous value on destruction.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_)
      setenv(name_, old_.c_str(), 1);
    else
      unsetenv(name_);
  }

 private:
  const char* name_;
  std::string old_;
  bool had_ = false;
};

// Deliberately skips trace_len: a profile-based run reports the requested
// length while a Trace-based run reports the actual record count (an RV
// kernel budget-cut at an instruction boundary can make them differ by a
// crack width), and the window schedule is identical either way.
void expect_identical(const SampledResult& a, const SampledResult& b) {
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.simulated_uops, b.simulated_uops);
  EXPECT_EQ(a.measured_uops, b.measured_uops);
  // Every field, derived doubles included: both sides finalize the same
  // integers the same way, so exact equality is expected.
  EXPECT_TRUE(a.total == b.total);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].range.begin, b.windows[i].range.begin);
    EXPECT_EQ(a.windows[i].range.measure, b.windows[i].range.measure);
    EXPECT_EQ(a.windows[i].dl0, b.windows[i].dl0);
    EXPECT_EQ(a.windows[i].ul1, b.windows[i].ul1);
    EXPECT_TRUE(a.windows[i].measured == b.windows[i].measured) << "window " << i;
  }
}

// --- schedule planning ------------------------------------------------------

TEST(SampleSpec, PlanFixedPeriod) {
  const SampleSpec spec{/*warmup=*/100, /*measure=*/200, /*period=*/1000};
  const auto plan = plan_windows(spec, 2500);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].begin, 0u);
  EXPECT_EQ(plan[1].begin, 1000u);
  EXPECT_EQ(plan[2].begin, 2000u);
  for (const WindowRange& w : plan) {
    EXPECT_EQ(w.warmup, 100u);
    EXPECT_EQ(w.measure, 200u);
    EXPECT_EQ(w.end(), w.begin + 300u);
  }
}

TEST(SampleSpec, PlanTruncatesFinalWindowMidMeasure) {
  const SampleSpec spec{/*warmup=*/100, /*measure=*/200, /*period=*/1000};
  const auto plan = plan_windows(spec, 2250);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[2].measure, 150u);  // 2250 - (2000 + 100)
  EXPECT_EQ(plan[2].end(), 2250u);
}

TEST(SampleSpec, PlanDropsWindowEndingDuringWarmup) {
  const SampleSpec spec{/*warmup=*/100, /*measure=*/200, /*period=*/1000};
  // Trace ends at 2050: the third window's warm-up [2000, 2100) overruns.
  EXPECT_EQ(plan_windows(spec, 2050).size(), 2u);
  // Shorter than one warm-up: nothing to measure at all.
  EXPECT_TRUE(plan_windows(spec, 100).empty());
  EXPECT_TRUE(plan_windows(spec, 0).empty());
}

TEST(SampleSpec, PlanAutoPeriodTargetsTwentyWindows) {
  const SampleSpec spec{/*warmup=*/10, /*measure=*/20, /*period=*/0};
  EXPECT_EQ(spec.resolved_period(10000), 500u);
  EXPECT_EQ(plan_windows(spec, 10000).size(), SampleSpec::kAutoWindows);
  // Auto period never lets windows overlap, however short the trace.
  EXPECT_EQ(spec.resolved_period(100), 30u);
}

TEST(SampleSpec, PlanHonorsMaxWindows) {
  SampleSpec spec{/*warmup=*/100, /*measure=*/200, /*period=*/1000};
  spec.max_windows = 2;
  EXPECT_EQ(plan_windows(spec, 100000).size(), 2u);
}

TEST(SampleSpec, ValidateRejectsOverlappingPeriod) {
  const SampleSpec bad{/*warmup=*/100, /*measure=*/200, /*period=*/250};
  EXPECT_DEATH({ bad.validate(); }, "period must be 0");
}

TEST(SampleSpec, Describe) {
  const SampleSpec spec{/*warmup=*/100, /*measure=*/200, /*period=*/0};
  EXPECT_NE(spec.describe().find("warmup=100"), std::string::npos);
  EXPECT_NE(spec.describe().find("auto"), std::string::npos);
  EXPECT_EQ(SampleSpec{}.describe(), "sampling disabled");
}

// --- environment spec -------------------------------------------------------

TEST(SampleSpec, FromEnvDisabledWithoutMeasure) {
  EnvGuard w("HCSIM_SAMPLE_WARMUP", "123");
  EnvGuard m("HCSIM_SAMPLE_MEASURE", "");
  const SampleSpec s = spec_from_env();
  EXPECT_FALSE(s.enabled());
  EXPECT_EQ(s.warmup, 123u);
}

TEST(SampleSpec, FromEnvReadsAllFields) {
  EnvGuard w("HCSIM_SAMPLE_WARMUP", "1000");
  EnvGuard m("HCSIM_SAMPLE_MEASURE", "4000");
  EnvGuard p("HCSIM_SAMPLE_PERIOD", "50000");
  EnvGuard x("HCSIM_SAMPLE_MAX_WINDOWS", "7");
  const SampleSpec s = spec_from_env();
  EXPECT_TRUE(s.enabled());
  EXPECT_EQ(s.warmup, 1000u);
  EXPECT_EQ(s.measure, 4000u);
  EXPECT_EQ(s.period, 50000u);
  EXPECT_EQ(s.max_windows, 7u);
}

TEST(SampleSpec, FromEnvRejectsMalformedValue) {
  EnvGuard m("HCSIM_SAMPLE_MEASURE", "100k");
  EXPECT_DEATH({ (void)spec_from_env(); }, "malformed value");
}

TEST(SampleSpec, FromEnvRejectsNegativeValue) {
  EnvGuard m("HCSIM_SAMPLE_MEASURE", "-5");
  EXPECT_DEATH({ (void)spec_from_env(); }, "malformed value");
}

TEST(SampleSpec, FromEnvRejectsOverflow) {
  EnvGuard m("HCSIM_SAMPLE_MEASURE", "99999999999999999999999999");
  EXPECT_DEATH({ (void)spec_from_env(); }, "does not fit in 64 bits");
}

// --- windowed simulation: bit-identity --------------------------------------

constexpr u64 kLen = 24000;

SampleSpec test_spec() {
  SampleSpec s;
  s.warmup = 500;
  s.measure = 1500;
  s.period = 4000;
  return s;
}

TEST(Windowed, SerialAndParallelBitIdentical) {
  const WorkloadProfile& prof = spec_profile("gcc");
  for (const MachineConfig& cfg :
       {monolithic_baseline(), helper_machine(steering_888_br_lr_cr())}) {
    const SampledResult serial = simulate_sampled(cfg, prof, kLen, test_spec(), 1);
    const SampledResult parallel = simulate_sampled(cfg, prof, kLen, test_spec(), 4);
    ASSERT_TRUE(serial.sampled);
    EXPECT_EQ(serial.trace_len, kLen);
    EXPECT_EQ(serial.windows.size(), 6u);
    EXPECT_EQ(serial.trace_len, parallel.trace_len);
    expect_identical(serial, parallel);
  }
}

/// The streaming side of the routing, built directly: each stream re-runs
/// the generating backend from the trace start.
StreamFactory streaming_factory(const WorkloadProfile& profile, u64 n_records) {
  return [&profile, n_records] {
    return open_cursor_stream(open_workload_cursor(profile, n_records));
  };
}

TEST(Windowed, CursorStreamMatchesMaterializedTrace) {
  // The synthetic generator cursor against the materialized records.
  // Period 6500 over 20000 records truncates the final window mid-measure
  // (begin 19500, warm-up to 19800, only 200 of 800 measured µops left).
  SampleSpec spec;
  spec.warmup = 300;
  spec.measure = 800;
  spec.period = 6500;
  const WorkloadProfile& prof = spec_profile("bzip2");
  const MachineConfig cfg = helper_machine(steering_ir());
  const WindowedSimulator sim(cfg, spec);

  const SampledResult streamed = sim.run(streaming_factory(prof, 20000), 20000, 1);
  const SampledResult materialized =
      simulate_sampled(cfg, cached_trace(prof, 20000), spec, 1);
  ASSERT_TRUE(streamed.sampled);
  ASSERT_EQ(streamed.windows.size(), 4u);
  EXPECT_EQ(streamed.windows.back().range.measure, 200u);
  expect_identical(streamed, materialized);
  // And the parallel sliced run agrees with both.
  expect_identical(streamed, sim.run(streaming_factory(prof, 20000), 20000, 3));
  // Odd-sized chunks put chunk boundaries inside windows and inside skips.
  const auto small_chunks = [&prof] {
    return open_cursor_stream(std::make_unique<ProgramTraceCursor>(
        generate_program(prof), prof, 20000, /*chunk_records=*/777));
  };
  expect_identical(streamed, sim.run(small_chunks, 20000, 1));
}

TEST(Windowed, RvKernelStreamBitIdentical) {
  // The RV executor cursor, streamed (each window job re-executes the
  // kernel from entry) against the materialized kernel trace, serial and
  // parallel. dot at 7777 µops: the budget cuts an instruction's crack, and
  // the stream must stop before it exactly as the materialized trace does.
  // crc32 at 60000: the kernel halts at 34336 µops, so the plan runs past
  // the trace end.
  SampleSpec dense = test_spec();
  dense.period = 2000;
  const struct {
    const char* kernel;
    u64 len;
    SampleSpec spec;
  } cases[] = {{"crc32", kLen, test_spec()}, {"dot", 7777, dense}, {"crc32", 60000, dense}};
  const MachineConfig cfg = helper_machine(steering_888_br_lr_cr());
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.kernel) + " @ " + std::to_string(c.len));
    const WorkloadProfile prof = rv::rv_workload_profile(c.kernel);
    const WindowedSimulator sim(cfg, c.spec);
    const SampledResult streamed = sim.run(streaming_factory(prof, c.len), c.len, 1);
    ASSERT_TRUE(streamed.sampled);
    expect_identical(streamed, sim.run(streaming_factory(prof, c.len), c.len, 4));
    expect_identical(streamed,
                     simulate_sampled(cfg, rv::kernel_trace(c.kernel, c.len), c.spec, 1));
    expect_identical(streamed, simulate_sampled(cfg, prof, c.len, c.spec, 1));
  }
}

TEST(Windowed, FallsBackToFullRunOnShortTrace) {
  SampleSpec spec;
  spec.warmup = 50000;  // longer than the whole trace
  spec.measure = 1000;
  const WorkloadProfile& prof = spec_profile("mcf");
  const MachineConfig cfg = monolithic_baseline();
  const SampledResult r = simulate_sampled(cfg, prof, 10000, spec, 2);
  EXPECT_FALSE(r.sampled);
  EXPECT_TRUE(r.windows.empty());
  EXPECT_TRUE(r.total == simulate(cfg, cached_trace(prof, 10000)));
}

TEST(Windowed, MeasuredUopsAddUp) {
  const WorkloadProfile& prof = spec_profile("gzip");
  const SampledResult r =
      simulate_sampled(monolithic_baseline(), prof, kLen, test_spec(), 1);
  ASSERT_TRUE(r.sampled);
  u64 measured = 0, simulated = 0;
  for (const WindowStats& w : r.windows) {
    measured += w.range.measure;
    simulated += w.range.warmup + w.range.measure;
    EXPECT_EQ(w.measured.uops, w.range.measure);
  }
  EXPECT_EQ(r.measured_uops, measured);
  EXPECT_EQ(r.simulated_uops, simulated);
  EXPECT_EQ(r.total.uops, measured);
  EXPECT_LT(r.simulated_uops, kLen);  // sampling actually skipped something
}

// --- sampling through simulate_workload -------------------------------------

TEST(Windowed, ActiveSpecRoutesSimulateWorkload) {
  const WorkloadProfile& prof = spec_profile("parser");
  const MachineConfig cfg = helper_machine(steering_ir());
  set_active_sample_spec(test_spec());
  const SimResult via_workload = simulate_workload(cfg, prof, kLen);
  set_active_sample_spec(SampleSpec{});  // restore: sampling off
  EXPECT_TRUE(via_workload == simulate_sampled(cfg, prof, kLen, test_spec()).total);
}

// --- sampled-vs-full accuracy -----------------------------------------------

TEST(Windowed, SampledTracksFullRunLoosely) {
  // Sampling is an approximation; the bound here is deliberately loose and
  // only guards against gross breakage (wrong windows, counters from the
  // warm-up region leaking in, ...).
  const WorkloadProfile& prof = spec_profile("gcc");
  const MachineConfig cfg = helper_machine(steering_888_br_lr_cr());
  constexpr u64 kFullLen = 120000;
  SampleSpec spec;
  spec.warmup = 2000;
  spec.measure = 4000;  // ~20 windows via auto period
  const SimResult full = simulate(cfg, cached_trace(prof, kFullLen));
  const SampledResult sampled = simulate_sampled(cfg, prof, kFullLen, spec, 2);
  ASSERT_TRUE(sampled.sampled);

  const std::vector<SampleError> errors = sampling_errors(full, sampled.total);
  EXPECT_FALSE(errors.empty());
  for (const SampleError& e : errors)
    EXPECT_LT(e.rel_err, 0.35) << e.metric << ": full=" << e.full
                               << " sampled=" << e.sampled;
  EXPECT_EQ(max_rel_error(errors),
            [&] {
              double m = 0.0;
              for (const SampleError& e : errors) m = std::max(m, e.rel_err);
              return m;
            }());
}

TEST(Windowed, WindowTableRenders) {
  const SampledResult r = simulate_sampled(monolithic_baseline(), spec_profile("gap"),
                                           kLen, test_spec(), 1);
  const std::string table = render_window_table(r);
  EXPECT_NE(table.find("window"), std::string::npos);
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'),
            static_cast<long>(r.windows.size()) + 2);  // header + rule + rows
}

}  // namespace
}  // namespace hcsim::sample
