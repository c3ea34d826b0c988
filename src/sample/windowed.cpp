#include "sample/windowed.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "exp/runner.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace hcsim::sample {

namespace {

/// Splice `w` into `into`, field by field: add when kAdd, else subtract an
/// earlier checkpoint of the same run. Derived fields are left for
/// SimResult::finalize() to recompute from the spliced integers.
template <bool kAdd>
void splice(SimResult& into, const SimResult& w) {
  SimResult::for_each_field(
      [](auto& a, const auto& b) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, Histogram>) {
          if constexpr (kAdd) a.merge(b);
          else a.subtract(b);
        } else if constexpr (!std::is_same_v<T, double>) {
          if constexpr (kAdd) a += b;
          else a -= b;
        }
      },
      into, w);
}

/// One window: feed [w.begin, w.end()) from `stream` into a cold pipeline,
/// built on the window's first record (so a window the trace never reaches
/// costs nothing), checkpoint at the warm-up/measure boundary, and subtract
/// that checkpoint at the end. Returns false (and fills nothing) when the
/// trace ended before the window's measure region began.
bool run_window(const MachineConfig& cfg, const WindowRange& w, RecordStream& stream,
                WindowStats& out) {
  std::unique_ptr<Pipeline> pipeline;
  Pipeline::StatsCheckpoint warm;
  u64 fed = 0;
  stream.feed_range(w.begin, w.end(), [&](const TraceRecord& rec) {
    if (!pipeline) {
      pipeline = std::make_unique<Pipeline>(cfg, stream.program());
      if (w.warmup == 0) warm = pipeline->checkpoint_stats();
    }
    pipeline->feed(rec);
    if (++fed == w.warmup) warm = pipeline->checkpoint_stats();
  });
  if (fed <= w.warmup) return false;
  const Pipeline::StatsCheckpoint end = pipeline->checkpoint_stats();
  out.range = w;
  out.range.measure = fed - w.warmup;  // truncated when the trace ended early
  out.measured = end.res;
  splice<false>(out.measured, warm.res);
  out.dl0 = end.dl0;
  out.dl0 -= warm.dl0;
  out.ul1 = end.ul1;
  out.ul1 -= warm.ul1;
  out.measured.finalize(cfg.ticks_per_wide_cycle, out.dl0, out.ul1);
  return true;
}

}  // namespace

WindowedSimulator::WindowedSimulator(const MachineConfig& cfg, const SampleSpec& spec)
    : cfg_(cfg), spec_(spec) {
  spec_.validate();
}

SampledResult WindowedSimulator::run(const StreamFactory& factory, u64 trace_len,
                                     unsigned threads) const {
  SampledResult result;
  result.spec = spec_;
  result.trace_len = trace_len;

  const auto full_run = [&]() {
    const std::unique_ptr<RecordStream> stream = factory();
    Pipeline p(cfg_, stream->program());
    stream->feed_range(0, trace_len, [&](const TraceRecord& rec) { p.feed(rec); });
    result.sampled = false;
    result.windows.clear();
    result.total = p.finish();
    result.simulated_uops = result.measured_uops = result.total.uops;
    return result;
  };

  const std::vector<WindowRange> plan = plan_windows(spec_, trace_len);
  // Trace too short to sample (or sampling disabled): full run.
  if (plan.empty()) return full_run();
  result.sampled = true;

  // Per-plan-slot results; windows the trace never reached stay invalid.
  // (unsigned char, not bool: vector<bool> packs bits, and parallel window
  // jobs writing adjacent slots would race on the shared byte.)
  std::vector<WindowStats> stats(plan.size());
  std::vector<unsigned char> valid(plan.size(), 0);

  // Every window is the same pure function of (config, program, range).
  // Serial runs it over one shared stream in trace order — records between
  // windows are generated (determinism requires it) but not simulated.
  // Parallel gives each window job its own stream, so the splice below is
  // bit-identical across thread counts.
  if (threads <= 1) {
    const std::unique_ptr<RecordStream> stream = factory();
    for (std::size_t i = 0; i < plan.size(); ++i)
      valid[i] = run_window(cfg_, plan[i], *stream, stats[i]);
  } else {
    exp::parallel_for(plan.size(), threads, [&](std::size_t i) {
      valid[i] = run_window(cfg_, plan[i], *factory(), stats[i]);
    });
  }

  // Splice measured windows in trace order.
  Ratio dl0, ul1;
  bool first = true;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (!valid[i]) continue;
    if (first) {
      result.total = stats[i].measured;  // adopts workload/config strings
      first = false;
    } else {
      splice<true>(result.total, stats[i].measured);
    }
    dl0 += stats[i].dl0;
    ul1 += stats[i].ul1;
    result.measured_uops += stats[i].measured.uops;
    result.simulated_uops += stats[i].range.warmup + stats[i].measured.uops;
    result.windows.push_back(std::move(stats[i]));
  }
  if (first) {
    // The trace ended during the first window's warm-up (e.g. a kernel
    // halting almost immediately): no measured window exists, fall back.
    return full_run();
  }
  result.total.finalize(cfg_.ticks_per_wide_cycle, dl0, ul1);
  return result;
}

SampledResult simulate_sampled(const MachineConfig& cfg, const WorkloadProfile& profile,
                               u64 n_records, const SampleSpec& spec,
                               unsigned threads) {
  if (n_records == 0) n_records = default_trace_len();
  const WindowedSimulator sim(cfg, spec);
  return sim.run(workload_stream_factory(profile, n_records), n_records, threads);
}

SampledResult simulate_sampled(const MachineConfig& cfg, const Trace& trace,
                               const SampleSpec& spec, unsigned threads) {
  const WindowedSimulator sim(cfg, spec);
  return sim.run(
      [&trace] { return open_cursor_stream(std::make_unique<TraceVectorCursor>(trace)); },
      trace.records.size(), threads);
}

// --- sampled-vs-full error reporting ----------------------------------------

std::vector<SampleError> sampling_errors(const SimResult& full, const SimResult& sampled) {
  std::vector<SampleError> out;
  const auto add = [&out](std::string metric, double f, double s) {
    SampleError e;
    e.metric = std::move(metric);
    e.full = f;
    e.sampled = s;
    e.rel_err = std::abs(s - f) / std::max(std::abs(f), 0.01);
    out.push_back(std::move(e));
  };
  add("ipc", full.ipc, sampled.ipc);
  add("helper_frac", full.helper_frac(), sampled.helper_frac());
  add("copy_frac", full.copy_frac(), sampled.copy_frac());
  add("wp_accuracy", full.wp_accuracy(), sampled.wp_accuracy());
  const auto misp = [](const SimResult& r) {
    return r.branches ? static_cast<double>(r.branch_mispredicts) /
                            static_cast<double>(r.branches)
                      : 0.0;
  };
  add("branch_misp_rate", misp(full), misp(sampled));
  add("dl0_hit_rate", full.dl0_hit_rate, sampled.dl0_hit_rate);
  add("ul1_hit_rate", full.ul1_hit_rate, sampled.ul1_hit_rate);
  // Raw event counters as per-committed-µop rates.
  const auto rate = [](const SimResult& r, Counter c) {
    return r.uops ? static_cast<double>(r.counters[c]) / static_cast<double>(r.uops)
                  : 0.0;
  };
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    add("counter/" + std::string(counter_name(c)), rate(full, c), rate(sampled, c));
  }
  return out;
}

double max_rel_error(const std::vector<SampleError>& errors) {
  double worst = 0.0;
  for (const SampleError& e : errors) worst = std::max(worst, e.rel_err);
  return worst;
}

std::string render_window_table(const SampledResult& result) {
  TextTable t({"window", "begin", "warmup", "measured", "ipc", "helper %", "copy %",
               "dl0 hit %"});
  for (const WindowStats& w : result.windows) {
    t.add_row({std::to_string(w.range.index), std::to_string(w.range.begin),
               std::to_string(w.range.warmup), std::to_string(w.measured.uops),
               TextTable::num(w.measured.ipc, 3),
               TextTable::num(100.0 * w.measured.helper_frac(), 1),
               TextTable::num(100.0 * w.measured.copy_frac(), 1),
               TextTable::num(100.0 * w.measured.dl0_hit_rate, 1)});
  }
  return t.render();
}

}  // namespace hcsim::sample
