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

/// One in-flight window: a cold pipeline plus the warm-up/measure boundary
/// checkpoint.
struct WindowRun {
  std::unique_ptr<Pipeline> pipeline;
  Pipeline::StatsCheckpoint warm;
  u64 fed = 0;

  void open(const MachineConfig& cfg, const Program& program, u64 warmup) {
    pipeline = std::make_unique<Pipeline>(cfg, program);
    fed = 0;
    if (warmup == 0) warm = pipeline->checkpoint_stats();
  }

  void feed(const TraceRecord& rec, u64 warmup) {
    pipeline->feed(rec);
    if (++fed == warmup) warm = pipeline->checkpoint_stats();
  }
};

/// Close an in-flight window: subtract the warm checkpoint and finalize the
/// per-window view. Returns false (and produces nothing) when the trace
/// ended before the window's measure region began.
bool close_window(const WindowRange& w, WindowRun& run, Tick wide_ticks,
                  WindowStats& out) {
  if (!run.pipeline || run.fed <= w.warmup) return false;
  const Pipeline::StatsCheckpoint end = run.pipeline->checkpoint_stats();
  out.range = w;
  out.range.measure = run.fed - w.warmup;  // truncated when the trace ended early
  out.measured = end.res;
  splice<false>(out.measured, run.warm.res);
  out.dl0 = end.dl0;
  out.dl0 -= run.warm.dl0;
  out.ul1 = end.ul1;
  out.ul1 -= run.warm.ul1;
  out.measured.finalize(wide_ticks, out.dl0, out.ul1);
  run.pipeline.reset();
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
  const Tick wt = cfg_.ticks_per_wide_cycle;

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

  if (threads <= 1) {
    // Serial: one stream, one forward pass. Windows open and close in trace
    // order as the scan crosses their boundaries; records between windows
    // are generated (determinism requires it) but not simulated.
    const std::unique_ptr<RecordStream> stream = factory();
    std::size_t wi = 0;
    u64 pos = plan.front().begin;
    WindowRun run;
    stream->feed_range(plan.front().begin, plan.back().end(),
                       [&](const TraceRecord& rec) {
                         if (wi >= plan.size()) return;
                         const WindowRange& w = plan[wi];
                         if (pos++ < w.begin) return;  // inter-window skip
                         if (!run.pipeline) run.open(cfg_, stream->program(), w.warmup);
                         run.feed(rec, w.warmup);
                         if (run.fed == w.warmup + w.measure) {
                           valid[wi] = close_window(w, run, wt, stats[wi]);
                           ++wi;
                         }
                       });
    // The stream may have ended mid-window (short trace): close what's open.
    if (wi < plan.size() && run.pipeline)
      valid[wi] = close_window(plan[wi], run, wt, stats[wi]);
  } else {
    // Parallel slicing: each window is an independent job — fresh stream,
    // cold pipeline, K warm-up µops — exactly the serial per-window
    // computation, so the splice below is bit-identical to the serial run.
    exp::ThreadPool pool(std::min<unsigned>(
        threads, static_cast<unsigned>(std::min<std::size_t>(plan.size(), 4096))));
    for (std::size_t i = 0; i < plan.size(); ++i) {
      pool.submit([&, i] {
        const WindowRange& w = plan[i];
        const std::unique_ptr<RecordStream> stream = factory();
        WindowRun run;
        run.open(cfg_, stream->program(), w.warmup);
        stream->feed_range(w.begin, w.end(),
                           [&](const TraceRecord& rec) { run.feed(rec, w.warmup); });
        valid[i] = close_window(w, run, wt, stats[i]);
      });
    }
    pool.wait_idle();
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
  result.total.finalize(wt, dl0, ul1);
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
  return sim.run([&trace] { return open_trace_stream(trace); }, trace.records.size(),
                 threads);
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
