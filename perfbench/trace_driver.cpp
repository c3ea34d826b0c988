// hcsim_trace — traced in-process replay of one benchmark workload.
//
// Replays what `hcsim_sweep` (and, for daemon_mix, `hcsim_sweep --connect`
// against `hcsimd`) does for a workload by calling the library's public
// functions in the sweep runner's order: baseline cells first, then every
// variant point, on the same number of threads. Each call into a layer is
// wrapped in a span (name, wall start/end, thread-CPU start/end, parent,
// job). Spans live in per-thread memory and are written out at the end; a
// layer's self time is its spans' CPU time minus that of their children.
//
// Counts come from the public SimResult / CounterArray / SampledResult /
// FtSweepStats. A few per-layer costs the sweep path cannot isolate are
// measured by probes after the traced replay (never inside it): the memory
// hierarchy replayed alone, the decode cache switched off and on, Pipeline
// cold starts, the RV executor into a counting sink, and journal appends.
//
// Usage:
//   hcsim_trace --workload fig12_full|fig12_sampled|daemon_mix
//               --threads N [--seeds S[,S...]] --len L --cumulative-len L
//               --out-dir DIR [--connect SOCK --journal-dir DIR]
//
// Writes DIR/spans.jsonl and one CSV per replayed sweep (byte-comparable
// with hcsim_sweep --csv), and prints the per-layer metrics as one JSON
// object on the last line of stdout. Without --seeds every profile keeps its
// own seed.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bbcache/bb_cache.hpp"
#include "core/pipeline.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "mem/memory_system.hpp"
#include "power/power_model.hpp"
#include "rv/kernels.hpp"
#include "sample/record_stream.hpp"
#include "sample/windowed.hpp"
#include "sim/simulator.hpp"
#include "svc/journal.hpp"
#include "svc/protocol.hpp"
#include "svc/remote_sweep.hpp"
#include "wload/executor.hpp"
#include "wload/program_gen.hpp"

using namespace hcsim;

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "hcsim_trace: %s\n", msg.c_str());
  std::exit(2);
}

// --- clocks -----------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// --- spans ------------------------------------------------------------------

struct Span {
  const char* name;
  double w0, w1;  // wall clock
  double c0, c1;  // this thread's CPU clock
  int parent;     // index in the same thread's buffer, -1 for a root
  int job;        // sweep job (cells first, then points), -1 outside jobs
};

struct ThreadBuffer {
  unsigned thread = 0;
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;
std::deque<ThreadBuffer> g_buffers;  // deque: stable addresses as it grows
thread_local ThreadBuffer* t_buffer = nullptr;
thread_local int t_open = -1;
thread_local int t_job = -1;

ThreadBuffer& buffer() {
  if (!t_buffer) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.emplace_back();
    g_buffers.back().thread = static_cast<unsigned>(g_buffers.size() - 1);
    t_buffer = &g_buffers.back();
  }
  return *t_buffer;
}

/// RAII span around one call into a layer. The layer is the name's prefix
/// before the first '.'.
class Scope {
 public:
  explicit Scope(const char* name) {
    ThreadBuffer& b = buffer();
    idx_ = static_cast<int>(b.spans.size());
    prev_ = t_open;
    b.spans.push_back({name, wall_now(), 0.0, thread_cpu_now(), 0.0, t_open, t_job});
    t_open = idx_;
  }
  ~Scope() {
    Span& s = t_buffer->spans[static_cast<std::size_t>(idx_)];
    s.c1 = thread_cpu_now();
    s.w1 = wall_now();
    t_open = prev_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int idx_ = 0;
  int prev_ = -1;
};

/// Marks the calling thread as working on sweep job `job` for its lifetime.
class JobScope {
 public:
  explicit JobScope(int job) : prev_(t_job) { t_job = job; }
  ~JobScope() { t_job = prev_; }

 private:
  int prev_;
};

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string(name, dot) : std::string(name);
}

struct SpanTotals {
  std::map<std::string, double> layer_self_cpu;  // by layer
  std::map<std::string, double> name_self_cpu;   // by full span name
  std::map<std::pair<int, std::string>, double> job_name_self_cpu;
  double self_cpu = 0.0;
};

/// Self CPU of every span recorded since `marks` (per-thread span counts).
SpanTotals totals_since(const std::vector<std::size_t>& marks) {
  SpanTotals t;
  for (std::size_t bi = 0; bi < g_buffers.size(); ++bi) {
    const std::vector<Span>& spans = g_buffers[bi].spans;
    const std::size_t from = bi < marks.size() ? marks[bi] : 0;
    std::vector<double> child(spans.size(), 0.0);
    for (std::size_t i = from; i < spans.size(); ++i)
      if (spans[i].parent >= 0)
        child[static_cast<std::size_t>(spans[i].parent)] += spans[i].c1 - spans[i].c0;
    for (std::size_t i = from; i < spans.size(); ++i) {
      const double self = spans[i].c1 - spans[i].c0 - child[i];
      t.layer_self_cpu[layer_of(spans[i].name)] += self;
      t.name_self_cpu[spans[i].name] += self;
      t.job_name_self_cpu[{spans[i].job, spans[i].name}] += self;
      t.self_cpu += self;
    }
  }
  return t;
}

std::vector<std::size_t> span_marks() {
  std::vector<std::size_t> m;
  for (const ThreadBuffer& b : g_buffers) m.push_back(b.spans.size());
  return m;
}

bool write_spans(const std::string& path, double origin) {
  std::ofstream f(path);
  if (!f) return false;
  std::size_t base = 0;
  for (const ThreadBuffer& b : g_buffers) {
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"parent\": %lld, \"thread\": %u, \"job\": %d, "
                    "\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                    "\"cpu_start\": %.9f, \"cpu_end\": %.9f}\n",
                    base + i,
                    s.parent < 0 ? -1LL : static_cast<long long>(base) + s.parent,
                    b.thread, s.job, s.name, s.w0 - origin, s.w1 - origin, s.c0, s.c1);
      f << line;
    }
    base += b.spans.size();
  }
  return f.good();
}

// --- traced simulation --------------------------------------------------------

/// Per-simulation facts the metrics need beyond the SimResult.
struct SimFacts {
  u64 fed_uops = 0;       // µops pushed through a Pipeline
  u64 generated_uops = 0; // sampled: records the stream produced
  u64 windows = 0;        // sampled: measured windows
  u64 pipelines = 0;      // Pipeline constructions
  bool sampled = false;
};

/// Forwards a RecordStream in chunk-sized sub-ranges so record generation
/// (wload) and their delivery to the windowed simulator's sink (core) can
/// be timed apart. The sub-ranges are consecutive, so the records and
/// their order are unchanged.
class TracedStream final : public sample::RecordStream {
 public:
  TracedStream(std::unique_ptr<sample::RecordStream> inner, u64* end_pos)
      : inner_(std::move(inner)), end_pos_(end_pos) {}

  const Program& program() const override { return inner_->program(); }

  void feed_range(u64 begin, u64 end, const sample::RecordSink& sink) override {
    for (u64 b = begin; b < end;) {
      const u64 e = std::min<u64>(end, b + kTraceChunkRecords);
      buf_.clear();
      {
        Scope s("wload.pull");
        inner_->feed_range(b, e, [this](const TraceRecord& r) { buf_.push_back(r); });
      }
      {
        Scope s("core.feed");
        for (const TraceRecord& r : buf_) sink(r);
      }
      b += buf_.size();
      *end_pos_ = std::max(*end_pos_, b);
      if (b < e) break;  // the trace ended inside this sub-range
    }
  }

 private:
  std::unique_ptr<sample::RecordStream> inner_;
  u64* end_pos_;
  std::vector<TraceRecord> buf_;
};

/// Pull every chunk of `cursor` through a fresh Pipeline — Pipeline::run()
/// with a span around each call.
SimResult traced_run(const MachineConfig& cfg, const Program& program, TraceCursor& cursor,
                     SimFacts& facts) {
  std::unique_ptr<Pipeline> p;
  {
    Scope s("core.construct");
    p = std::make_unique<Pipeline>(cfg, program);
  }
  facts.pipelines = 1;
  for (;;) {
    std::span<const TraceRecord> chunk;
    {
      Scope s("wload.pull");
      chunk = cursor.next_chunk();
    }
    if (chunk.empty()) break;
    Scope s("core.feed");
    p->feed(chunk);
    facts.fed_uops += chunk.size();
  }
  Scope s("core.finish");
  return p->finish();
}

/// Cache keys of every materialized trace this process asked for; the first
/// request of a key is a trace-cache miss (generation), later ones hit.
std::mutex g_trace_keys_mu;
std::set<std::tuple<std::string, u64, u64>> g_trace_keys;
u64 g_trace_cache_bytes = 0;

/// simulate_workload() with spans: sampled through the windowed simulator,
/// materialized + cached at or below stream_threshold(), streamed above.
SimResult traced_simulate(const MachineConfig& cfg, const WorkloadProfile& profile, u64 n,
                          const sample::SampleSpec* spec, SimFacts& facts) {
  if (spec) {
    Scope s("sample.run");
    u64 end_pos = 0;
    const sample::StreamFactory inner = sample::workload_stream_factory(profile, n);
    const sample::StreamFactory factory = [&inner, &end_pos] {
      return std::make_unique<TracedStream>(inner(), &end_pos);
    };
    const sample::SampledResult r = sample::WindowedSimulator(cfg, *spec).run(factory, n, 1);
    facts.sampled = true;
    facts.windows = r.windows.size();
    facts.pipelines = r.sampled ? r.windows.size() : 1;
    facts.fed_uops = r.simulated_uops;
    facts.generated_uops = end_pos;
    return r.total;
  }
  if (n <= stream_threshold()) {
    const Trace* trace = nullptr;
    {
      Scope s(profile.rv_kernel.empty() ? "wload.trace_cache" : "rv.trace_cache");
      trace = &cached_trace(profile, n);
    }
    {
      std::lock_guard<std::mutex> lock(g_trace_keys_mu);
      if (g_trace_keys.emplace(profile.name, profile.seed, n).second)
        g_trace_cache_bytes += trace->records.size() * sizeof(TraceRecord) +
                               trace->program.uops.size() * sizeof(StaticUop);
    }
    TraceVectorCursor cursor(*trace);
    return traced_run(cfg, trace->program, cursor, facts);
  }
  if (!profile.rv_kernel.empty()) die("no benchmark workload streams an RV kernel");
  std::optional<Program> program;
  {
    Scope s("wload.program");
    program = generate_program(profile);
  }
  ProgramTraceCursor cursor(std::move(*program), profile, n);
  return traced_run(cfg, cursor.program(), cursor, facts);
}

// --- traced sweep ---------------------------------------------------------------

void parallel_for(std::size_t n, unsigned threads, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

struct TracedSweep {
  exp::SweepResult result;
  std::vector<const WorkloadProfile*> cell_profiles;
  std::vector<u64> cell_lens;
  std::vector<SimResult> sims;   // cells first, then points (job order)
  std::vector<SimFacts> facts;   // parallel to sims
  std::size_t n_cells = 0;
  double wall_s = 0.0;
  double baseline_phase_s = 0.0;
  double process_cpu_s = 0.0;
  std::vector<exp::ExperimentPoint> points;
};

/// exp::run_sweep() with spans: one job per baseline cell, then one per
/// point; jobs are numbered cells first.
void traced_sweep(const exp::SweepSpec& spec, unsigned threads,
                  const sample::SampleSpec* sample_spec, TracedSweep& out) {
  const double w0 = wall_now(), c0 = process_cpu_now();
  out.points = exp::expand(spec);
  std::map<std::tuple<u32, u32, u32>, u32> cell_of;
  std::vector<u32> point_cell(out.points.size());
  for (const exp::ExperimentPoint& p : out.points) {
    const auto key = std::make_tuple(p.workload_idx, p.seed_idx, p.len_idx);
    auto [it, inserted] = cell_of.emplace(key, static_cast<u32>(out.cell_profiles.size()));
    if (inserted) {
      out.cell_profiles.push_back(&p.profile);
      out.cell_lens.push_back(p.n_records);
    }
    point_cell[p.index] = it->second;
  }
  out.n_cells = out.cell_profiles.size();
  const std::size_t n_jobs = out.n_cells + out.points.size();
  out.sims.assign(n_jobs, SimResult{});
  out.facts.assign(n_jobs, SimFacts{});
  std::vector<PowerReport> cell_power(out.n_cells);

  parallel_for(out.n_cells, threads, [&](std::size_t c) {
    JobScope job(static_cast<int>(c));
    Scope s("exp.job");
    out.sims[c] = traced_simulate(spec.baseline, *out.cell_profiles[c], out.cell_lens[c],
                                  sample_spec, out.facts[c]);
    Scope p("power.analyze");
    cell_power[c] = analyze_power(out.sims[c], spec.baseline);
  });
  out.baseline_phase_s = wall_now() - w0;

  out.result.sweep = spec.name;
  out.result.threads_used = threads;
  out.result.points.resize(out.points.size());
  parallel_for(out.points.size(), threads, [&](std::size_t i) {
    const std::size_t j = out.n_cells + i;
    JobScope job(static_cast<int>(j));
    Scope s("exp.job");
    const exp::ExperimentPoint& p = out.points[i];
    const u32 c = point_cell[p.index];
    exp::PointResult pr;
    pr.point = p;
    pr.baseline = out.sims[c];
    pr.power_baseline = cell_power[c];
    pr.sim = traced_simulate(p.variant.machine, p.profile, p.n_records, sample_spec,
                             out.facts[j]);
    out.sims[j] = pr.sim;
    {
      Scope pw("power.analyze");
      pr.power_sim = analyze_power(pr.sim, p.variant.machine);
    }
    out.result.points[p.index] = std::move(pr);
  });
  out.wall_s = wall_now() - w0;
  out.result.wall_seconds = out.wall_s;
  out.process_cpu_s = process_cpu_now() - c0;
}

// --- probes (run after the traced replay, outside every span) ------------------

/// Up to `cap` records of a cell's trace, generated the same way the sweep
/// generated them.
Trace probe_records(const WorkloadProfile& profile, u64 n, u64 cap) {
  if (n <= stream_threshold()) {
    const Trace& t = cached_trace(profile, n);
    Trace out;
    out.program = t.program;
    out.records.assign(t.records.begin(),
                       t.records.begin() + static_cast<std::ptrdiff_t>(
                                               std::min<u64>(cap, t.records.size())));
    return out;
  }
  ProgramTraceCursor cursor(generate_program(profile), profile, std::min(n, cap));
  Trace out;
  out.program = cursor.program();
  for (auto c = cursor.next_chunk(); !c.empty(); c = cursor.next_chunk())
    out.records.insert(out.records.end(), c.begin(), c.end());
  return out;
}

/// CPU seconds per MemorySystem::access over the cells' load/store streams.
double mem_access_cost(const std::vector<Trace>& traces, const MemoryConfig& cfg) {
  double cpu = 0.0;
  u64 accesses = 0;
  volatile u64 sink = 0;  // keeps the replay from being optimized away
  for (const Trace& t : traces) {
    MemorySystem mem(cfg);
    const double c0 = thread_cpu_now();
    u64 i = 0;
    for (const TraceRecord& r : t.records) {
      const Opcode op = t.program.uops[r.pc].opcode;
      if (!is_memory(op)) continue;
      sink = sink + mem.access(i++ / 2, r.mem_addr, is_store(op));
    }
    cpu += thread_cpu_now() - c0;
    accesses += i;
  }
  return accesses ? cpu / static_cast<double>(accesses) : 0.0;
}

/// Feed `t` through `cfg` with the decode cache off and on; returns CPU
/// seconds saved per µop (best of three each) and checks both runs agree.
double bbcache_saving_per_uop(const Trace& t, const MachineConfig& cfg, bool& agree) {
  const auto feed = [&](bool enabled, SimResult& r) {
    DecodeCache cache(enabled);
    Pipeline p(cfg, t.program, &cache);
    const double c0 = thread_cpu_now();
    for (std::size_t b = 0; b < t.records.size(); b += kTraceChunkRecords)
      p.feed(std::span<const TraceRecord>(t.records).subspan(
          b, std::min<std::size_t>(kTraceChunkRecords, t.records.size() - b)));
    const double cpu = thread_cpu_now() - c0;
    r = p.finish();
    return cpu;
  };
  double off = 1e30, on = 1e30;
  SimResult r_off, r_on;
  for (int rep = 0; rep < 3; ++rep) {
    off = std::min(off, feed(false, r_off));
    on = std::min(on, feed(true, r_on));
  }
  agree = r_off.final_tick == r_on.final_tick && r_off.uops == r_on.uops &&
          r_off.to_helper == r_on.to_helper && r_off.copies == r_on.copies;
  return t.records.empty() ? 0.0 : (off - on) / static_cast<double>(t.records.size());
}

/// CPU seconds of one Pipeline construct + finish, averaged over configs.
double cold_start_cost(const exp::SweepSpec& spec, const Program& program) {
  std::vector<MachineConfig> cfgs{spec.baseline};
  for (const exp::ConfigVariant& v : spec.variants) cfgs.push_back(v.machine);
  constexpr int kReps = 20;
  const double c0 = thread_cpu_now();
  for (int rep = 0; rep < kReps; ++rep)
    for (const MachineConfig& cfg : cfgs) {
      Pipeline p(cfg, program);
      (void)p.finish();
    }
  return (thread_cpu_now() - c0) / (kReps * static_cast<double>(cfgs.size()));
}

/// CPU seconds to execute every RV cell's kernel into a counting sink.
double rv_exec_cost(const TracedSweep& sw) {
  double cpu = 0.0;
  for (std::size_t c = 0; c < sw.n_cells; ++c) {
    const WorkloadProfile& p = *sw.cell_profiles[c];
    if (p.rv_kernel.empty()) continue;
    const double c0 = thread_cpu_now();
    const rv::KernelStream ks = rv::open_kernel_stream(p.rv_kernel);
    u64 n = 0;
    ks.pump(sw.cell_lens[c], [&n](const TraceRecord&) { ++n; });
    cpu += thread_cpu_now() - c0;
    if (n == 0) std::fprintf(stderr, "kernel %s produced no records\n", p.rv_kernel.c_str());
  }
  return cpu;
}

// --- metrics ------------------------------------------------------------------

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

using Metrics = std::map<std::string, double>;

std::string to_json(const Metrics& m) {
  std::string s = "{";
  for (const auto& [name, value] : m) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", s.size() > 1 ? ", " : "",
                  name.c_str(), value);
    s += buf;
  }
  return s + "}";
}

/// Counter- and span-derived metrics of the traced sweeps.
void sweep_metrics(const std::vector<const TracedSweep*>& sweeps, const SpanTotals& spans,
                   unsigned threads, Metrics& m) {
  double u_all = 0, u_helper = 0, fed_base = 0, fed_helper = 0;
  double to_helper = 0, copies = 0, wp_ok = 0, wp_fatal = 0, wp_tot = 0;
  double br = 0, br_miss = 0, bb_hit = 0, bb_miss = 0, dl0_acc = 0, dl0_hit = 0;
  double ul1_acc = 0, ul1_hit = 0, flushes = 0, nready_trunc = 0;
  double stall[5] = {0, 0, 0, 0, 0};
  double windows = 0, generated = 0, trace_len = 0, pipelines = 0, sampled_fed = 0;
  double feed_cpu_base = 0, feed_cpu_helper = 0, wall = 0, cpu = 0, base_phase = 0;
  const Counter stall_counters[5] = {Counter::kStallFetch, Counter::kStallCommit,
                                     Counter::kStallQueue, Counter::kStallRename,
                                     Counter::kStallIssue};
  for (const TracedSweep* sw : sweeps) {
    wall += sw->wall_s;
    cpu += sw->process_cpu_s;
    base_phase += sw->baseline_phase_s;
    for (std::size_t j = 0; j < sw->sims.size(); ++j) {
      const SimResult& r = sw->sims[j];
      const SimFacts& f = sw->facts[j];
      const bool base = j < sw->n_cells;
      const auto& cnt = r.counters;
      u_all += static_cast<double>(r.uops);
      (base ? fed_base : fed_helper) += static_cast<double>(f.fed_uops);
      pipelines += static_cast<double>(f.pipelines);
      const auto it = spans.job_name_self_cpu.find({static_cast<int>(j), "core.feed"});
      const double feed_cpu = it == spans.job_name_self_cpu.end() ? 0.0 : it->second;
      (base ? feed_cpu_base : feed_cpu_helper) += feed_cpu;
      if (!base) {
        u_helper += static_cast<double>(r.uops);
        to_helper += static_cast<double>(r.to_helper);
        copies += static_cast<double>(r.copies);
        wp_ok += static_cast<double>(r.wp_correct);
        wp_fatal += static_cast<double>(r.wp_fatal);
        wp_tot += static_cast<double>(r.wp_correct + r.wp_nonfatal + r.wp_fatal);
      }
      br += static_cast<double>(r.branches);
      br_miss += static_cast<double>(r.branch_mispredicts);
      bb_hit += static_cast<double>(cnt[Counter::kBbCacheHits]);
      bb_miss += static_cast<double>(cnt[Counter::kBbCacheMisses]);
      const double d = static_cast<double>(cnt[Counter::kDl0Accesses]);
      const double u1 = static_cast<double>(cnt[Counter::kUl1Accesses]);
      dl0_acc += d;
      dl0_hit += d * r.dl0_hit_rate;
      ul1_acc += u1;
      ul1_hit += u1 * r.ul1_hit_rate;
      flushes += static_cast<double>(cnt[Counter::kFlushRefills]);
      nready_trunc += static_cast<double>(cnt[Counter::kNreadyTruncations]);
      for (int k = 0; k < 5; ++k) stall[k] += static_cast<double>(cnt[stall_counters[k]]);
      if (f.sampled) {
        windows += static_cast<double>(f.windows);
        generated += static_cast<double>(f.generated_uops);
        sampled_fed += static_cast<double>(f.fed_uops);
        trace_len += static_cast<double>(base ? sw->cell_lens[j]
                                              : sw->points[j - sw->n_cells].n_records);
      }
    }
  }
  const auto layer = [&spans](const char* l) {
    const auto it = spans.layer_self_cpu.find(l);
    return it == spans.layer_self_cpu.end() ? 0.0 : it->second;
  };
  const auto named = [&spans](const char* n) {
    const auto it = spans.name_self_cpu.find(n);
    return it == spans.name_self_cpu.end() ? 0.0 : it->second;
  };
  m["wload.gen_s"] = layer("wload");
  m["wload.discarded_uops"] = generated - sampled_fed;
  m["bbcache.hit_rate"] = ratio(bb_hit, bb_hit + bb_miss);
  m["core.feed_s"] = named("core.feed");
  m["core.baseline_uops_per_s"] = ratio(fed_base, feed_cpu_base);
  m["core.helper_uops_per_s"] = ratio(fed_helper, feed_cpu_helper);
  m["core.cold_start_s"] = named("core.construct") + named("core.finish");
  m["core.pipelines"] = pipelines;
  const char* stall_names[5] = {"core.stall_fetch_per_uop", "core.stall_commit_per_uop",
                                "core.stall_queue_per_uop", "core.stall_rename_per_uop",
                                "core.stall_issue_per_uop"};
  for (int k = 0; k < 5; ++k) m[stall_names[k]] = ratio(stall[k], u_all);
  m["core.flush_refills_per_uop"] = ratio(flushes, u_all);
  m["core.copies_per_uop"] = ratio(copies, u_helper);
  m["core.nready_truncations"] = nready_trunc;
  m["mem.dl0_hit_rate"] = ratio(dl0_hit, dl0_acc);
  m["mem.ul1_hit_rate"] = ratio(ul1_hit, ul1_acc);
  m["mem.accesses_per_uop"] = ratio(dl0_acc, u_all);
  m["steer.helper_frac"] = ratio(to_helper, u_helper);
  m["steer.copy_frac"] = ratio(copies, u_helper);
  m["predict.wp_accuracy"] = ratio(wp_ok, wp_tot);
  m["predict.wp_fatal_rate"] = ratio(wp_fatal, wp_tot);
  m["predict.branch_mispredict_rate"] = ratio(br_miss, br);
  m["power.analyze_s"] = layer("power");
  m["sample.windows"] = windows;
  m["sample.fed_frac"] = ratio(sampled_fed, trace_len);
  m["sample.self_s"] = layer("sample");
  m["sim.trace_cache_misses"] = static_cast<double>(g_trace_keys.size());
  m["sim.trace_cache_mb"] = static_cast<double>(g_trace_cache_bytes) / (1024.0 * 1024.0);
  m["exp.idle_frac"] = 1.0 - ratio(cpu, threads * wall);
  m["exp.baseline_phase_s"] = base_phase;
  m["trace.wall_s"] = wall;
  m["trace.cpu_s"] = cpu;
  m["trace.unattributed_cpu_s"] = cpu - spans.self_cpu;
}

/// Probe-derived costs, scaled to the run's own work.
void probe_metrics(const std::vector<const TracedSweep*>& sweeps, Metrics& m, bool& ok) {
  const TracedSweep& first = *sweeps.front();
  std::vector<Trace> traces;
  double accesses = 0, fed = 0, windows = 0;
  for (const TracedSweep* sw : sweeps) {
    for (std::size_t c = 0; c < sw->n_cells; ++c)
      traces.push_back(probe_records(*sw->cell_profiles[c], sw->cell_lens[c], 1000000));
    for (std::size_t j = 0; j < sw->sims.size(); ++j) {
      accesses += static_cast<double>(sw->sims[j].counters[Counter::kDl0Accesses]);
      fed += static_cast<double>(sw->facts[j].fed_uops);
      if (sw->facts[j].sampled) windows += static_cast<double>(sw->facts[j].windows);
    }
  }
  m["mem.replay_s"] =
      mem_access_cost(traces, first.points.front().variant.machine.mem) * accesses;
  bool agree = true;
  const MachineConfig& helper_cfg = first.points.back().variant.machine;
  m["bbcache.saved_s"] = bbcache_saving_per_uop(traces.front(), helper_cfg, agree) * fed;
  if (!agree) {
    std::fprintf(stderr, "decode cache on/off runs disagree\n");
    ok = false;
  }
  double rv_cpu = 0.0;
  for (const TracedSweep* sw : sweeps) rv_cpu += rv_exec_cost(*sw);
  m["rv.exec_s"] = rv_cpu;
  if (windows > 0) {
    // Sampled runs construct their window pipelines inside the windowed
    // simulator; their cold-start cost is the probed per-start cost times
    // the number of windows.
    exp::SweepSpec spec;
    for (const exp::ExperimentPoint& p : first.points) spec.variants.push_back(p.variant);
    m["core.cold_start_s"] = cold_start_cost(spec, traces.front().program) * windows;
  }
}

// --- CLI ------------------------------------------------------------------------

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  f << content;
  return f.good();
}

u64 parse_u64(const std::string& flag, const char* s) {
  char* end = nullptr;
  const u64 v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') die("bad value for " + flag + ": " + s);
  return v;
}

/// "a,b,c" as positive integers, as hcsim_sweep takes them.
std::vector<u64> parse_seeds(const char* s) {
  std::vector<u64> seeds;
  for (const char* p = s; *p;) {
    char* end = nullptr;
    const u64 v = std::strtoull(p, &end, 10);
    if (end == p || v == 0 || (*end != '\0' && *end != ','))
      die(std::string("bad --seeds ") + s);
    seeds.push_back(v);
    p = *end == ',' ? end + 1 : end;
  }
  return seeds;
}

exp::SweepSpec named_sweep(const std::string& name, u64 len, const std::vector<u64>& seeds) {
  std::optional<exp::SweepSpec> spec = exp::find_sweep(name);
  if (!spec) die("unknown sweep " + name);
  if (len) spec->trace_lens = {len};
  spec->seeds = seeds;
  return *spec;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir, socket_path, journal_dir;
  u64 threads = 1, len = 8000000, cumulative_len = 1000000;
  std::vector<u64> seeds;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) die(arg + " needs a value");
    const char* v = argv[++i];
    if (arg == "--workload") workload = v;
    else if (arg == "--threads") threads = parse_u64(arg, v);
    else if (arg == "--seeds") seeds = parse_seeds(v);
    else if (arg == "--len") len = parse_u64(arg, v);
    else if (arg == "--cumulative-len") cumulative_len = parse_u64(arg, v);
    else if (arg == "--out-dir") out_dir = v;
    else if (arg == "--connect") socket_path = v;
    else if (arg == "--journal-dir") journal_dir = v;
    else die("unknown option " + arg);
  }
  if (out_dir.empty() || threads == 0 || len == 0 || cumulative_len == 0)
    die("usage: hcsim_trace --workload W --threads N [--seeds S[,S...]] --len L "
        "--cumulative-len L --out-dir DIR [--connect SOCK --journal-dir DIR]");
  const unsigned nthreads = static_cast<unsigned>(threads);
  const double origin = wall_now();
  Metrics m;
  bool ok = true;

  if (workload == "fig12_full" || workload == "fig12_sampled") {
    const bool sampled = workload == "fig12_sampled";
    const exp::SweepSpec spec = named_sweep("fig12", len, seeds);
    sample::SampleSpec sample_spec;
    sample_spec.warmup = sample::kDefaultWarmup;
    sample_spec.measure = sample::kDefaultMeasure;
    TracedSweep sw;
    const std::vector<std::size_t> marks = span_marks();
    traced_sweep(spec, nthreads, sampled ? &sample_spec : nullptr, sw);
    const SpanTotals spans = totals_since(marks);
    if (!write_file(out_dir + "/fig12.csv", exp::to_csv(sw.result))) die("cannot write CSV");
    sweep_metrics({&sw}, spans, nthreads, m);
    probe_metrics({&sw}, m, ok);
    if (sampled) {
      // Per-point sampled-vs-full error against an untraced full run of the
      // grid's first seed only (workload-major order keeps the sub-grids
      // aligned), so the check costs one seed's full grid at most.
      sample::set_active_sample_spec(sample::SampleSpec{});
      exp::SweepSpec first_seed = spec;
      if (first_seed.seeds.size() > 1) first_seed.seeds.resize(1);
      exp::SweepResult sampled_first = sw.result;
      std::erase_if(sampled_first.points,
                    [](const exp::PointResult& p) { return p.point.seed_idx != 0; });
      exp::RunOptions opts;
      opts.threads = nthreads;
      const exp::SweepResult full = exp::run_sweep(first_seed, opts);
      m["sample.max_rel_err"] = exp::max_sampling_rel_error(full, sampled_first);
    }
  } else if (workload == "daemon_mix") {
    if (socket_path.empty() || journal_dir.empty())
      die("daemon_mix needs --connect and --journal-dir");
    const exp::SweepSpec rv = named_sweep("rv", 0, seeds);
    const exp::SweepSpec cum = named_sweep("cumulative", cumulative_len, seeds);
    svc::FtSweepOptions ft;
    ft.socket_path = socket_path;
    ft.journal_dir = journal_dir;
    ft.threads = nthreads;
    ft.allow_fallback = false;
    std::string error;
    exp::SweepResult rv_ft, cum_ft, rv_again;
    svc::FtSweepStats st_rv, st_cum, st_again;
    {
      Scope s("svc.sweep");
      if (svc::run_sweep_ft(rv, ft, rv_ft, st_rv, error) != svc::FtStatus::kOk)
        die("rv through the daemon failed: " + error);
    }
    ft.journal_dir.clear();
    {
      Scope s("svc.sweep");
      if (svc::run_sweep_ft(cum, ft, cum_ft, st_cum, error) != svc::FtStatus::kOk)
        die("cumulative through the daemon failed: " + error);
    }
    // Re-submit rv with no client journal: the warm daemon journal answers.
    const double t_hit = wall_now();
    if (svc::run_sweep_ft(rv, ft, rv_again, st_again, error) != svc::FtStatus::kOk)
      die("rv re-submission failed: " + error);
    const double hit_s = wall_now() - t_hit;
    if (!write_file(out_dir + "/daemon_rv.csv", exp::to_csv(rv_ft)) ||
        !write_file(out_dir + "/daemon_cumulative.csv", exp::to_csv(cum_ft)) ||
        !write_file(out_dir + "/daemon_rv_again.csv", exp::to_csv(rv_again)))
      die("cannot write CSV");
    m["svc.remote_jobs"] = static_cast<double>(st_rv.remote_jobs + st_cum.remote_jobs);
    m["svc.local_jobs"] = static_cast<double>(st_rv.local_jobs + st_cum.local_jobs);
    m["svc.reconnects"] = static_cast<double>(st_rv.reconnects + st_cum.reconnects);
    m["svc.daemon_journal_hits"] = static_cast<double>(st_again.daemon_journal_hits);
    m["svc.journal_hit_us"] = 1e6 * ratio(hit_s, static_cast<double>(st_again.jobs));

    TracedSweep sw_rv, sw_cum;
    const std::vector<std::size_t> marks = span_marks();
    traced_sweep(rv, nthreads, nullptr, sw_rv);
    traced_sweep(cum, nthreads, nullptr, sw_cum);
    const SpanTotals spans = totals_since(marks);
    if (!write_file(out_dir + "/rv.csv", exp::to_csv(sw_rv.result)) ||
        !write_file(out_dir + "/cumulative.csv", exp::to_csv(sw_cum.result)))
      die("cannot write CSV");
    sweep_metrics({&sw_rv, &sw_cum}, spans, nthreads, m);
    probe_metrics({&sw_rv, &sw_cum}, m, ok);

    // Journal append cost and result frame size over the mix's results.
    std::vector<SimResult> results;
    for (const exp::SweepResult* r : {&rv_ft, &cum_ft})
      for (const exp::PointResult& pr : r->points) results.push_back(pr.sim);
    svc::Journal journal;
    const std::string jpath = out_dir + "/probe.journal";
    std::remove(jpath.c_str());
    if (!journal.open(jpath)) die("cannot open probe journal: " + journal.error());
    const double t_app = wall_now();
    for (std::size_t i = 0; i < results.size(); ++i)
      if (!journal.append(i + 1, results[i])) die("probe journal append failed");
    m["svc.journal_append_us"] =
        1e6 * ratio(wall_now() - t_app, static_cast<double>(results.size()));
    double frame_bytes = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      svc::JobResponse resp;
      resp.job_id = i + 1;
      resp.result = results[i];
      std::vector<u8> buf;
      svc::encode(buf, resp);
      frame_bytes += static_cast<double>(buf.size());
    }
    m["svc.result_frame_bytes"] = ratio(frame_bytes, static_cast<double>(results.size()));
  } else {
    die("unknown workload '" + workload + "'");
  }

  if (!write_spans(out_dir + "/spans.jsonl", origin) ||
      !write_file(out_dir + "/metrics.json", to_json(m) + "\n"))
    die("cannot write the trace outputs");
  std::printf("%s\n", to_json(m).c_str());
  return ok ? 0 : 1;
}
