#include "sim/simulator.hpp"

#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <vector>

#include "sample/windowed.hpp"
#include "util/log.hpp"

namespace hcsim {

u64 default_trace_len() {
  static const u64 kLen = env_u64("HCSIM_TRACE_LEN", 300000);
  return kLen;
}

u64 stream_threshold() {
  // 2M records ≈ 64MB of trace — the most the process-wide cache should pin
  // per (workload, length) cell.
  return 2000000;
}

std::unique_ptr<TraceCursor> open_trace_cursor(const WorkloadProfile& profile,
                                               u64 n_records) {
  if (n_records <= stream_threshold())
    return std::make_unique<TraceVectorCursor>(cached_trace(profile, n_records));
  return open_workload_cursor(profile, n_records);
}

SimResult simulate_streamed(const MachineConfig& cfg, const WorkloadProfile& profile,
                            u64 n_records) {
  if (n_records == 0) n_records = default_trace_len();
  return simulate(cfg, *open_workload_cursor(profile, n_records));
}

SimResult simulate_workload(const MachineConfig& cfg, const WorkloadProfile& profile,
                            u64 n_records, const sample::SampleSpec& spec) {
  if (n_records == 0) n_records = default_trace_len();
  // Windows stay serial here because callers (the sweep runner, the daemon)
  // already parallelize across jobs.
  if (spec.enabled())
    return sample::simulate_sampled(cfg, profile, n_records, spec).total;
  return simulate(cfg, *open_trace_cursor(profile, n_records));
}

const Trace& cached_trace(const WorkloadProfile& profile, u64 n_records) {
  // Two-level locking so concurrent sweep runners (src/exp/runner.cpp) can
  // generate *different* traces in parallel: the map mutex only guards
  // entry lookup/insertion, while each entry's once_flag serializes the
  // (expensive) generation of that one trace. std::map node references are
  // stable, so the entry stays valid for the process lifetime.
  struct Entry {
    std::once_flag once;
    Trace trace;
  };
  using Key = std::tuple<std::string, u64, u64>;
  static std::map<Key, Entry> cache;
  static std::mutex mu;

  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = &cache.try_emplace(Key{profile.name, profile.seed, n_records}).first->second;
  }
  std::call_once(entry->once, [&] { entry->trace = generate_trace(profile, n_records); });
  return entry->trace;
}

namespace {

AppRun run_app_under(const WorkloadProfile& profile, const SteeringConfig& steer,
                     u64 n_records, const sample::SampleSpec& spec) {
  if (n_records == 0) n_records = default_trace_len();
  AppRun run;
  run.app = profile.name;
  run.baseline = simulate_workload(monolithic_baseline(), profile, n_records, spec);
  run.helper = simulate_workload(helper_machine(steer), profile, n_records, spec);
  return run;
}

}  // namespace

AppRun run_app(const WorkloadProfile& profile, const SteeringConfig& steer,
               u64 n_records) {
  return run_app_under(profile, steer, n_records, sample::spec_from_env());
}

MultiRun run_app_configs(const WorkloadProfile& profile,
                         std::span<const SteeringConfig> configs, u64 n_records) {
  if (n_records == 0) n_records = default_trace_len();
  const sample::SampleSpec spec = sample::spec_from_env();
  MultiRun run;
  run.app = profile.name;
  run.baseline = simulate_workload(monolithic_baseline(), profile, n_records, spec);
  run.configs.reserve(configs.size());
  for (const SteeringConfig& sc : configs)
    run.configs.push_back(
        simulate_workload(helper_machine(sc), profile, n_records, spec));
  return run;
}

std::vector<AppRun> run_spec_suite(const SteeringConfig& steer, u64 n_records) {
  const sample::SampleSpec spec = sample::spec_from_env();
  std::vector<AppRun> runs;
  for (const WorkloadProfile& p : spec_int_2000_profiles())
    runs.push_back(run_app_under(p, steer, n_records, spec));
  return runs;
}

std::string describe_machine(const MachineConfig& cfg) {
  std::ostringstream os;
  os << "Machine configuration (Table 1 baseline";
  if (cfg.steer.helper_enabled) os << " + helper cluster";
  os << ")\n";
  os << "  Trace Cache fetch width : " << cfg.fetch_width << " uops/cycle\n";
  os << "  Rename / commit width   : " << cfg.rename_width << " / " << cfg.commit_width
     << "\n";
  os << "  ROB entries             : " << cfg.rob_entries << "\n";
  os << "  Int execution           : " << cfg.iq_wide << " entry scheduler, "
     << cfg.issue_wide << " issue\n";
  os << "  Fp execution            : " << cfg.iq_fp << " entry scheduler, "
     << cfg.issue_fp << " issue\n";
  if (cfg.steer.helper_enabled) {
    os << "  Helper cluster          : " << cfg.helper_width_bits << "-bit, "
       << cfg.iq_helper << " entry scheduler, " << cfg.issue_helper << " issue, "
       << cfg.ticks_per_wide_cycle << "x clock\n";
    os << "  Steering                : " << cfg.steer.describe() << "\n";
  }
  os << "  DL0                     : " << cfg.mem.dl0.size_bytes / 1024 << "KB, "
     << cfg.mem.dl0.ways << "w, " << cfg.mem.dl0.latency_cycles << " cycle, "
     << cfg.mem.dl0.ports << " R/W port\n";
  os << "  UL1                     : " << cfg.mem.ul1.size_bytes / (1024 * 1024)
     << "MB, " << cfg.mem.ul1.ways << "w, " << cfg.mem.ul1.latency_cycles
     << " cycle, " << cfg.mem.ul1.ports << " R/W port\n";
  os << "  Main memory             : " << cfg.mem.main_memory_cycles << " cycles\n";
  return os.str();
}

}  // namespace hcsim
