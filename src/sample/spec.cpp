#include "sample/spec.hpp"

#include <algorithm>
#include <sstream>

#include "util/log.hpp"

namespace hcsim::sample {

u64 SampleSpec::resolved_period(u64 trace_len) const {
  if (period != 0) return period;
  // Auto mode: kAutoWindows equal periods across the trace, but never so
  // short that windows overlap.
  const u64 auto_period = trace_len / kAutoWindows;
  return std::max(warmup + measure, auto_period);
}

bool SampleSpec::check(std::string& error) const {
  if (!enabled() || period == 0 || period >= warmup + measure) return true;
  error = "sample period must be 0 (auto) or >= warmup + measure (period " +
          std::to_string(period) + ", warmup + measure " +
          std::to_string(warmup + measure) + ")";
  return false;
}

void SampleSpec::validate() const {
  std::string error;
  HCSIM_CHECK(check(error), "SampleSpec: " + error);
}

std::string SampleSpec::describe() const {
  if (!enabled()) return "sampling disabled";
  std::ostringstream os;
  os << "warmup=" << warmup << " measure=" << measure << " period=";
  if (period == 0)
    os << "auto(len/" << kAutoWindows << ")";
  else
    os << period;
  os << " windows=";
  if (max_windows == 0)
    os << "all";
  else
    os << max_windows;
  return os.str();
}

SampleSpec spec_from_env() {
  SampleSpec s;
  s.warmup = env_u64("HCSIM_SAMPLE_WARMUP", kDefaultWarmup);
  s.measure = env_u64("HCSIM_SAMPLE_MEASURE", 0);
  s.period = env_u64("HCSIM_SAMPLE_PERIOD", 0);
  s.max_windows = env_u64("HCSIM_SAMPLE_MAX_WINDOWS", 0);
  s.validate();
  return s;
}

bool apply_sample_flag(const std::string& flag, const std::function<u64(u64)>& value,
                       SampleSpec& spec, bool& sampled) {
  if (flag == "--sample-warmup") spec.warmup = value(0);
  else if (flag == "--sample-measure") spec.measure = value(1);
  else if (flag == "--sample-period") spec.period = value(0);
  else if (flag == "--sample-windows") spec.max_windows = value(0);
  else if (flag != "--sampled") return false;
  sampled = true;
  return true;
}

void set_active_sample_spec(const SampleSpec& spec) { spec.validate(); }

std::vector<WindowRange> plan_windows(const SampleSpec& spec, u64 trace_len) {
  spec.validate();
  std::vector<WindowRange> windows;
  if (!spec.enabled() || trace_len == 0) return windows;
  const u64 period = spec.resolved_period(trace_len);
  for (u64 begin = 0; begin < trace_len; begin += period) {
    if (spec.max_windows != 0 && windows.size() >= spec.max_windows) break;
    if (begin + spec.warmup >= trace_len) break;  // trace ends during warm-up
    WindowRange w;
    w.index = windows.size();
    w.begin = begin;
    w.warmup = spec.warmup;
    w.measure = std::min(spec.measure, trace_len - begin - spec.warmup);
    windows.push_back(w);
  }
  return windows;
}

}  // namespace hcsim::sample
