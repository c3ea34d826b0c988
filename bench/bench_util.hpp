// hcsim — shared helpers for the figure/table reproduction benches.
//
// Every bench prints: (1) what the paper reports for this experiment,
// (2) the same rows/series measured on this implementation, (3) a short
// shape-check summary. Absolute numbers need not match the paper (our
// substrate is a simulator, not the authors' proprietary testbed); the
// ordering/factor structure should.
//
// Every simulating bench builds one exp::SweepSpec (a named sweep or
// spec_suite()) and runs it with exp::run_sweep(spec, sweep_options()), so
// all of them follow HCSIM_SWEEP_THREADS and HCSIM_SAMPLE_* the same way.
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace hcsim::bench {

inline void header(const char* experiment, const char* paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("================================================================\n");
}

inline void footer_shape(bool ok, const std::string& what) {
  std::printf("[shape %s] %s\n\n", ok ? "OK" : "DIVERGES", what.c_str());
}

/// Average of per-app values.
inline double avg(const std::vector<double>& v) { return exp::mean(v); }

/// Run options of every bench: HCSIM_SWEEP_THREADS threads, default all
/// hardware threads (results are thread-count independent; see exp/runner),
/// and the HCSIM_SAMPLE_* sampling spec.
inline exp::RunOptions sweep_options() {
  exp::RunOptions opts;
  const unsigned long long threads = env_u64("HCSIM_SWEEP_THREADS", 0);
  HCSIM_CHECK(threads <= 4096, "HCSIM_SWEEP_THREADS out of range");
  opts.threads = static_cast<unsigned>(threads);
  opts.sample = sample::spec_from_env();
  return opts;
}

/// A named sweep (exp::find_sweep). Aborts if the name is unknown — benches
/// reference registry sweeps by construction.
inline exp::SweepSpec named_sweep(const std::string& name) {
  auto spec = exp::find_sweep(name);
  HCSIM_CHECK(spec.has_value(), "unknown sweep: " + name);
  return *spec;
}

/// The 12 SPEC Int 2000 apps (spec_int_2000_profiles() order) x one variant
/// per steering scheme, on the Table 1 machines.
inline exp::SweepSpec spec_suite(const std::string& name,
                                 const std::vector<SteeringConfig>& schemes) {
  exp::SweepSpec spec;
  spec.name = name;
  spec.workloads = spec_int_2000_profiles();
  for (const SteeringConfig& s : schemes)
    spec.variants.push_back(exp::variant_from_steering(s));
  return spec;
}

/// The points of a one-seed, one-length sweep grouped by workload, in grid
/// order: rows[a][v] is variant v of workload a.
inline std::vector<std::span<const exp::PointResult>> app_rows(
    const exp::SweepResult& res) {
  std::vector<std::span<const exp::PointResult>> rows;
  const std::span<const exp::PointResult> points(res.points);
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= points.size(); ++i)
    if (i == points.size() ||
        points[i].point.workload_idx != points[begin].point.workload_idx) {
      rows.push_back(points.subspan(begin, i - begin));
      begin = i;
    }
  return rows;
}

}  // namespace hcsim::bench
