// hcsim — shared helpers for the figure/table reproduction benches.
//
// Every bench prints: (1) what the paper reports for this experiment,
// (2) the same rows/series measured on this implementation, (3) a short
// shape-check summary. Absolute numbers need not match the paper (our
// substrate is a simulator, not the authors' proprietary testbed); the
// ordering/factor structure should.
#pragma once

#include <cstdio>
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

/// The SPEC Int 2000 app order used by every per-app figure.
inline const std::vector<std::string>& spec_names() {
  static const std::vector<std::string> kNames = {
      "bzip2", "crafty", "eon", "gap", "gcc", "gzip",
      "mcf",   "parser", "perlbmk", "twolf", "vortex", "vpr"};
  return kNames;
}

/// Options for sweep-driven benches: HCSIM_SWEEP_THREADS threads, default
/// all hardware threads (results are thread-count independent; see
/// exp/runner), and the HCSIM_SAMPLE_* sampling spec.
inline exp::RunOptions sweep_options() {
  exp::RunOptions opts;
  const unsigned long long threads = env_u64("HCSIM_SWEEP_THREADS", 0);
  HCSIM_CHECK(threads <= 4096, "HCSIM_SWEEP_THREADS out of range");
  opts.threads = static_cast<unsigned>(threads);
  opts.sample = sample::spec_from_env();
  return opts;
}

/// Run a named sweep (exp::find_sweep) on the parallel runner. Aborts if the
/// name is unknown — benches reference registry sweeps by construction.
inline exp::SweepResult run_named_sweep(const std::string& name) {
  auto spec = exp::find_sweep(name);
  HCSIM_CHECK(spec.has_value(), "unknown sweep: " + name);
  return exp::run_sweep(*spec, sweep_options());
}

}  // namespace hcsim::bench
