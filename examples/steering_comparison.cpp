// hcsim example: sweep every steering configuration of the paper across the
// SPEC Int 2000 suite and print the per-scheme summary that Section 3
// walks through (steered%, copies%, performance increase), then the per-app
// detail of the +IR configuration from the same grid.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace hcsim;

int main() {
  const std::vector<std::pair<const char*, SteeringConfig>> schemes = {
      {"8_8_8", steering_888()},
      {"8_8_8+BR", steering_888_br()},
      {"8_8_8+BR+LR", steering_888_br_lr()},
      {"8_8_8+BR+LR+CR", steering_888_br_lr_cr()},
      {"+CP", steering_cp()},
      {"+IR", steering_ir()},
      {"+IR(nodest)", steering_ir_nodest()},
      {"+IR(block)", steering_ir_block()},
  };
  constexpr std::size_t kIr = 5;  // the "+IR" row of `schemes`

  // One grid, 12 apps x 8 schemes: each app's baseline is simulated once
  // and shared by all eight schemes.
  std::vector<SteeringConfig> configs;
  for (const auto& [name, cfg] : schemes) configs.push_back(cfg);
  const exp::SweepResult res = exp::run_sweep(
      bench::spec_suite("steering_comparison", configs), bench::sweep_options());
  const auto apps = bench::app_rows(res);

  TextTable table({"scheme", "steered%", "copies%", "perf+%", "fatal%", "w2n-nready%",
                   "n2w-nready%"});
  for (std::size_t v = 0; v < schemes.size(); ++v) {
    double steered = 0, copies = 0, fatal = 0, w2n = 0, n2w = 0;
    std::vector<double> speedups;
    for (const auto& app : apps) {
      const SimResult& r = app[v].sim;
      steered += 100.0 * r.helper_frac();
      copies += 100.0 * r.copy_frac();
      fatal += 100.0 * r.fatal_rate();
      w2n += r.nready_w2n_pct();
      n2w += r.nready_n2w_pct();
      speedups.push_back(app[v].speedup());
    }
    const double n = static_cast<double>(apps.size());
    table.add_row({schemes[v].first, TextTable::num(steered / n, 1),
                   TextTable::num(copies / n, 1),
                   TextTable::num((exp::geomean(speedups) - 1.0) * 100.0, 1),
                   TextTable::num(fatal / n, 2), TextTable::num(w2n / n, 1),
                   TextTable::num(n2w / n, 1)});
  }
  std::printf("%s", table.render().c_str());

  // Per-app detail for the full IR configuration.
  std::printf("\nPer-app detail, +IR configuration:\n");
  TextTable detail({"app", "base IPC", "helper IPC", "perf+%", "steered%", "copies%"});
  for (const auto& app : apps) {
    const exp::PointResult& r = app[kIr];
    detail.add_row({r.point.profile.name, TextTable::num(r.baseline.ipc, 3),
                    TextTable::num(r.sim.ipc, 3),
                    TextTable::num(r.perf_increase_pct(), 1),
                    TextTable::num(100.0 * r.sim.helper_frac(), 1),
                    TextTable::num(100.0 * r.sim.copy_frac(), 1)});
  }
  std::printf("%s", detail.render().c_str());
  return 0;
}
